"""Command-line entry point.

Subcommands:

* ``simulate``  - run a protocol over a setting grid and certify it against
  the Born oracle (CSV of per-setting rows + JSON report);
* ``sweep``     - communication-cost-vs-p curve (CSV);
* ``props``     - analytic property suites for the hemisphere law and the
  sub-normalized density;
* ``wire-run``  - like simulate, but Alice and Bob run as separate processes
  over sockets; dumps and audits the transcript;
* ``audit``     - re-audit a transcript dumped by wire-run.

Exit codes: 0 = pass, 1 = verification failure, 2 = usage error.  A JSON
config file (flat keys mirroring the flags) can seed ``simulate``,
``wire-run`` and ``sweep``; flags override the file.  LHVSIM_SEED provides
the default seed.

Every report embeds (seed, config hash, version); identical config and seed
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .bloch import (
    State,
    chsh_setting_pairs,
    default_setting_pairs,
    fibonacci_sphere,
    tsirelson_settings,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    ProtocolViolationError,
    TransportError,
    ValidationError,
)
from .protocols import PROTOCOLS, ProtocolId, simulate
from .sampling import check_seed, improved_one_bit_threshold, n_of_p
from .verify import (
    check_tolerance,
    chsh_from_result,
    hemisphere_law_check,
    density_property_suite,
    report_rows_csv,
    report_to_json,
    verification_report,
)

DEFAULT_PROPS_PLIST = "0.5,0.7,0.835,0.933,0.99,1.0"
# the JSON values a config file may give a field of each declared type
_FILE_TYPES = {
    "str": str,
    "int": int,
    "float": (int, float),
    "bool": bool,
    "Optional[float]": (int, float, type(None)),
}


def _default_seed() -> int:
    text = os.environ.get("LHVSIM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"LHVSIM_SEED must be an integer, got {text!r}") from None


@dataclass
class RunConfig:
    """One simulate/wire-run invocation."""

    protocol: str = "trit"
    p: float = 0.7
    rounds: int = 100000
    seed: int = 0
    settings: str = "grid:20"  # grid:N | chsh | file:PATH
    out_dir: str = "lhvsim_out"
    tolerance: Optional[float] = None


@dataclass
class SweepConfig:
    """Cost-curve sweep over the state parameter."""

    p_start: float = 0.5
    p_stop: float = 1.0
    p_step: float = 0.02
    rounds: int = 200000
    seed: int = 0
    out: str = "lhvsim_out/sweep.csv"


def _config_hash(cfg: dict) -> str:
    # hash only what determines the run's results: output locations do not
    # change a single byte of the reports
    semantic = {k: v for k, v in cfg.items() if k not in ("out_dir", "out")}
    canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a flat JSON object")
    return data


def _merge_config(cls, file_cfg: dict, args: argparse.Namespace):
    """File values first, then any flag the user actually passed; a seed
    that neither gives comes from LHVSIM_SEED."""
    cfg = cls()
    if args.seed is None and "seed" not in file_cfg:
        cfg.seed = _default_seed()
    types = {f.name: f.type for f in fields(cls)}
    for key, val in file_cfg.items():
        if key not in types:
            raise ValidationError(f"unknown config key {key!r}")
        want = _FILE_TYPES[types[key]]
        # bool is an int to isinstance, but not a valid count or number here
        if isinstance(val, bool) != (want is bool) or not isinstance(val, want):
            raise ValidationError(f"config key {key!r} must be {types[key]}, got {val!r}")
        setattr(cfg, key, val)
    for key in types:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def _parse_protocol(name: str) -> ProtocolId:
    for pid in ProtocolId:
        if pid.value == name:
            return pid
    raise ValidationError(
        f"unknown protocol {name!r}; choose from "
        + ", ".join(pid.value for pid in ProtocolId)
    )


def _parse_settings(spec: str):
    if spec == "chsh":
        return chsh_setting_pairs(), True
    if spec.startswith("grid:"):
        size = spec.split(":", 1)[1]
        if not size.isdecimal() or int(size) < 1:
            raise ValidationError(f"grid size must be an integer >= 1, got {size!r}")
        return default_setting_pairs(int(size)), False
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            raw = json.load(fh)
        try:
            pairs = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            pairs = None
        if pairs is None or pairs.ndim != 3 or pairs.shape[1:] != (2, 3):
            raise ValidationError(f"settings file {path} must hold a list of [x, y] 3-vector pairs")
        return [(x, y) for x, y in pairs], False
    raise ValidationError(f"bad settings spec {spec!r}; use grid:N, chsh or file:PATH")


def _parse_p_list(text: str) -> list:
    try:
        p_list = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        p_list = []
    if not p_list or not all(0.5 <= p <= 1.0 for p in p_list):
        raise ValidationError(f"props p-list must be numbers in [1/2, 1], got {text!r}")
    return p_list


def _write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(data)


def cmd_simulate(cfg: RunConfig, networked: bool) -> int:
    protocol = _parse_protocol(cfg.protocol)
    state = State(float(cfg.p))
    pairs, is_chsh = _parse_settings(cfg.settings)
    check_tolerance(cfg.tolerance)

    meta = {
        "command": "wire-run" if networked else "simulate",
        "config_hash": _config_hash(asdict(cfg)),
        "mode": "networked" if networked else "in-process",
        "p": float(cfg.p),
        "protocol": protocol.value,
        "rounds": int(cfg.rounds),
        "seed": int(cfg.seed),
        "version": __version__,
    }
    out = Path(cfg.out_dir)

    transcript = None
    if networked:
        from . import wire  # only wire-run and audit load the wire layer

        sim, transcript = wire.run_networked(
            protocol, state, pairs, int(cfg.rounds), int(cfg.seed), keep_outcomes=False
        )
    else:
        sim = simulate(
            protocol, state, pairs, int(cfg.rounds), int(cfg.seed), workers=os.cpu_count() or 1
        )

    est = None
    if is_chsh:
        est = chsh_from_result(sim, tsirelson_settings())
    report = verification_report(sim, tolerance=cfg.tolerance, meta=meta, chsh=est)
    _write(out / "report.json", report_to_json(report))
    _write(out / "settings.csv", report_rows_csv(report))

    ok = report.passed
    if transcript is not None:
        audit = wire.audit_transcript(transcript)
        (out / "transcript.bin").write_bytes(transcript.to_binary())
        _write(out / "transcript.json", transcript.summary_json(audit))
        for finding in audit.findings:
            print(f"audit: {finding}", file=sys.stderr)
        ok = ok and audit.passed

    print(f"max TVD {report.max_tvd:.6f} (tolerance {report.tolerance:.6f})")
    print(f"mean bits/round {report.comm['mean_bits']:.6f} +- {report.comm['stderr']:.6f}")
    if est is not None:
        print(f"CHSH S = {est.value:.4f} +- {est.stderr:.4f} (oracle {est.oracle:.4f})")
    print(f"report written to {out / 'report.json'}")
    return 0 if ok else 1


def cmd_sweep(cfg: SweepConfig) -> int:
    if not (0.5 <= cfg.p_start <= cfg.p_stop <= 1.0):
        raise ValidationError("sweep range must satisfy 0.5 <= start <= stop <= 1")
    if not cfg.p_step >= 1e-12:  # p is rounded to 12 decimals; a finer step never advances
        raise ValidationError(f"sweep step must be at least 1e-12, got {cfg.p_step!r}")
    if cfg.rounds < 1:  # a point of no rounds would read as a mean cost of 0
        raise ValidationError(f"sweep needs at least one round per point, got {cfg.rounds}")
    threshold = improved_one_bit_threshold()
    pair = default_setting_pairs(1)
    lines = ["p,protocol,alphabet,mean_bits,stderr,N_of_p"]
    p = cfg.p_start
    while p <= cfg.p_stop + 1e-12:
        p = min(round(p, 12), 1.0)
        # the one-bit-on-average protocol wherever it applies (N(p) <= 1)
        pid = ProtocolId.IMPROVED_ONE_BIT
        if not PROTOCOLS[pid].applies(p):
            pid = ProtocolId.TRIT
        sim = simulate(
            pid, State(p), pair, int(cfg.rounds), int(cfg.seed), workers=os.cpu_count() or 1
        )
        n_val = n_of_p(p) if p > 0.5 else float("nan")
        lines.append(
            ",".join(
                [
                    repr(float(p)),
                    pid.value,
                    str(PROTOCOLS[pid].alphabet_size),
                    repr(float(sim.mean_bits)),
                    repr(float(sim.bits_stderr)),
                    repr(float(n_val)) if np.isfinite(n_val) else "",
                ]
            )
        )
        p += cfg.p_step
    meta = f"# seed={cfg.seed} rounds={cfg.rounds} threshold={threshold!r} version={__version__} config_hash={_config_hash(asdict(cfg))}\n"
    _write(Path(cfg.out), meta + "\n".join(lines) + "\n")
    print(f"{len(lines) - 1} points written to {cfg.out}")
    return 0


def cmd_props(p_list, rounds: int, trials: int, seed: int) -> int:
    seed = check_seed(seed)
    if rounds < 1 or trials < 1:  # checked before the grid prints anything
        raise ValidationError(f"props needs --rounds and --trials >= 1, got {rounds} and {trials}")
    ok = True

    # hemisphere-law grid: deterministic pairs over the sphere
    vs = fibonacci_sphere(4)
    ys = fibonacci_sphere(5) @ np.diag([1.0, -1.0, 1.0])
    for i, v in enumerate(vs):
        for j, y in enumerate(ys):
            r = hemisphere_law_check(v, y / np.linalg.norm(y), rounds, seed + 31 * i + j)
            status = "ok" if r.passed else "FAIL"
            if not r.passed:
                ok = False
                print(
                    f"hemisphere law {status}: v={v.round(4).tolist()} "
                    f"y={y.round(4).tolist()} p_hat={r.p_hat:.5f} want {r.expected:.5f}"
                )
    print(f"hemisphere-law grid: {len(vs) * len(ys)} pairs at {rounds} rounds "
          f"{'pass' if ok else 'FAIL'}")

    rep = density_property_suite(p_list, trials=trials, seed=seed)
    for m in rep.margins:
        print(
            f"density property ({m.name}): worst margin {m.worst:.3e} "
            f"(limit {m.limit:.0e}) {'pass' if m.passed else 'FAIL at ' + repr(m.witness)}"
        )
    for a in rep.areas:
        print(
            f"density area p={a.p}: mc {a.monte_carlo:.6f}, quad {a.quadrature:.9f}, "
            f"want {a.expected:.6f} {'pass' if a.passed else 'FAIL'}"
        )
    ok = ok and rep.passed
    return 0 if ok else 1


def cmd_audit(path: str) -> int:
    from . import wire

    transcript = wire.Transcript.from_binary(Path(path).read_bytes())
    rep = wire.audit_transcript(transcript)
    print(
        f"{rep.rounds} rounds, {rep.messages} messages "
        f"(fraction {rep.message_fraction:.4f}), symbols {rep.symbol_histogram}"
    )
    for finding in rep.findings:
        print(f"finding: {finding}")
    print("audit pass" if rep.passed else "audit FAIL")
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhvsim",
        description="Classical simulation of entangled-qubit measurement statistics.",
    )
    parser.add_argument("--version", action="version", version=f"lhvsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(sp):
        sp.add_argument("--config", help="JSON config file (flags override it)")
        sp.add_argument("--protocol", help="|".join(pid.value for pid in ProtocolId))
        sp.add_argument("--p", type=float, help="state parameter in [1/2, 1]")
        sp.add_argument("--rounds", type=int, help="rounds per setting pair")
        sp.add_argument("--seed", type=int, help="base seed (default: $LHVSIM_SEED or 0)")
        sp.add_argument("--settings", help="grid:N | chsh | file:PATH (default grid:20)")
        sp.add_argument("--tolerance", type=float, help="override the TVD pass threshold")
        sp.add_argument("--out-dir", dest="out_dir", help="directory for report files")

    sp = sub.add_parser("simulate", help="run a protocol and certify it")
    add_run_flags(sp)

    sp = sub.add_parser("wire-run", help="networked run with transcript audit")
    add_run_flags(sp)

    sp = sub.add_parser("sweep", help="communication cost versus p (CSV)")
    sp.add_argument("--config", help="JSON config file (flags override it)")
    sp.add_argument("--p-start", dest="p_start", type=float)
    sp.add_argument("--p-stop", dest="p_stop", type=float)
    sp.add_argument("--p-step", dest="p_step", type=float)
    sp.add_argument("--rounds", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output CSV path")

    sp = sub.add_parser("props", help="analytic property suites")
    sp.add_argument("--p-list", default=DEFAULT_PROPS_PLIST, help="comma separated p values")
    sp.add_argument("--rounds", type=int, default=100000, help="rounds per hemisphere-law pair")
    sp.add_argument("--trials", type=int, default=100000, help="random triples per p")
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("audit", help="audit a dumped transcript")
    sp.add_argument("transcript", help="path to transcript.bin")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("simulate", "wire-run"):
            cfg = _merge_config(RunConfig, _load_config_file(args.config), args)
            return cmd_simulate(cfg, networked=args.command == "wire-run")
        if args.command == "sweep":
            return cmd_sweep(_merge_config(SweepConfig, _load_config_file(args.config), args))
        if args.command == "props":
            seed = args.seed if args.seed is not None else _default_seed()
            return cmd_props(_parse_p_list(args.p_list), args.rounds, args.trials, seed)
        if args.command == "audit":
            return cmd_audit(args.transcript)
        raise ValidationError(f"unknown command {args.command!r}")
    except (
        ValidationError, DomainError, OSError, UnicodeDecodeError, json.JSONDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolViolationError, TransportError, InternalConsistencyError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
