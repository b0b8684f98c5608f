"""Benchmark for lhvsim: certification throughput, sweep memory and wire rounds/s.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, then the traced run

``--trace 0`` repeats the workload's job list (one "pass") until ``--seconds``
have elapsed, then reports end-to-end metrics as medians over the passes.
Set-up time is the median over several fresh interpreters.  Each pass and
each set-up is scaled by the host's slowness measured around it (see
``hostspeed``), so that drift of a shared host cancels; the wall-clock
medians are printed beside them.

``--trace 1`` runs every workload's job list untraced and then traced, and
repeats the pair until ``--seconds`` have elapsed; per-layer times are per
traced pass.  It runs all three workloads whatever ``--workload`` names, so
that every layer is measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts the
jobs that raised or failed their output check, so ``failed / attempted`` is
the error rate.  ``correct`` is false when any output check failed, when a
traced job's counts differ from the untraced ones, or when a rejection
sampler's acceptance strays from its analytic value by more than
``ALARM_SIGMAS`` binomial standard errors.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_FILE = HERE / "golden.json"

SETUP_REPEATS = 10  # fresh interpreters per run; set-up time is their median
SETUP_PROBES = 5  # host-speed probes in each fresh interpreter, after its set-up
ALARM_SIGMAS = 5.0  # acceptance further than this from its analytic value fails

# Timed in a fresh interpreter: import, the setting grid, the improved-one-bit
# threshold and, with argv[1] == "1", the three-process bootstrap as a
# one-round networked run.  The interpreter then gauges the host's slowness
# itself, on the core it ran on, after one warm-up probe.
SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
import lhvsim
t1 = time.perf_counter()
from lhvsim.sampling import improved_one_bit_threshold
pairs = lhvsim.default_setting_pairs(20)
improved_one_bit_threshold()
t2 = time.perf_counter()
if sys.argv[1] == "1":
    lhvsim.run_networked(lhvsim.ProtocolId.IMPROVED_ONE_BIT, lhvsim.State(0.9), pairs[:1], 1, 0)
t3 = time.perf_counter()
from hostspeed import probe, slowness
probe()
k = slowness([probe() for _ in range(int(sys.argv[2]))])
print(json.dumps({"import_s": t1 - t0, "setup_s": t3 - t0, "bootstrap_s": t3 - t2, "slowness": k}))
"""


def _use_checkout_source() -> None:
    """Import lhvsim from this checkout's ``src``, never from anywhere else."""
    init = SRC / "lhvsim" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lhvsim

    if Path(lhvsim.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported lhvsim from {lhvsim.__file__}, not from {SRC}")


_use_checkout_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from lhvsim import ProtocolId  # noqa: E402
from hostspeed import probe, slowness  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_ROUNDS,
    GOLDEN_SEEDS,
    WORKLOADS,
    build_jobs,
    golden_hashes,
    run_job,
)


# per-layer metric -> the span whose summed duration per pass it reports
SPAN_METRICS = {
    "sampling.shared_draw_s": "sampling.draw_shared",
    "sampling.private_draw_s": "sampling.draw_alice_private",
    "protocols.alice_s": "protocols.alice_decide",
    "protocols.bob_s": "protocols.bob_decide",
    "protocols.aggregate_s": "protocols.aggregate",
    "verify.report_s": "verify.report",
    "verify.render_s": "verify.render",
    "wire.to_binary_s": "wire.to_binary",
    "wire.from_binary_s": "wire.from_binary",
    "wire.audit_s": "wire.audit",
}


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"l{level}_size"] = size
    return info


def fresh_setup(networked: bool) -> dict:
    """Time import and one-time set-up in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, "1" if networked else "0", str(SETUP_PROBES)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _failure_lines(outcomes) -> list:
    seen = {}
    for out in outcomes:
        if out.failed and out.job.name not in seen:
            seen[out.job.name] = out.error or "; ".join(out.check_failures)
    return [f"failed {name}: {why}" for name, why in seen.items()]


def run_end_to_end(args) -> dict:
    jobs = build_jobs(args.workload, args.seed, args.scale)
    networked = args.workload == "wire-audit"
    null = NullTracer()
    passes, slow = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        probes, outs = [], []
        for job in jobs:
            probes.append(probe())
            outs.append(run_job(job, null))
        probes.append(probe())
        passes.append(outs)
        slow.append(slowness(probes))
        if time.perf_counter() >= deadline:
            break
    # read before any set-up interpreter exists, so the children's peak is
    # that of the party processes alone
    party_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if networked else 0
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [fresh_setup(networked) for _ in range(SETUP_REPEATS)]

    outcomes = [out for one in passes for out in one]
    rates = [_ratio(sum(o.rounds for o in one), sum(o.sim_s for o in one)) for one in passes]
    certify = [sum(o.certify_s for o in one) for one in passes]
    # a pass on a host twice as slow as nominal took twice the time a nominal
    # host would have needed
    return {
        "correct": not any(o.check_failures for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            "rounds_per_s": _metric(statistics.median(r * k for r, k in zip(rates, slow)), "1/s"),
            "certify_s": _metric(statistics.median(c / k for c, k in zip(certify, slow)), "s"),
            # the benchmark process plus, for wire-audit, the larger party peak
            "peak_rss_mb": _metric((self_kib + party_kib) / 1024.0, "MiB"),
            "setup_s": _metric(
                statistics.median(one["setup_s"] / one["slowness"] for one in setups), "s"
            ),
        },
        "notes": [
            f"passes {len(passes)}",
            f"host slowness median {statistics.median(slow):.3f} over the passes, "
            f"{statistics.median(one['slowness'] for one in setups):.3f} over the set-ups",
            f"wall-clock medians: rounds_per_s {statistics.median(rates):.6g}, "
            f"certify_s {statistics.median(certify):.6g}, "
            f"setup_s {statistics.median(one['setup_s'] for one in setups):.6g}",
            *_failure_lines(outcomes),
        ],
        "passes": [
            {"rounds_per_s": r, "certify_s": c, "slowness": k}
            for r, c, k in zip(rates, certify, slow)
        ],
        "setups": setups,
    }


def run_traced(args) -> dict:
    jobs = [job for workload in WORKLOADS for job in build_jobs(workload, args.seed, args.scale)]
    tracer = Tracer()
    null = NullTracer()
    outcomes, plain_walls, traced_walls = [], [], []
    counts_match = counts_differ = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        plain = [run_job(job, null) for job in jobs]
        mid = time.perf_counter()
        traced = [run_job(job, tracer) for job in jobs]
        plain_walls.append(mid - start)
        traced_walls.append(time.perf_counter() - mid)
        outcomes += plain + traced
        for a, b in zip(plain, traced):
            if a.counts is not None and b.counts is not None and a.job.workload != "wire-audit":
                if a.counts == b.counts:
                    counts_match += 1
                else:
                    counts_differ += 1
        if time.perf_counter() >= deadline:
            break
    passes = len(plain_walls)

    recorded = json.loads(args.golden.read_text())["seeds"]
    golden_match = 0
    for seed in GOLDEN_SEEDS:
        computed = golden_hashes(seed)
        want = recorded.get(str(seed), {})
        golden_match += sum(computed.get(name) == sha for name, sha in want.items())

    setups = [fresh_setup(True) for _ in range(SETUP_REPEATS)]
    tracer.write(OUT_DIR / f"spans-seed{args.seed}.json")

    c = tracer.counters
    metrics = {
        "import_s": _metric(statistics.median(s["import_s"] for s in setups), "s"),
        "wire.bootstrap_s": _metric(statistics.median(s["bootstrap_s"] for s in setups), "s"),
    }
    for name, span in SPAN_METRICS.items():
        metrics[name] = _metric(tracer.total(span) / passes, "s")
    metrics["sampling.shared_draw_ns_per_round"] = _metric(
        1e9 * _ratio(tracer.total("sampling.draw_shared"), c["inprocess.rounds"]), "ns"
    )
    alarms = []
    for key in ("envelope", "thinning"):
        proposed = c[f"{key}.proposed"]
        accepted, expected = c[f"{key}.accepted"], c[f"{key}.expected"]
        metrics[f"sampling.{key}_accept_ratio"] = _metric(_ratio(accepted, proposed), "ratio")
        metrics[f"sampling.{key}_accept_analytic"] = _metric(_ratio(expected, proposed), "ratio")
        # every pass repeats the same draws, so one pass holds the evidence
        sigmas = _ratio(abs(accepted - expected), (passes * c[f"{key}.variance"]) ** 0.5)
        if not proposed or sigmas > ALARM_SIGMAS:
            alarms.append(
                f"{key} acceptance {_ratio(accepted, proposed):.6f} against analytic "
                f"{_ratio(expected, proposed):.6f} over {proposed:.0f} proposals, "
                f"{sigmas:.1f} sigma"
            )
    for pid in ProtocolId:
        metrics[f"protocols.{pid.value}.rounds_per_s"] = _metric(
            _ratio(c[f"rounds.{pid.value}"], c[f"pair_s.{pid.value}"]), "1/s"
        )
    metrics["verify.golden_match"] = _metric(golden_match, "count")
    wire_rounds = c["wire.rounds"]
    metrics["wire.us_per_round"] = _metric(
        1e6 * _ratio(tracer.total("wire.run_networked"), wire_rounds), "us"
    )
    metrics["wire.frames_per_round"] = _metric(_ratio(c["wire.frames"], wire_rounds), "count")
    metrics["wire.bytes_per_round"] = _metric(_ratio(c["wire.bytes"], wire_rounds), "B")
    metrics["wire.transcript_bytes"] = _metric(c["wire.transcript_bytes"] / passes, "B")
    # the envelope replay only counts acceptance; it is not span cost
    replay_s = tracer.total("trace.envelope_replay")
    overhead = (sum(traced_walls) - replay_s - sum(plain_walls)) / passes
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.counts_match"] = _metric(counts_match / passes, "count")
    failed = sum(o.failed for o in outcomes)
    metrics["error_rate"] = _metric(_ratio(failed, len(outcomes)), "ratio")

    notes = [f"passes {passes}", f"golden seeds {list(GOLDEN_SEEDS)} at {GOLDEN_ROUNDS} rounds"]
    if c["envelope.replay_mismatch"]:
        mismatched = c["envelope.replay_mismatch"]
        alarms.append(f"envelope replay diverged from draw_shared on {mismatched:.0f} pairs")
    if counts_differ:
        alarms.append(f"traced counts differ from untraced on {counts_differ} jobs")
    notes += [f"alarm: {alarm}" for alarm in alarms]
    return {
        "correct": not alarms and not any(o.check_failures for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
        "notes": notes + _failure_lines(outcomes),
    }


def run_all(args) -> int:
    """Every workload untraced, then the traced run, each in its own process."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    common += ["--scale", str(args.scale), "--golden", str(args.golden)]
    runs = [(w, "0") for w in WORKLOADS] + [(WORKLOADS[0], "1")]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        proc = subprocess.run(cmd + common + ["--trace", trace], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload} --trace {trace}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}." if trace == "0" else ""
        for name, metric in result["metrics"].items():
            combined["metrics"][prefix + name] = metric
    print(json.dumps(combined))
    return 0


def write_golden(path: Path) -> int:
    doc = {
        "rounds_per_pair": GOLDEN_ROUNDS,
        "seeds": {str(seed): golden_hashes(seed) for seed in GOLDEN_SEEDS},
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"golden hashes for seeds {list(GOLDEN_SEEDS)} written to {path}")
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies every round count")
    ap.add_argument("--golden", type=Path, default=GOLDEN_FILE, help="recorded golden hashes")
    ap.add_argument(
        "--write-golden", action="store_true", help="record the golden hashes to --golden and exit"
    )
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        ap.error("--seconds and --scale must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_golden:
        return write_golden(args.golden)
    if args.workload == "all":
        return run_all(args)
    machine = machine_info()
    result = run_traced(args) if args.trace else run_end_to_end(args)
    notes = result.pop("notes")
    passes = result.pop("passes", None)
    setups = result.pop("setups", None)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record.update(machine=machine, notes=notes, passes=passes, setups=setups, **result)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print("machine " + json.dumps(machine, sort_keys=True))
    for note in notes:
        print(note)
    print(f"error_rate {result['failed']}/{result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
