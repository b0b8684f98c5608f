"""Tests for the command-line interface (driven through main(), no subprocess)."""

import json
import warnings
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest

from lhvsim import wire
from lhvsim.cli import RunConfig, _config_hash, main
from lhvsim.protocols import ProtocolId
from lhvsim.errors import TransportError, ValidationError
from lhvsim.wire import Frame, FrameKind, FrameRecord, Transcript, run_networked
from lhvsim.bloch import State, X_AXIS, Z_AXIS


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_pass_run_writes_reports(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--protocol", "trit", "--p", "0.7", "--rounds", "20000",
            "--seed", "42", "--settings", "grid:3", "--out-dir", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert report["meta"]["protocol"] == "trit"
        assert report["meta"]["seed"] == 42
        assert "config_hash" in report["meta"] and "version" in report["meta"]
        csv = (out / "settings.csv").read_text()
        assert csv.startswith("p,protocol,x_xyz,y_xyz,M,tvd,chi2,bits_mean,pass")
        assert len(csv.strip().split("\n")) == 4

    def test_reports_are_byte_identical_across_reruns(self, tmp_path):
        args = [
            "simulate", "--protocol", "degorre", "--p", "0.5", "--rounds", "5000",
            "--seed", "7", "--settings", "grid:2",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(out1)) == 0
        assert run_cli(*args, "--out-dir", str(out2)) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "settings.csv").read_bytes() == (out2 / "settings.csv").read_bytes()

    def test_out_of_range_p_is_usage_error(self, capsys, tmp_path):
        code = run_cli(
            "simulate", "--protocol", "one-bit", "--p", "0.6", "--out-dir", str(tmp_path)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "0.9330127" in err and "<= p <= 1" in err

    def test_unknown_protocol_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--protocol", "qubit", "--out-dir", str(tmp_path)) == 2

    def test_chsh_preset_reports_s(self, tmp_path, capsys):
        out = tmp_path / "chsh"
        code = run_cli(
            "simulate", "--protocol", "degorre", "--p", "0.5", "--settings", "chsh",
            "--rounds", "50000", "--seed", "3", "--out-dir", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["chsh"]["value"] - 2.828) < 0.03
        assert "CHSH" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "wire-run"])
    def test_chsh_of_zero_rounds_is_usage_error(self, command, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no 0/0 on the way
            code = run_cli(
                command, "--protocol", "trit", "--p", "0.7", "--settings", "chsh",
                "--rounds", "0", "--out-dir", str(tmp_path),
            )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_internal_consistency_error_aborts_cleanly(self, tmp_path, monkeypatch, capsys):
        import lhvsim.cli as cli
        from lhvsim.errors import InternalConsistencyError

        def broken(*args, **kwargs):
            raise InternalConsistencyError("bound violated")

        monkeypatch.setattr(cli, "simulate", broken)
        code = run_cli(
            "simulate", "--protocol", "trit", "--p", "0.7", "--rounds", "100",
            "--out-dir", str(tmp_path / "run"),
        )
        assert code == 1
        assert "run aborted: bound violated" in capsys.readouterr().err

    def test_too_strict_tolerance_fails(self, tmp_path):
        code = run_cli(
            "simulate", "--protocol", "trit", "--p", "0.7", "--rounds", "5000",
            "--tolerance", "1e-9", "--settings", "grid:2", "--out-dir", str(tmp_path / "x"),
        )
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": "trit", "p": 0.7, "rounds": 4000, "seed": 5,
                                   "settings": "grid:2", "out_dir": str(tmp_path / "from_file")}))
        code = run_cli("simulate", "--config", str(cfg), "--p", "0.9")
        assert code == 0
        report = json.loads((tmp_path / "from_file" / "report.json").read_text())
        assert report["meta"]["p"] == 0.9  # flag wins over file

    def test_config_hash_is_stable(self):
        # recorded when RunConfig still had a ``workers`` field, which the
        # hash always left out; dropping the field keeps every hash
        cfg = RunConfig(protocol="local-content", p=0.8, rounds=5000, seed=7,
                        settings="chsh", tolerance=0.01)
        assert _config_hash(asdict(RunConfig())) == "e8a554711cd61978"
        assert _config_hash(asdict(cfg)) == "76b1eace22a3cc35"

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LHVSIM_SEED", "123")
        out = tmp_path / "env"
        code = run_cli(
            "simulate", "--protocol", "trit", "--p", "0.7", "--rounds", "2000",
            "--settings", "grid:1", "--out-dir", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["seed"] == 123


class TestSweep:
    def test_cost_curve(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--p-start", "0.5", "--p-stop", "1.0", "--p-step", "0.25",
            "--rounds", "20000", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert " threshold=0.834261756691355 " in lines[0]  # a float, not np.float64(...)
        assert lines[1] == "p,protocol,alphabet,mean_bits,stderr,N_of_p"
        rows = [line.split(",") for line in lines[2:]]
        by_p = {float(r[0]): r for r in rows}
        assert by_p[0.5][1] == "trit" and float(by_p[0.5][3]) == pytest.approx(np.log2(3))
        assert by_p[0.75][1] == "trit"
        assert by_p[1.0][1] == "improved-one-bit" and float(by_p[1.0][3]) == 0.0

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run_cli("sweep", "--p-start", "0.4", "--out", str(tmp_path / "s.csv")) == 2

    def test_bit_region_tracks_normalization(self, tmp_path):
        from lhvsim.sampling import n_of_p

        out = tmp_path / "bits.csv"
        code = run_cli(
            "sweep", "--p-start", "0.84", "--p-stop", "1.0", "--p-step", "0.04",
            "--rounds", "200000", "--seed", "6", "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        means = []
        for row in rows:
            p, mean = float(row[0]), float(row[3])
            assert row[1] == "improved-one-bit"
            assert abs(mean - n_of_p(p)) <= 0.005
            means.append(mean)
        assert means == sorted(means, reverse=True)  # cost falls toward p = 1


class TestProps:
    def test_default_pass(self, capsys):
        code = run_cli("props", "--p-list", "0.5,0.933,1.0", "--rounds", "20000",
                       "--trials", "20000")
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_corrupted_density_fails_naming_property(self, monkeypatch, capsys):
        import lhvsim.verify as verify

        true_fn = verify._rho_tilde_given  # the suite's rhot_x, given x's collapse

        def corrupted(state, coll, lam, clamp=True):
            return true_fn(state, coll, lam, clamp=clamp) - 1e-6

        monkeypatch.setattr(verify, "_rho_tilde_given", corrupted)
        rep = verify.density_property_suite([0.7], trials=2000, seed=9, area_samples=10**4)
        assert not rep.passed
        failed = {m.name for m in rep.margins if not m.passed}
        assert "nonnegative" in failed

    def test_bad_plist_is_usage_error(self):
        assert run_cli("props", "--p-list", "0.3") == 2


class TestWireRunAndAudit:
    def test_wire_run_and_audit(self, tmp_path):
        out = tmp_path / "wire"
        code = run_cli(
            "wire-run", "--protocol", "trit", "--p", "0.7", "--rounds", "400",
            "--seed", "8", "--settings", "grid:1", "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "transcript.bin").exists()
        summary = json.loads((out / "transcript.json").read_text())
        assert summary["rounds"] == 400 and summary["messages"] == 400
        assert run_cli("audit", str(out / "transcript.bin")) == 0

    def test_wire_run_output_is_byte_identical_across_reruns(self, tmp_path):
        args = [
            "wire-run", "--protocol", "local-content", "--p", "0.7", "--rounds", "300",
            "--seed", "8", "--settings", "grid:2",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(out1)) == 0
        assert run_cli(*args, "--out-dir", str(out2)) == 0
        for name in ("transcript.bin", "transcript.json", "report.json", "settings.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_wire_run_audits_once(self, tmp_path, monkeypatch):
        # transcript.json and the exit code read one audit of the log
        calls, real = [], wire.audit_transcript
        counting = lambda *args: calls.append(args) or real(*args)  # noqa: E731
        monkeypatch.setattr(wire, "audit_transcript", counting)
        argv = ["wire-run", "--protocol", "trit", "--rounds", "300", "--settings", "grid:1"]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
        assert len(calls) == 1
        assert json.loads((tmp_path / "transcript.json").read_text())["rounds"] == 300

    def test_wire_run_keeps_no_outcomes(self, tmp_path, monkeypatch):
        # no report reads the per-round sequences, so wire-run does not keep them
        real = wire.run_networked
        flags = []

        def recording(*args, **kwargs):
            flags.append(kwargs.get("keep_outcomes", True))
            return real(*args, **kwargs)

        def keeping(*args, **kwargs):
            return real(*args, **{**kwargs, "keep_outcomes": True})

        argv = [
            "wire-run", "--protocol", "improved-one-bit", "--p", "0.9", "--rounds", "300",
            "--seed", "8", "--settings", "grid:2",
        ]
        monkeypatch.setattr(wire, "run_networked", recording)
        assert run_cli(*argv, "--out-dir", str(tmp_path / "new")) == 0
        assert flags == [False]
        monkeypatch.setattr(wire, "run_networked", keeping)
        assert run_cli(*argv, "--out-dir", str(tmp_path / "kept")) == 0
        for name in ("report.json", "settings.csv"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "kept" / name).read_bytes()

    def test_audit_flags_tampering(self, tmp_path, capsys):
        _, transcript = run_networked(
            ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 100, seed=9
        )
        rec = next(transcript.frames("bob->referee", FrameKind.OUTPUT))
        body = bytearray(rec.frame.payload)
        body[1 + 100 + 5] = 7  # after the status byte and b, the echoed message
        rec.frame = Frame(rec.frame.round, FrameKind.OUTPUT, bytes(body))
        path = tmp_path / "bad.bin"
        path.write_bytes(transcript.to_binary())
        assert run_cli("audit", str(path)) == 1
        assert "outside alphabet" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("audit", str(tmp_path / "nope.bin")) == 2


def _malformed_logs() -> dict:
    # one output frame: magic (4), header (17), channel byte (21), frame
    # header (round 22-29, kind 30, length 31-34), payload (35)
    good = Transcript(
        ProtocolId.TRIT, 0.7, 1, [FrameRecord("bob->referee", Frame(0, FrameKind.OUTPUT, b"\x00"))]
    ).to_binary()
    assert Transcript.from_binary(good).records[0].frame.payload == b"\x00"
    return {
        "old-format": b"LHVT" + good[4:],
        "truncated-header": good[:10],
        "unknown-protocol": good[:4] + b"\x09" + good[5:],
        "unknown-channel": good[:21] + b"\x07" + good[22:],
        "unknown-kind": good[:30] + b"\x09" + good[31:],
        "overrunning-frame": good[:-1],
    }


@pytest.mark.parametrize("case", sorted(_malformed_logs()))
def test_malformed_transcript_is_usage_error(case, tmp_path, capsys):
    data = _malformed_logs()[case]
    with pytest.raises(ValidationError):
        Transcript.from_binary(data)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    assert run_cli("audit", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@lru_cache(maxsize=None)
def _log(pid: ProtocolId, p: float) -> bytes:
    _, transcript = run_networked(pid, State(p), [(X_AXIS, Z_AXIS)], 40, seed=10)
    return transcript.to_binary()


def _forged(pid: ProtocolId, p: float, edit) -> bytes:
    """A valid log of ``pid`` at ``p``, edited by ``edit(transcript)``."""
    transcript = Transcript.from_binary(_log(pid, p))
    edit(transcript)
    return transcript.to_binary()


def _truncate_bob_setting(transcript):
    rec = next(transcript.frames("referee->bob", FrameKind.SETTING))
    rec.frame = Frame(rec.frame.round, rec.frame.kind, rec.frame.payload[:-1])


def _set(name, value):
    return lambda transcript: setattr(transcript, name, value)


# each forged log, and the start of a finding that its audit must report
BAD_P = "log header: state parameter p must lie in [1/2, 1]"
FORGED_LOGS = {
    "p-nan": (ProtocolId.TRIT, 0.7, _set("state_p", float("nan")), BAD_P),
    "p-below-half": (ProtocolId.TRIT, 0.7, _set("state_p", 0.3), BAD_P),
    "p-above-one": (ProtocolId.TRIT, 0.7, _set("state_p", 1.5), BAD_P),
    "improved-one-bit-at-half": (
        ProtocolId.IMPROVED_ONE_BIT, 0.9, _set("state_p", 0.5),
        "log header: protocol 'improved-one-bit' requires",
    ),
    "bob-setting-truncated": (
        ProtocolId.TRIT, 0.7, _truncate_bob_setting, "pair 0: bob's setting has 64 bytes",
    ),
    # a pair that fails the frame-order check is never scanned or replayed
    "2**63-rounds": (
        ProtocolId.IMPROVED_ONE_BIT, 0.9, _set("rounds_per_setting", 2**63),
        "pair 0: missing message",
    ),
}


@pytest.mark.parametrize("case", sorted(FORGED_LOGS))
def test_forged_log_is_a_finding(case, tmp_path, capsys):
    pid, p, edit, finding = FORGED_LOGS[case]
    path = tmp_path / "forged.bin"
    path.write_bytes(_forged(pid, p, edit))
    assert run_cli("audit", str(path)) == 1
    assert f"finding: {finding}" in capsys.readouterr().out


def test_lhv2_log_is_refused(tmp_path, capsys):
    path = tmp_path / "old.bin"
    path.write_bytes(b"LHV2" + _log(ProtocolId.TRIT, 0.7)[4:])
    assert run_cli("audit", str(path)) == 2
    assert "not an LHV3 transcript log" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,content",
    [
        (["simulate", "--settings", "grid:x"], None),
        (["props", "--p-list", "abc"], None),
        (["simulate", "--settings", "file:{path}"], [1]),
        (["simulate", "--settings", "file:{path}"], {"a": 1}),
        (["simulate", "--settings", "file:{path}"], [["ab", "cd"]]),
        (["simulate", "--settings", "file:{path}"], [[[1, 0, 0], [0, 0, 1], [1, 0, 0]]]),
        (["simulate", "--config", "{path}"], {"rounds": "abc"}),
        (["audit", "{dir}"], None),
        (["simulate", "--settings", "file:{dir}"], None),
        (["simulate", "--config", "{path}"], b"\xff\xfe{}"),
        (["simulate", "--rounds", "10", "--settings", "grid:1", "--out-dir", "{path}"], None),
        (["props", "--rounds", "0"], None),
        (["props", "--rounds", "-5"], None),
        (["props", "--trials", "0"], None),
        (["sweep", "--p-step", "1e-13"], None),
        (["sweep", "--rounds", "0"], None),
        (["sweep", "--rounds", "-4"], None),
        (["simulate", "--seed", "-1"], None),
        (["sweep", "--seed", "-3"], None),
        (["props", "--seed", "-2"], None),
        (["wire-run", "--seed", str(2**64)], None),
        (["LHVSIM_SEED=abc", "simulate"], None),
        (["simulate", "--tolerance", "nan"], None),
        (["simulate", "--tolerance", "-1"], None),
        (["simulate", "--config", "{path}"], {"workers": 2}),
    ],
    ids=[
        "grid-size",
        "p-list",
        "settings-scalar",
        "settings-object",
        "settings-strings",
        "settings-triple",
        "config-type",
        "audit-directory",
        "settings-directory",
        "config-not-utf8",
        "out-dir-is-file",
        "props-zero-rounds",
        "props-negative-rounds",
        "props-zero-trials",
        "sweep-step-below-rounding",
        "sweep-zero-rounds",
        "sweep-negative-rounds",
        "simulate-negative-seed",
        "sweep-negative-seed",
        "props-negative-seed",
        "wire-run-seed-past-u64",
        "env-seed-not-integer",
        "tolerance-nan",
        "tolerance-negative",
        "config-workers",
    ],
)
def test_malformed_input_is_usage_error(argv, content, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name, _, value = argv[0].partition("=")
    if value:  # a shell-style VAR=value prefix
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    assert run_cli(*[arg.format(path=path, dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_party_timeout_aborts_run(tmp_path, monkeypatch, capsys):
    # Alice's process exits at once; the referee sees EOF or a timeout
    monkeypatch.setattr(wire, "_SOCKET_TIMEOUT", 1.0)
    monkeypatch.setattr(wire, "alice_main", lambda ref, bob: None)
    with pytest.raises(TransportError):
        run_networked(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 10, seed=1)
    code = run_cli(
        "wire-run", "--protocol", "trit", "--p", "0.7", "--rounds", "10",
        "--settings", "grid:1", "--out-dir", str(tmp_path / "wire"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("run aborted: ")
