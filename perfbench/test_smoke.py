"""Smoke test of the benchmark at tiny sizes.

Run from the repository root (it is not part of the Tier-1 suite, whose
``testpaths`` is ``tests``):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seed", "7", "--seconds", "0.1", "--scale", "0.01"]


def _run(*args) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, *TINY],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def _golden_total(doc: dict) -> int:
    return sum(len(hashes) for hashes in doc["seeds"].values())


def test_every_metric_is_printed_by_name_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = _run("--workload", "all")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    for workload in spec["workloads"]:
        for m in spec["end_to_end"]:
            got = metrics[f"{workload['name']}.{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    text = "\n".join(lines[:-1])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["name"] in text
    golden = json.loads((HERE / "golden.json").read_text())
    assert metrics["verify.golden_match"]["value"] == _golden_total(golden)


def test_a_corrupted_golden_shows_in_golden_match():
    golden = json.loads((HERE / "golden.json").read_text())
    hashes = golden["seeds"][min(golden["seeds"])]
    hashes[min(hashes)] = "0" * 64
    bad = ROOT / ".perfbench_out" / "corrupted-golden.json"
    bad.parent.mkdir(exist_ok=True)
    bad.write_text(json.dumps(golden))
    lines = _run("--workload", "grid-certify", "--trace", "1", "--golden", str(bad))
    result = json.loads(lines[-1])
    assert result["metrics"]["verify.golden_match"]["value"] == _golden_total(golden) - 1
    assert result["correct"]  # a golden mismatch is reported, not treated as a crash
