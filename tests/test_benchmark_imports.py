"""Every name the benchmark takes from the library exists.

``perfbench/`` lies outside ``testpaths``, so without this check a deletion
from the library could break the benchmark and still pass the suite.  The
benchmark's files are parsed, never imported or run; source held in string
constants, such as its set-up script, is parsed too.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "lhvsim" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass  # prose, not source


def _library_names(path: Path):
    """(module, name) for each ``from lhvsim... import name`` and ``lhvsim.name``."""
    for tree in _trees(path):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lhvsim":
                yield from ((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "lhvsim"
            ):
                yield "lhvsim", node.attr


def test_benchmark_imports_resolve():
    names = {pair for path in sorted(BENCH.glob("*.py")) for pair in _library_names(path)}
    # the parse reached the benchmark's imports and its set-up script
    assert ("lhvsim.protocols", "draw_shared") in names
    assert ("lhvsim.sampling", "improved_one_bit_threshold") in names
    missing = sorted(f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n))
    assert missing == []


def _load_benchmark(monkeypatch):
    """The benchmark's ``workloads`` and ``tracing`` modules, loaded without
    writing bytecode into its directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_benchmark_wire_check_passes(monkeypatch):
    # the benchmark's wire-audit jobs, run as the benchmark runs them, pass
    # their output checks
    workloads, tracing = _load_benchmark(monkeypatch)
    tracer = tracing.Tracer()
    jobs = workloads.build_jobs("wire-audit", 1, scale=0.04)
    outcomes = [workloads.run_job(job, tracer) for job in jobs]
    assert outcomes and [o.job.name for o in outcomes if o.failed] == []
    assert tracer.counters["wire.frames"] > 0


def test_benchmark_traced_path_matches_untraced(monkeypatch):
    # the traced grid-certify path, which rebuilds simulate from the
    # library's own steps, runs and counts as the untraced one does
    workloads, tracing = _load_benchmark(monkeypatch)
    jobs = workloads.build_jobs("grid-certify", 1, scale=0.02)
    traced = [workloads.run_job(job, tracing.Tracer()) for job in jobs]
    untraced = [workloads.run_job(job, tracing.NullTracer()) for job in jobs]
    assert traced and [o.job.name for o in traced + untraced if o.failed] == []
    assert [o.counts for o in traced] == [o.counts for o in untraced]


def test_golden_hashes_match(monkeypatch):
    # the settings.csv of every grid-certify job at the golden size has the
    # bytes the benchmark recorded, for each recorded seed
    workloads, _ = _load_benchmark(monkeypatch)
    golden = json.loads((BENCH / "golden.json").read_text())
    assert golden["rounds_per_pair"] == workloads.GOLDEN_ROUNDS
    seeds = [int(seed) for seed in golden["seeds"]]
    assert seeds == list(workloads.GOLDEN_SEEDS) == [1, 2]
    for seed in seeds:
        assert workloads.golden_hashes(seed) == golden["seeds"][str(seed)], seed
