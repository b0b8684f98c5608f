"""Every name the benchmark takes from the library exists.

``perfbench/`` lies outside ``testpaths``, so without this check a deletion
from the library could break the benchmark and still pass the suite.  The
benchmark's files are parsed, never imported or run; source held in string
constants, such as its set-up script, is parsed too.
"""

import ast
import importlib
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
