"""The library runs on numpy alone, and its start-up loads only what it runs.

scipy is a test dependency only: the tests use it as an independent oracle.
Each check runs in a fresh interpreter in which scipy cannot be imported,
because this test session has imported scipy already.  A fresh interpreter
also shows which modules ``import lhvsim`` and building settings load.
"""

import os
import subprocess
import sys
from pathlib import Path

import lhvsim

SRC = Path(lhvsim.__file__).resolve().parent.parent

# every subcommand on small inputs, in one interpreter; the tmp dir is argv[1]
NO_SCIPY = r"""
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
import lhvsim
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" and sys.modules[m] is not None
    or m == "numpy.polynomial" or m.startswith("numpy.polynomial.")
)
print("loaded at import:", loaded)
# building settings loads neither the simulator, the certifier nor the wire layer
from lhvsim.sampling import improved_one_bit_threshold
lhvsim.default_setting_pairs(20)
improved_one_bit_threshold()
heavy = ("lhvsim.protocols", "lhvsim.verify", "lhvsim.wire", "multiprocessing")
print("loaded by set-up:", [m for m in heavy if m in sys.modules])
print("unresolved names:", [name for name in lhvsim.__all__ if not hasattr(lhvsim, name)])
from lhvsim.cli import main
out = sys.argv[1]
commands = {
    "simulate": ["simulate", "--protocol", "improved-one-bit", "--p", "0.9", "--rounds", "2000",
                 "--settings", "grid:2", "--out-dir", out + "/sim"],
    "wire-run": ["wire-run", "--protocol", "local-content", "--p", "0.7", "--rounds", "300",
                 "--settings", "grid:1", "--out-dir", out + "/wire"],
    "audit": ["audit", out + "/wire/transcript.bin"],
    "sweep": ["sweep", "--p-start", "0.8", "--p-stop", "1.0", "--p-step", "0.1", "--rounds", "2000",
              "--out", out + "/sweep.csv"],
    "props": ["props", "--p-list", "0.5,0.7", "--rounds", "2000", "--trials", "2000"],
}
for name, argv in commands.items():
    print("exit", name, main(argv))
"""


def test_hot_path_loads_no_scipy(tmp_path):
    # import lhvsim and every command, on small inputs, with scipy blocked
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # import lhvsim loads no scipy, and no numpy.polynomial (props loads it later)
    assert "loaded at import: []" in lines, proc.stdout
    # the package's names load on first use, and every one of them resolves
    assert {"loaded by set-up: []", "unresolved names: []"} <= set(lines), proc.stdout
    exits = [line for line in lines if line.startswith("exit ")]
    assert exits == [
        f"exit {name} 0" for name in ("simulate", "wire-run", "audit", "sweep", "props")
    ], proc.stdout
