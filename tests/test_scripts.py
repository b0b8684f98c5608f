"""The scripts under ``scripts/`` run against the library as it stands.

They lie outside ``testpaths`` and nothing else runs them, so a library
change could break one unseen.  Each runs in a fresh interpreter, as from
the command line.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_chsh_scan_prints_one_row_per_p():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "chsh_scan.py"), "--rounds", "2000", "--p", "0.7", "1.0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["p", "S_oracle", "S_simulated", "stderr"]
    assert [row.split()[0] for row in rows] == ["0.700", "1.000"]
