"""The hot path loads no scipy.

scipy's optimize, integrate and stats modules cost about a second and 70 MiB
at import, so the package loads them only inside the oracles, p-values and
property suites that call them.  The check runs in a fresh interpreter,
because this test session has imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import lhvsim

SRC = Path(lhvsim.__file__).resolve().parent.parent

HOT_PATH = r"""
import sys
import lhvsim
from lhvsim import ProtocolId, State
from lhvsim.sampling import improved_one_bit_threshold
from lhvsim.verify import report_rows_csv, report_to_json, verification_report

P = {
    ProtocolId.ONE_BIT: 0.95,
    ProtocolId.TRIT: 0.7,
    ProtocolId.DEGORRE: 0.5,
    ProtocolId.TELEPORTATION: 0.7,
    ProtocolId.IMPROVED_ONE_BIT: 0.9,
    ProtocolId.LOCAL_CONTENT: 0.7,
}
pairs = lhvsim.default_setting_pairs(2)
for pid in ProtocolId:
    report = verification_report(lhvsim.simulate(pid, State(P[pid]), pairs, 200, seed=3))
    report_rows_csv(report)
    report_to_json(report)
improved_one_bit_threshold()
_, log = lhvsim.run_networked(ProtocolId.LOCAL_CONTENT, State(0.7), pairs[:1], 50, 3)
lhvsim.audit_transcript(log)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_hot_path_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", HOT_PATH], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
