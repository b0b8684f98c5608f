"""Host speed, measured beside the jobs so that its drift can be taken out.

On a shared machine the speed of one core drifts by up to 1.6x over tens of
seconds, with other tenants' load, and one run's median can land in a slow
stretch.  A probe is a fixed piece of interpreter and numpy work that does
not touch lhvsim; the benchmark times it before every job and after the
last, and divides each time it reports by the host's slowness over the same
stretch.  Times are thus scaled to a host on which one probe takes
``PROBE_S`` seconds, and they compare between commits on one machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# one probe's time on an unloaded core of the host the benchmark was tuned on
# (Intel Xeon, Python 3.11, numpy 2.4); a host at this speed has slowness 1
PROBE_S = 0.004

_AXIS = np.array([0.3, 0.4, 0.866])
_LOOP = 30_000
_VECTORS = 20_000


def probe() -> float:
    """Seconds for one fixed piece of interpreter and numpy work."""
    rng = np.random.Generator(np.random.Philox(7))
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    v = rng.standard_normal((_VECTORS, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    np.bincount(np.where(v @ _AXIS > 0, 2, 0), minlength=3)
    return time.perf_counter() - start


def slowness(probe_times) -> float:
    """How much slower than nominal the host ran while these probes were taken."""
    return statistics.mean(probe_times) / PROBE_S
