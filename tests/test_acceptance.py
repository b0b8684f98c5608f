"""Acceptance suite: the release gate for the whole simulator.

Each criterion is one test (criterion 1 is parametrized per protocol and
state) and prints an explicit PASS line with the measured margin, so a
verbose run reads as a certification record:

    pytest tests/test_acceptance.py -v -s

Everything runs at fixed seeds; tolerances are 5-8 sigma for the stated
round counts, so failures mean bugs, not luck.
"""

import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lhvsim.bloch import State, born_tables, default_setting_pairs, tsirelson_settings
from lhvsim.errors import DomainError, ProtocolViolationError
from lhvsim.protocols import (
    PROTOCOLS,
    ProtocolId,
    TRIT_BITS,
    check_applicable,
    simulate,
)
from lhvsim.sampling import n_of_p, one_bit_threshold
from lhvsim.verify import (
    chsh_estimate,
    hemisphere_law_check,
    density_property_suite,
    tvd,
)
from lhvsim.wire import audit_transcript, run_networked

SEED = 20240810
GRID20 = default_setting_pairs(20)
M = 10**6
# results do not depend on the worker count, so use every core
WORKERS = os.cpu_count() or 1

P_LIST = (0.5, 0.7, 0.835, 0.9, 0.933, 0.95, 1.0)

CRIT1_CASES = []
for _pid in ProtocolId:
    for _p in P_LIST:
        try:
            check_applicable(_pid, State(_p))
        except DomainError:
            continue
        CRIT1_CASES.append((_pid, _p))


def _max_tvd(result):
    settings = result.settings
    tables = born_tables(result.state, [s.x for s in settings], [s.y for s in settings])
    return max(tvd(s.counts, table) for s, table in zip(settings, tables))


@pytest.mark.parametrize(
    "pid,p", CRIT1_CASES, ids=[f"{pid.value}-p{p}" for pid, p in CRIT1_CASES]
)
def test_criterion_1_born_oracle_equivalence(pid, p):
    """Max per-pair TVD <= 0.005 over the 20-pair grid at 1e6 rounds/pair."""
    t0 = time.time()
    # crc32, not hash(): string hashes are randomized per process
    case_seed = SEED + zlib.crc32(f"{pid.value}:{p!r}".encode()) % 10**6
    res = simulate(pid, State(p), GRID20, M, seed=case_seed, workers=WORKERS)
    worst = _max_tvd(res)
    rate = res.total_rounds / (time.time() - t0)
    assert worst <= 0.005
    print(f"criterion 1 [{pid.value} p={p}]: PASS  max TVD {worst:.5f} "
          f"({rate / 1e6:.2f} Mrounds/s)")


def test_criterion_2_communication_cost_curve():
    """Protocol 5 mean bits equals n_of_p within 0.003; fixed costs are exact."""
    pair = GRID20[:1]
    for p in (0.85, 0.9, 0.95, 0.99):
        res = simulate(
            ProtocolId.IMPROVED_ONE_BIT, State(p), pair, M, seed=SEED + 2, workers=WORKERS
        )
        want = n_of_p(p)
        assert abs(res.mean_bits - want) <= 0.003
        assert res.worst_bits == 1.0
        print(f"criterion 2 [p={p}]: PASS  mean bits {res.mean_bits:.5f} vs N {want:.5f}")

    trit = simulate(
        ProtocolId.TRIT, State(0.7), pair, 10**5, seed=SEED + 3, keep_outcomes=True
    )
    trit_bits = np.take(PROTOCOLS[ProtocolId.TRIT].cost, trit.settings[0].msg_seq)
    assert np.all(trit_bits == TRIT_BITS)  # one trit, every round
    assert trit.no_message_fraction == 0.0
    one_bit = simulate(
        ProtocolId.ONE_BIT, State(0.95), pair, 10**5, seed=SEED + 4, keep_outcomes=True
    )
    one_bit_cost = PROTOCOLS[ProtocolId.ONE_BIT].cost
    assert np.all(np.take(one_bit_cost, one_bit.settings[0].msg_seq) == 1.0)  # one bit, every round
    print("criterion 2 [fixed-cost protocols]: PASS  trit = log2(3), one-bit = 1 exactly")


def test_criterion_3_threshold_constants():
    """Protocol 1 cuts at 1/2 + sqrt(3)/4; protocol 5 cuts where n_of_p = 1."""
    thr = one_bit_threshold()
    assert thr == pytest.approx(0.5 + np.sqrt(3.0) / 4.0, abs=1e-15)
    with pytest.raises(DomainError):
        check_applicable(ProtocolId.ONE_BIT, State(0.933))
    check_applicable(ProtocolId.ONE_BIT, State(0.9330128))

    # locate the protocol-5 root by plain bisection, independently of the library
    lo, hi = 0.8, 0.9
    assert n_of_p(lo) > 1.0 > n_of_p(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if n_of_p(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 0.834261756691355) < 1e-6
    assert abs(root - 0.835) < 1e-3  # the published two-decimal rounding
    with pytest.raises(DomainError):
        check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(root - 1e-5))
    check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(root + 1e-5))
    print(f"criterion 3: PASS  one-bit threshold {thr:.10f}, n_of_p root {root:.7f}")


def test_criterion_4_local_content():
    """Protocol 6 stays silent in a 2p-1 fraction of rounds and matches Born."""
    for p in (0.6, 0.7, 0.9):
        res = simulate(
            ProtocolId.LOCAL_CONTENT, State(p), GRID20[:1], M, seed=SEED + 5, workers=WORKERS
        )
        frac = res.no_message_fraction
        assert abs(frac - (2 * p - 1)) <= 0.002
        assert _max_tvd(res) <= 0.005
        print(f"criterion 4 [p={p}]: PASS  silent fraction {frac:.5f} vs {2 * p - 1:.1f}")


def test_criterion_5_density_property_suite():
    """Pointwise bounds at the 1e-12 guard band; area by MC (1%) and quadrature (1e-6)."""
    named = [0.5, 0.7, 0.835, 0.933, 0.99, 1.0]
    rng = np.random.default_rng(SEED + 6)
    random_ps = list(np.round(rng.uniform(0.5, 1.0, 44), 6))
    rep = density_property_suite(
        named + random_ps,
        trials=2000,
        seed=SEED + 7,
        area_samples=8 * 10**6,
        area_points=named,
    )
    # 50 p values x 2000 triples = 1e5 random (p, x, lam)
    for m in rep.margins:
        assert m.worst <= 1e-12, (m.name, m.worst, m.witness)
    for a in rep.areas:
        tol = 0.01 * a.expected if a.expected else 1e-12
        assert abs(a.monte_carlo - a.expected) <= tol, (a.p, a.monte_carlo)
        assert abs(a.quadrature - a.expected) <= 1e-6, (a.p, a.quadrature)
    worst = max(m.worst for m in rep.margins)
    print(f"criterion 5: PASS  worst pointwise margin {worst:.2e}, "
          f"areas within 1% (MC) and 1e-6 (quadrature) at {named}")


def test_criterion_6_hemisphere_law():
    """100 random (v, y) pairs at 1e6 rounds: |p_hat - (1 + y.v)/2| <= 0.004."""
    rng = np.random.default_rng(SEED + 8)
    vs, ys = [], []
    for _ in range(100):
        v = rng.normal(size=3)
        vs.append(v / np.linalg.norm(v))
        y = rng.normal(size=3)
        ys.append(y / np.linalg.norm(y))
    seeds = [SEED + 9 + i for i in range(100)]
    # each check draws from its own stream, so the cases run on threads
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(hemisphere_law_check, vs, ys, [M] * 100, seeds))
    worst = max(abs(r.p_hat - r.expected) for r in results)
    assert worst <= 0.004
    print(f"criterion 6: PASS  worst deviation {worst:.5f} over 100 pairs")


def test_criterion_7_chsh():
    """Choice-method protocol reaches Tsirelson; the product state stays local."""
    est = chsh_estimate(ProtocolId.DEGORRE, State(0.5), tsirelson_settings(), M, seed=SEED + 10)
    assert abs(est.value - 2.0 * np.sqrt(2.0)) <= 0.01
    local = chsh_estimate(ProtocolId.TRIT, State(1.0), tsirelson_settings(), M, seed=SEED + 11)
    assert abs(local.value) <= 2.0 + 3.0 * local.stderr
    print(f"criterion 7: PASS  S = {est.value:.4f} (Tsirelson 2*sqrt(2)), "
          f"product-state S = {local.value:.4f}")


def test_criterion_8_wire_equivalence(oversize_messages):
    """Networked run reproduces the in-process sequences bit for bit at 1e5 rounds."""
    pair = GRID20[:1]
    rounds = 10**5
    net, transcript = run_networked(
        ProtocolId.IMPROVED_ONE_BIT, State(0.9), pair, rounds, seed=SEED + 12
    )
    ref = simulate(
        ProtocolId.IMPROVED_ONE_BIT, State(0.9), pair, rounds, seed=SEED + 12,
        keep_outcomes=True,
    )
    sn, si = net.settings[0], ref.settings[0]
    assert np.array_equal(sn.a_seq, si.a_seq)
    assert np.array_equal(sn.b_seq, si.b_seq)
    assert np.array_equal(sn.msg_seq, si.msg_seq)
    cost = PROTOCOLS[ProtocolId.IMPROVED_ONE_BIT].cost
    assert np.array_equal(np.take(cost, sn.msg_seq), np.take(cost, si.msg_seq))

    audit = audit_transcript(transcript)
    assert audit.passed, audit.findings
    assert abs(audit.message_fraction - n_of_p(0.9)) <= 0.01

    oversize_messages()  # Alice sends every message one entry too long
    with pytest.raises(ProtocolViolationError):
        run_networked(ProtocolId.TRIT, State(0.7), pair, 100, seed=SEED + 13)
    print(f"criterion 8: PASS  bit-exact at {rounds} rounds, audit clean "
          f"(message fraction {audit.message_fraction:.4f}), fault injection aborts")
