"""Tests for the simulation protocols.

Statistical assertions run at fixed seeds.  Where a tolerance is quoted it
is 4-6 sigma for the round count used, so a correct implementation passes
deterministically and an off-by-a-constant bug does not.
"""

import numpy as np
import pytest

from lhvsim.bloch import State, X_AXIS, Z_AXIS, born_joint, collapse, dot3
from lhvsim.errors import DomainError, InternalConsistencyError
from lhvsim.protocols import (
    CH_ALICE,
    CH_SAMPLER,
    CH_SHARED,
    CHUNK,
    PROTOCOLS,
    ProtocolId,
    TRIT_BITS,
    VECTOR_MESSAGE_BITS,
    _aggregate,
    _choice_and_flip,
    _play,
    _vector_sampler,
    alice_output_weight,
    bob_output,
    check_applicable,
    draw_alice_private,
    draw_shared,
    simulate,
)
from lhvsim.sampling import (
    make_generator,
    n_of_p,
    sample_uniform_sphere,
)
from lhvsim.verify import EmpiricalTable, default_setting_pairs, tvd


# every protocol, and the two whose shared draw changes shape at p = 1
CASES = [
    (ProtocolId.ONE_BIT, 0.95),
    (ProtocolId.TRIT, 0.7),
    (ProtocolId.DEGORRE, 0.5),
    (ProtocolId.TELEPORTATION, 0.7),
    (ProtocolId.IMPROVED_ONE_BIT, 0.9),
    (ProtocolId.IMPROVED_ONE_BIT, 1.0),
    (ProtocolId.LOCAL_CONTENT, 0.7),
    (ProtocolId.LOCAL_CONTENT, 1.0),
]
CASE_IDS = [f"{pid.value}-p{p}" for pid, p in CASES]


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def max_tvd(result):
    state = result.state
    return max(
        tvd(EmpiricalTable.from_setting(s), born_joint(state, s.x, s.y))
        for s in result.settings
    )


class TestApplicability:
    def test_one_bit_range(self):
        check_applicable(ProtocolId.ONE_BIT, State(0.95))
        check_applicable(ProtocolId.ONE_BIT, State(1.0))
        check_applicable(ProtocolId.ONE_BIT, State(0.9330128))
        with pytest.raises(DomainError, match="0.9330127"):
            check_applicable(ProtocolId.ONE_BIT, State(0.933))
        with pytest.raises(DomainError):
            check_applicable(ProtocolId.ONE_BIT, State(0.6))

    def test_degorre_only_at_half(self):
        check_applicable(ProtocolId.DEGORRE, State(0.5))
        with pytest.raises(DomainError, match="1/2"):
            check_applicable(ProtocolId.DEGORRE, State(0.7))

    def test_improved_one_bit_threshold(self):
        check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(0.835))
        check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(1.0))
        for p in (0.5, 0.7, 0.834):
            with pytest.raises(DomainError, match="0.83426"):
                check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(p))

    def test_unrestricted_protocols(self):
        for pid in (ProtocolId.TRIT, ProtocolId.TELEPORTATION, ProtocolId.LOCAL_CONTENT):
            for p in (0.5, 0.75, 1.0):
                check_applicable(pid, State(p))


class TestAliceWeight:
    def test_single_theta_term(self):
        # lam on the v_+ side and strictly off the v_- side: weight is 1
        state = State(0.8)
        x = np.array([0.6, 0.0, 0.8])
        c = collapse(state, x)
        lam = c.v_plus
        assert float(lam @ c.v_minus) < 0.0
        assert alice_output_weight(state, x, lam) == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_indicator_at_half(self):
        rng = np.random.default_rng(2)
        state = State(0.5)
        for _ in range(50):
            x, lam = random_unit(rng), random_unit(rng)
            c = collapse(state, x)
            w = float(alice_output_weight(state, x, lam))
            assert w == (1.0 if float(lam @ c.v_plus) >= 0.0 else 0.0)

    def test_in_unit_interval(self):
        from lhvsim.sampling import eval_rho

        rng = np.random.default_rng(3)
        done = 0
        while done < 200:
            p = rng.uniform(0.5, 1.0)
            x, lam = random_unit(rng), random_unit(rng)
            if eval_rho(State(p), x, lam) <= 0.0:
                continue  # outside the support the op is defined to raise
            w = float(alice_output_weight(State(p), x, lam))
            assert 0.0 <= w <= 1.0
            done += 1

    def test_zero_density_rejected(self):
        # at p=1 the mixture is the upper-hemisphere law; -z has density 0
        with pytest.raises(InternalConsistencyError):
            alice_output_weight(State(1.0), X_AXIS, -Z_AXIS)


class TestBobOutput:
    def test_aligned_and_opposed(self):
        lam = np.array([[0.0, 0.6, 0.8]])
        assert bob_output(np.array([0.0, 0.6, 0.8]), lam)[0] == 1
        assert bob_output(np.array([0.0, -0.6, -0.8]), lam)[0] == -1

    def test_orthogonal_gives_plus(self):
        assert bob_output(X_AXIS, np.array([[0.0, 0.0, 1.0]]))[0] == 1


class TestSharedRandomness:
    def test_independent_of_settings(self):
        # the draw function cannot even see x or y; same stream, same draws
        for pid in ProtocolId:
            p = 0.5 if pid is ProtocolId.DEGORRE else 0.95
            a = draw_shared(pid, State(p), make_generator(5, 0), 100)
            b = draw_shared(pid, State(p), make_generator(5, 0), 100)
            assert np.array_equal(a.lam1, b.lam1)

    def test_improved_r_fraction(self):
        s = draw_shared(ProtocolId.IMPROVED_ONE_BIT, State(0.9), make_generator(6, 0), 10**6)
        assert abs(s.r.mean() - n_of_p(0.9)) < 0.002

    def test_local_content_r_fraction(self):
        s = draw_shared(ProtocolId.LOCAL_CONTENT, State(0.7), make_generator(7, 0), 10**6)
        assert abs((s.r == 0).mean() - 0.4) < 0.002  # P(r=0) = 2p-1


class TestOneBit:
    def test_p1_never_picks_first_vector(self):
        res = simulate(ProtocolId.ONE_BIT, State(1.0), [(X_AXIS, X_AXIS)], 20000, seed=1)
        s = res.settings[0]
        assert s.symbol_counts[1] == 0  # rho_tilde vanishes, c = 2 always
        assert max_tvd(res) < 0.02  # product-state statistics

    def test_first_vector_fraction(self):
        # P(c=1) = 2(1-p)
        res = simulate(ProtocolId.ONE_BIT, State(0.95), [(X_AXIS, Z_AXIS)], 10**6, seed=2)
        s = res.settings[0]
        assert abs(s.symbol_counts[1] / s.rounds - 0.1) < 0.002

    def test_matches_born(self):
        rng = np.random.default_rng(8)
        pairs = [(random_unit(rng), random_unit(rng)) for _ in range(4)]
        res = simulate(ProtocolId.ONE_BIT, State(0.95), pairs, 3 * 10**5, seed=3)
        assert max_tvd(res) < 0.006
        assert res.mean_bits == 1.0 and res.worst_bits == 1.0


class TestTrit:
    def test_third_vector_fraction(self):
        # P(t=3) = 2p-1
        res = simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 10**6, seed=4)
        s = res.settings[0]
        assert abs(s.symbol_counts[3] / s.rounds - 0.4) < 0.002

    def test_never_third_at_half(self):
        res = simulate(ProtocolId.TRIT, State(0.5), [(X_AXIS, Z_AXIS)], 2 * 10**5, seed=5)
        assert res.settings[0].symbol_counts[3] == 0

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.933, 1.0])
    def test_matches_born(self, p):
        rng = np.random.default_rng(9)
        pairs = [(random_unit(rng), random_unit(rng)) for _ in range(4)]
        res = simulate(ProtocolId.TRIT, State(p), pairs, 3 * 10**5, seed=6)
        assert max_tvd(res) < 0.006
        assert res.mean_bits == pytest.approx(TRIT_BITS)


class TestDegorre:
    def test_equal_settings_correlate_perfectly(self):
        res = simulate(ProtocolId.DEGORRE, State(0.5), [(Z_AXIS, Z_AXIS)], 10**5, seed=7)
        s = res.settings[0]
        agree = (s.counts[0, 0] + s.counts[1, 1]) / s.rounds
        assert agree == pytest.approx(1.0, abs=0.002)

    def test_uniform_marginals(self):
        rng = np.random.default_rng(10)
        res = simulate(
            ProtocolId.DEGORRE, State(0.5), [(random_unit(rng), random_unit(rng))], 10**6, seed=8
        )
        s = res.settings[0]
        assert abs(s.counts[0].sum() / s.rounds - 0.5) < 0.002

    def test_matches_born(self):
        rng = np.random.default_rng(11)
        pairs = [(random_unit(rng), random_unit(rng)) for _ in range(4)]
        res = simulate(ProtocolId.DEGORRE, State(0.5), pairs, 3 * 10**5, seed=9)
        assert max_tvd(res) < 0.006


class TestTeleportation:
    def test_prepare_and_measure_aligned(self):
        rng = np.random.default_rng(12)
        v = random_unit(rng)
        g = make_generator(100, 0)
        lam1 = sample_uniform_sphere(g, 500)
        lam2 = sample_uniform_sphere(g, 500)
        c1, c2, lam = _choice_and_flip(lam1, lam2, v)
        assert np.all(bob_output(v, lam) == 1)  # flip puts lam in the v hemisphere
        msg = 2 * (c1.astype(int) - 1) + (c2 == -1) + 1
        assert set(np.unique(msg)) <= {1, 2, 3, 4}
        assert PROTOCOLS[ProtocolId.TELEPORTATION].cost[1:] == (2.0, 2.0, 2.0, 2.0)

    def test_prepare_and_measure_statistics(self):
        # vectorized transcription of the single-qubit protocol for speed
        rng = np.random.default_rng(13)
        v = random_unit(rng)
        g = make_generator(10, 0)
        for y, want in ((np.array([-v[1], v[0], 0.0]) / np.hypot(v[0], v[1]), 0.5),):
            lam1 = sample_uniform_sphere(g, 10**6)
            lam2 = sample_uniform_sphere(g, 10**6)
            _, _, lam = _choice_and_flip(lam1, lam2, v)
            p_hat = float(np.mean(dot3(lam, y) >= 0.0))
            assert abs(p_hat - want) < 0.002

    def test_hemisphere_law_statistics_random_pair(self):
        rng = np.random.default_rng(14)
        v, y = random_unit(rng), random_unit(rng)
        g = make_generator(11, 0)
        lam1 = sample_uniform_sphere(g, 10**6)
        lam2 = sample_uniform_sphere(g, 10**6)
        _, _, lam = _choice_and_flip(lam1, lam2, v)
        p_hat = float(np.mean(dot3(lam, y) >= 0.0))
        assert abs(p_hat - (1.0 + y @ v) / 2.0) < 0.002

    @pytest.mark.parametrize("p", [0.5, 0.7, 1.0])
    def test_chained_matches_born(self, p):
        rng = np.random.default_rng(15)
        pairs = [(random_unit(rng), random_unit(rng)) for _ in range(4)]
        res = simulate(ProtocolId.TELEPORTATION, State(p), pairs, 3 * 10**5, seed=11)
        assert max_tvd(res) < 0.006
        assert res.mean_bits == 2.0


class TestImprovedOneBit:
    def test_mean_bits_tracks_normalization(self):
        for p in (0.85, 0.95):
            res = simulate(ProtocolId.IMPROVED_ONE_BIT, State(p), [(X_AXIS, Z_AXIS)], 10**5, seed=12)
            assert abs(res.mean_bits - n_of_p(p)) < 0.01
            assert res.worst_bits == 1.0

    def test_almost_product_state_barely_talks(self):
        res = simulate(ProtocolId.IMPROVED_ONE_BIT, State(0.999), [(X_AXIS, Z_AXIS)], 10**5, seed=13)
        assert res.mean_bits < 0.02

    def test_silent_rounds_have_no_symbol(self):
        res = simulate(
            ProtocolId.IMPROVED_ONE_BIT,
            State(0.9),
            [(X_AXIS, Z_AXIS)],
            10**4,
            seed=14,
            keep_outcomes=True,
        )
        s = res.settings[0]
        assert np.all((s.bits_seq == 0.0) == (s.msg_seq == 0))
        assert set(np.unique(s.msg_seq)) <= {0, 1, 2}

    def test_matches_born(self):
        rng = np.random.default_rng(16)
        pairs = [(random_unit(rng), random_unit(rng)) for _ in range(4)]
        res = simulate(ProtocolId.IMPROVED_ONE_BIT, State(0.9), pairs, 3 * 10**5, seed=15)
        assert max_tvd(res) < 0.006

    def test_degenerate_at_p1(self):
        res = simulate(ProtocolId.IMPROVED_ONE_BIT, State(1.0), [(X_AXIS, Z_AXIS)], 10**4, seed=16)
        assert res.mean_bits == 0.0
        assert res.no_message_fraction == 1.0


class TestLocalContent:
    def test_silent_fraction_is_local_content(self):
        res = simulate(ProtocolId.LOCAL_CONTENT, State(0.7), [(X_AXIS, Z_AXIS)], 10**6, seed=17)
        assert abs(res.no_message_fraction - 0.4) < 0.002

    def test_maximally_entangled_always_talks(self):
        res = simulate(ProtocolId.LOCAL_CONTENT, State(0.5), [(X_AXIS, Z_AXIS)], 10**4, seed=18)
        assert res.no_message_fraction == 0.0
        assert res.mean_bits == VECTOR_MESSAGE_BITS

    @pytest.mark.parametrize("p", [0.5, 0.7, 1.0])
    def test_matches_born(self, p):
        rng = np.random.default_rng(19)
        pairs = [(random_unit(rng), random_unit(rng)) for _ in range(4)]
        res = simulate(ProtocolId.LOCAL_CONTENT, State(p), pairs, 3 * 10**5, seed=19)
        assert max_tvd(res) < 0.006

    def test_p1_never_communicates(self):
        res = simulate(ProtocolId.LOCAL_CONTENT, State(1.0), [(X_AXIS, Z_AXIS)], 10**4, seed=20)
        assert res.no_message_fraction == 1.0


class TestSimulate:
    def test_zero_rounds(self):
        res = simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 0, seed=21)
        assert res.total_rounds == 0
        assert res.mean_bits == 0.0
        assert res.worst_bits == 0.0 and res.bits_stderr == 0.0
        assert res.settings[0].counts.sum() == 0

    @pytest.mark.parametrize("pid,p", CASES, ids=CASE_IDS)
    def test_run_batch_of_zero_rounds_is_empty(self, pid, p):
        res = simulate(
            pid, State(p), [(X_AXIS, Z_AXIS)], 0, seed=25, keep_outcomes=True, keep_lambdas=True
        )
        s = res.settings[0]
        for seq in (s.a_seq, s.b_seq, s.msg_seq, s.bits_seq):
            assert seq.shape == (0,)
        assert s.lam_seq.shape == (0, 3)

    def test_rejects_inapplicable_p(self):
        with pytest.raises(DomainError, match="<= p <= 1"):
            simulate(ProtocolId.ONE_BIT, State(0.6), [(X_AXIS, Z_AXIS)], 10, seed=22)

    def test_alphabet_soundness(self):
        for pid, p in [
            (ProtocolId.ONE_BIT, 0.95),
            (ProtocolId.TRIT, 0.7),
            (ProtocolId.DEGORRE, 0.5),
            (ProtocolId.TELEPORTATION, 0.7),
            (ProtocolId.IMPROVED_ONE_BIT, 0.9),
        ]:
            info = PROTOCOLS[pid]
            res = simulate(pid, State(p), [(X_AXIS, Z_AXIS)], 5000, seed=23, keep_outcomes=True)
            s = res.settings[0]
            sent = s.msg_seq[s.msg_seq != 0]
            assert np.all(sent >= 1) and np.all(sent <= info.alphabet_size)
            assert res.worst_bits <= np.log2(info.alphabet_size) + 1e-12

    def test_deterministic_across_worker_counts(self):
        pairs = [(X_AXIS, Z_AXIS), (Z_AXIS, X_AXIS), (Z_AXIS, Z_AXIS)]
        a = simulate(ProtocolId.TRIT, State(0.7), pairs, 4000, seed=24, workers=1)
        b = simulate(ProtocolId.TRIT, State(0.7), pairs, 4000, seed=24, workers=2)
        for sa, sb in zip(a.settings, b.settings):
            assert np.array_equal(sa.counts, sb.counts)
            assert sa.bits_sum == sb.bits_sum

    def test_trit_and_degorre_agree_at_half(self):
        rng = np.random.default_rng(25)
        pairs = [(random_unit(rng), random_unit(rng)) for _ in range(3)]
        r2 = simulate(ProtocolId.TRIT, State(0.5), pairs, 2 * 10**5, seed=26)
        r3 = simulate(ProtocolId.DEGORRE, State(0.5), pairs, 2 * 10**5, seed=26)
        assert max_tvd(r2) < 0.007
        assert max_tvd(r3) < 0.007

    def test_marginal_correctness_all_protocols(self):
        rng = np.random.default_rng(27)
        m = 10**5
        for pid, p in [
            (ProtocolId.ONE_BIT, 0.95),
            (ProtocolId.TRIT, 0.7),
            (ProtocolId.DEGORRE, 0.5),
            (ProtocolId.TELEPORTATION, 0.81),
            (ProtocolId.IMPROVED_ONE_BIT, 0.9),
            (ProtocolId.LOCAL_CONTENT, 0.66),
        ]:
            x, y = random_unit(rng), random_unit(rng)
            res = simulate(pid, State(p), [(x, y)], m, seed=28)
            s = res.settings[0]
            p_plus = collapse(State(p), x).p_plus
            tol = 4.0 * np.sqrt(max(p_plus * (1 - p_plus), 1e-12) / m)
            assert abs(s.counts[0].sum() / m - p_plus) <= max(tol, 1e-4)

    def test_alice_marginal_does_not_depend_on_y(self):
        # same x against two different y settings; 4-sigma two-sample check
        m = 2 * 10**5
        x = np.array([0.6, 0.0, 0.8])
        res = simulate(ProtocolId.TRIT, State(0.7), [(x, Z_AXIS), (x, X_AXIS)], m, seed=29)
        f1 = res.settings[0].counts[0].sum() / m
        f2 = res.settings[1].counts[0].sum() / m
        assert abs(f1 - f2) <= 4.0 * np.sqrt(2.0 * 0.25 / m)


class TestCostStatistics:
    """Cost statistics are derived from the symbol counts and the cost table."""

    def test_constant_cost_has_zero_stderr(self):
        res = simulate(
            ProtocolId.TRIT, State(0.7), default_setting_pairs(1), 2 * CHUNK + 3, seed=42
        )
        assert res.bits_stderr == 0.0
        assert res.worst_bits == TRIT_BITS

    def test_one_bit_cost_stderr_is_binomial(self):
        n = 10**5
        res = simulate(ProtocolId.IMPROVED_ONE_BIT, State(0.9), [(X_AXIS, Z_AXIS)], n, seed=43)
        q = 1.0 - res.no_message_fraction
        assert 0.0 < q < 1.0
        assert res.bits_stderr == pytest.approx(np.sqrt(q * (1.0 - q) / n), rel=1e-12, abs=0.0)
        assert res.worst_bits == 1.0

    @pytest.mark.parametrize("pid,p", CASES, ids=CASE_IDS)
    def test_bits_are_the_cost_of_the_symbol(self, pid, p):
        res = simulate(pid, State(p), [(X_AXIS, Z_AXIS)], 2000, seed=45, keep_outcomes=True)
        s = res.settings[0]
        cost = np.asarray(PROTOCOLS[pid].cost)
        assert np.array_equal(s.bits_seq, cost[s.msg_seq])
        assert s.bits_sum == float(cost[s.msg_seq].sum())
        assert res.worst_bits == float(s.bits_seq.max())


def one_round(pid, p, x, y, seed):
    res = simulate(pid, State(p), [(x, y)], 1, seed, keep_outcomes=True, keep_lambdas=True)
    return res.settings[0]


class TestSingleRoundApi:
    """A single round is a 1-round ``simulate``, kept outcomes and all."""

    P = {
        ProtocolId.ONE_BIT: 0.95,
        ProtocolId.TRIT: 0.7,
        ProtocolId.DEGORRE: 0.5,
        ProtocolId.TELEPORTATION: 0.7,
        ProtocolId.IMPROVED_ONE_BIT: 0.9,
        ProtocolId.LOCAL_CONTENT: 0.7,
    }

    def test_round_records(self):
        rng = np.random.default_rng(30)
        for pid, p in self.P.items():
            x, y = random_unit(rng), random_unit(rng)
            rec = one_round(pid, p, x, y, seed=31)
            assert rec.a_seq.shape == rec.b_seq.shape == rec.msg_seq.shape == (1,)
            assert rec.a_seq[0] in (-1, 1) and rec.b_seq[0] in (-1, 1)
            assert 0 <= rec.msg_seq[0] <= PROTOCOLS[pid].alphabet_size
            assert np.linalg.norm(rec.lam_seq[0]) == pytest.approx(1.0, abs=1e-9)

    def test_same_stream_same_round(self):
        a = one_round(ProtocolId.TRIT, 0.7, X_AXIS, Z_AXIS, seed=32)
        b = one_round(ProtocolId.TRIT, 0.7, X_AXIS, Z_AXIS, seed=32)
        for name in ("a_seq", "b_seq", "msg_seq", "bits_seq", "lam_seq"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_domain_errors(self):
        for pid, seed in (
            (ProtocolId.ONE_BIT, 33),
            (ProtocolId.DEGORRE, 34),
            (ProtocolId.IMPROVED_ONE_BIT, 35),
        ):
            with pytest.raises(DomainError):
                one_round(pid, 0.7, X_AXIS, Z_AXIS, seed)


# three chunks, the last one short (ids as CASE_IDS), and a pair's only chunk
CHUNK_CASES = [
    pytest.param(pid, p, n, id=case_id + suffix)
    for (pid, p), case_id in zip(CASES, CASE_IDS)
    for n, suffix in ((2 * CHUNK + 3, ""), (2000, "-one-chunk"))
]


class TestChunking:
    """Chunked runs read the n-round streams in pieces and must equal one draw."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("pid,p,n", CHUNK_CASES)
    def test_equals_whole_array_run(self, pid, p, n, workers):
        state = State(p)
        pairs = default_setting_pairs(2)
        res = simulate(
            pid, state, pairs, n, seed=40, workers=workers,
            keep_outcomes=True, keep_lambdas=True,
        )
        for k, (x, y) in enumerate(pairs):
            # the reference: every stream read as one n-round draw
            shared = draw_shared(pid, state, make_generator(40, k, CH_SHARED), n)
            priv = draw_alice_private(pid, make_generator(40, k, CH_ALICE), n)
            sampler = _vector_sampler(pid, state, x, make_generator(40, k, CH_SAMPLER))
            batch = _play(pid, state, x, y, shared, priv, sampler)
            want = _aggregate(pid, x, y, batch, True, True)
            got = res.settings[k]
            assert got.rounds == want.rounds == n
            assert got.message_rounds == want.message_rounds
            assert got.bits_sum == pytest.approx(want.bits_sum, rel=1e-14)
            for name in ("counts", "symbol_counts", "a_seq", "b_seq", "msg_seq",
                         "bits_seq", "lam_seq"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_trit_memory_is_bounded(self):
        import tracemalloc

        tracemalloc.start()
        try:
            simulate(ProtocolId.TRIT, State(0.7), default_setting_pairs(1), 10**6, seed=41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 10^6-round draw held about 200 MiB; one chunk holds about 14 MiB
        assert peak < 32 * 2**20

    def test_trit_guard_regression(self):
        # at x_z = 0 the trit bound is tight where |lam.v| -> 0; a ratio test
        # with slack 1e-12 raised here at round 756533, where |lam.v| = 2.5e-4
        res = simulate(
            ProtocolId.TRIT, State(0.7), default_setting_pairs(1), 4_000_000, seed=1,
            workers=2,
        )
        assert res.total_rounds == 4_000_000
        assert max_tvd(res) < 0.003
