"""Tests for the simulation protocols.

Statistical assertions run at fixed seeds.  Where a tolerance is quoted it
is 4-6 sigma for the round count used, so a correct implementation passes
deterministically and an off-by-a-constant bug does not.
"""

import math
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from lhvsim.bloch import (
    State,
    X_AXIS,
    Z_AXIS,
    born_tables,
    collapse,
    default_setting_pairs,
    dot3,
    pm,
    sign_pm,
    theta,
)
from lhvsim import protocols, sampling
from lhvsim.errors import DomainError, InternalConsistencyError, ValidationError
from lhvsim.protocols import (
    AlicePrivate,
    CH_ALICE,
    CH_SAMPLER,
    CH_SHARED,
    CHUNK,
    PROTOCOLS,
    ProtocolId,
    SharedDraw,
    TILE,
    TRIT_BITS,
    VECTOR_MESSAGE_BITS,
    BatchResult,
    _aggregate,
    _bit_below_n_of_p,
    _bob_teleportation,
    _choice_and_flip,
    _dots,
    _dots_where,
    _envelope,
    _hemisphere,
    _merge,
    _one_or_two,
    _play_tiles,
    _put,
    _vector_sampler,
    alice_decide,
    bob_decide,
    check_applicable,
    draw_alice_private,
    draw_shared,
    envelope_scans,
    simulate,
    talk_chunk,
)
from lhvsim.sampling import (
    INV_PI,
    NEGATIVE_LIMIT,
    TWO_PI,
    EnvelopeScan,
    ZHemisphere,
    check_bound,
    generator_at,
    improved_one_bit_threshold,
    make_generator,
    n_of_p,
    one_bit_threshold,
    rho_tilde_max_cos,
    sample_uniform_sphere,
    scan_envelopes,
    stream_key,
)
from lhvsim.verify import tvd
from lhvsim.wire import run_networked
from oracles import alice_output_weight, bob_output, eval_rho, same_bytes


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


def choice_and_flip(lam1, lam2, v):
    """(c1, c2, the encoded vector c2 * lam_c1) of the teleportation encoding of v."""
    c1, c2 = _choice_and_flip(dot3(lam1, v), dot3(lam2, v))
    return c1, c2, c2[:, None] * np.where((c1 == 1)[:, None], lam1, lam2)


def max_tvd(result):
    settings = result.settings
    tables = born_tables(result.state, [s.x for s in settings], [s.y for s in settings])
    return max(tvd(s.counts, table) for s, table in zip(settings, tables))


def stream_position(rng):
    """The draws that Philox generator ``rng`` has made from its stream's start."""
    state = rng.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"])


class TestApplicability:
    def test_one_bit_range(self):
        check_applicable(ProtocolId.ONE_BIT, State(0.95))
        check_applicable(ProtocolId.ONE_BIT, State(1.0))
        check_applicable(ProtocolId.ONE_BIT, State(0.9330128))
        with pytest.raises(DomainError, match="0.9330127"):
            check_applicable(ProtocolId.ONE_BIT, State(0.933))
        with pytest.raises(DomainError):
            check_applicable(ProtocolId.ONE_BIT, State(0.6))

    def test_one_bit_domain_agrees_with_its_guard(self):
        # x = lam = (1, 0, 0) peaks one-bit's acceptance 4 pi rhot_x: at
        # threshold - 1e-12 it computes to 1 + 6.9e-12, above the guard, so
        # that p is refused; at the float threshold it computes to 1
        thr = one_bit_threshold()
        with pytest.raises(DomainError, match="0.9330127"):
            check_applicable(ProtocolId.ONE_BIT, State(thr - 1e-12))
        check_applicable(ProtocolId.ONE_BIT, State(thr))
        shared = SharedDraw(
            lam1=np.asfortranarray(X_AXIS[None, :]), lam2=ZHemisphere(np.full((1, 2), 0.5))
        )
        priv = AlicePrivate(u_msg=np.array([0.5]), u_out=np.array([0.5]))
        res = alice_decide(ProtocolId.ONE_BIT, State(thr), X_AXIS, shared, priv)
        assert res.msg.tolist() == [1]  # accepted with probability 1

    def test_one_bit_runs_at_its_threshold(self):
        # the smallest p the domain admits never trips the rule's guard; x on
        # the equator is where the acceptance peaks
        thr = one_bit_threshold()
        pairs = [(X_AXIS, Z_AXIS), (np.array([0.0, 1.0, 0.0]), X_AXIS)]
        res = simulate(ProtocolId.ONE_BIT, State(thr), pairs, 5 * 10**5, seed=24, workers=2)
        assert res.total_rounds == 10**6

    def test_one_bit_admits_its_argmax_at_its_threshold(self):
        # x = (cos t, sin t, 0) and lam = (cos t, -sin t, 0) are an argmax of
        # one-bit's acceptance 4 pi rhot_x, which is 1 there at the threshold
        # in real arithmetic; lam a little off it comes near 1.  The computed
        # peak is 1 + 2u on x86-64, inside RATIO_GUARD, so no DomainError
        thr = one_bit_threshold()
        rng = np.random.default_rng(25)
        top = 0.0
        for t in np.linspace(0.0, 2.0 * np.pi, 721):
            x = np.array([np.cos(t), np.sin(t), 0.0])
            lam = np.array([np.cos(t), -np.sin(t), 0.0])
            lams = lam + np.repeat([0.0, 1e-9, 1e-6], 4)[:, None] * rng.normal(size=(12, 3))
            lams /= np.linalg.norm(lams, axis=1)[:, None]
            m = len(lams)
            shared = SharedDraw(
                lam1=np.asfortranarray(lams), lam2=ZHemisphere(np.full((m, 2), 0.5))
            )
            priv = AlicePrivate(u_msg=np.full(m, 0.5), u_out=np.full(m, 0.5))
            res = alice_decide(ProtocolId.ONE_BIT, State(thr), x, shared, priv)
            assert res.msg[0] == 1  # the argmax is accepted
            coll = collapse(State(thr), x)
            d = protocols._dots(shared.lam1, coll)
            accept = sampling._rho_tilde_dots(State(thr), coll, *d, lams[:, 2]) * (4.0 * np.pi)
            top = max(top, float(accept.max()))
        assert abs(top - 1.0) <= protocols.RATIO_GUARD

    def test_degorre_only_at_half(self):
        check_applicable(ProtocolId.DEGORRE, State(0.5))
        for p in (0.7, np.nextafter(0.5, 1.0)):
            with pytest.raises(DomainError, match="1/2"):
                check_applicable(ProtocolId.DEGORRE, State(p))

    def test_improved_one_bit_threshold(self):
        check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(0.835))
        check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(1.0))
        for p in (0.5, 0.7, 0.834):
            with pytest.raises(DomainError, match="0.83426"):
                check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(p))

    def test_improved_one_bit_domain_agrees_with_its_bit(self):
        # the shared bit talks with probability n_of_p(p): at the float
        # threshold that computes to at most 1, and at the float below it to
        # 1 + 4.4e-16, where the probability would be clipped, so that p is
        # refused
        thr = improved_one_bit_threshold()
        below = math.nextafter(thr, 0.0)
        assert n_of_p(thr) <= 1.0 < n_of_p(below)
        check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(thr))
        with pytest.raises(DomainError, match="0.83426"):
            check_applicable(ProtocolId.IMPROVED_ONE_BIT, State(below))

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
        c1, c2, lam = choice_and_flip(lam1, lam2, v)
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
            _, _, lam = choice_and_flip(lam1, lam2, v)
            p_hat = float(np.mean(dot3(lam, y) >= 0.0))
            assert abs(p_hat - want) < 0.002

    def test_hemisphere_law_statistics_random_pair(self):
        rng = np.random.default_rng(14)
        v, y = random_unit(rng), random_unit(rng)
        g = make_generator(11, 0)
        lam1 = sample_uniform_sphere(g, 10**6)
        lam2 = sample_uniform_sphere(g, 10**6)
        _, _, lam = choice_and_flip(lam1, lam2, v)
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
        bits = np.take(PROTOCOLS[ProtocolId.IMPROVED_ONE_BIT].cost, s.msg_seq)
        assert np.all((bits == 0.0) == (s.msg_seq == 0))
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
        for seq in (s.a_seq, s.b_seq, s.msg_seq, np.take(PROTOCOLS[pid].cost, s.msg_seq)):
            assert seq.shape == (0,)
        assert s.lam_seq.shape == (0, 3)

    def test_rejects_inapplicable_p(self):
        with pytest.raises(DomainError, match="<= p <= 1"):
            simulate(ProtocolId.ONE_BIT, State(0.6), [(X_AXIS, Z_AXIS)], 10, seed=22)

    @pytest.mark.parametrize("workers", [0, -1, "2", 2.5, None, True])
    def test_rejects_workers_that_are_no_count(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)] * 2, 10, 22, workers)

    @pytest.mark.parametrize("run", [simulate, run_networked])
    @pytest.mark.parametrize("rounds", [2.5, True, "100", -1])
    def test_rejects_rounds_that_are_no_count(self, run, rounds):
        # refused before the networked run starts its parties
        with pytest.raises(ValidationError, match="rounds_per_setting must be"):
            run(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], rounds, 22)

    @pytest.mark.parametrize("seed", [2.5, True, -1, 2**64])
    def test_rejects_seeds_that_are_no_u64(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 10, seed)

    def test_accepts_a_numpy_integer_round_count(self):
        res = simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], np.int64(5), 22)
        assert res.rounds_per_setting == 5 and res.total_rounds == 5

    def test_each_pair_is_collapsed_once(self, monkeypatch):
        # a pair's chunks, and its chunks' vector samplers, share its set-up
        calls = []

        def counted(state, x):
            calls.append(x)
            return collapse(state, x)

        monkeypatch.setattr(protocols, "collapse", counted)
        monkeypatch.setattr(sampling, "collapse", counted)
        pairs = default_setting_pairs(3)
        simulate(ProtocolId.LOCAL_CONTENT, State(0.7), pairs, CHUNK + 1, seed=23)
        assert len(calls) == 3

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

    @pytest.mark.parametrize(
        "pid,p,channels",
        [
            (ProtocolId.DEGORRE, 0.5, {CH_SHARED}),  # no private coins
            (ProtocolId.TRIT, 0.7, {CH_SHARED, CH_ALICE}),
            (ProtocolId.LOCAL_CONTENT, 0.7, {CH_SHARED, CH_ALICE, CH_SAMPLER}),
            (ProtocolId.LOCAL_CONTENT, 1.0, {CH_SHARED, CH_ALICE}),  # never talks
        ],
    )
    def test_opens_only_the_streams_it_reads(self, monkeypatch, pid, p, channels):
        # a stream is opened by its seed and path, or named by its key
        opened = []
        for name in ("make_generator", "stream_key"):
            real = getattr(protocols, name)
            monkeypatch.setattr(
                protocols, name,
                lambda seed, *path, real=real: opened.append(path) or real(seed, *path),
            )
        simulate(pid, State(p), [(X_AXIS, Z_AXIS), (Z_AXIS, X_AXIS)], 100, seed=26)
        assert sorted(opened) == sorted((k, ch) for k in range(2) for ch in channels)

    def test_vector_sampler_opens_one_stream_per_chunk(self, monkeypatch):
        opened = []
        real = protocols.make_generator
        monkeypatch.setattr(
            protocols, "make_generator", lambda seed, *path: opened.append(path) or real(seed, *path)
        )
        pairs = [(X_AXIS, Z_AXIS), (Z_AXIS, X_AXIS)]
        simulate(ProtocolId.LOCAL_CONTENT, State(0.7), pairs, 2 * CHUNK + 3, seed=26, workers=2)
        sampler_streams = sorted(path for path in opened if path[1] == CH_SAMPLER)
        assert sampler_streams == sorted(
            (k, CH_SAMPLER) + chunk for k in range(2) for chunk in ((), (1,), (2,))
        )

    def test_a_chunk_opens_each_block_once(self, monkeypatch):
        # tiles read on from the generators their chunk opened
        opened = []
        real = protocols.generator_at
        monkeypatch.setattr(
            protocols, "generator_at", lambda key, at: opened.append(key) or real(key, at)
        )
        simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], CHUNK + TILE + 5, seed=26)
        info = PROTOCOLS[ProtocolId.TRIT]
        assert len(opened) == 2 * (len(info.shared) + len(info.private))  # two chunks

    @pytest.mark.parametrize("pid,p", CASES, ids=CASE_IDS)
    def test_a_pairs_only_chunk_opens_each_stream_once(self, monkeypatch, pid, p):
        # it reads every block, and the envelope, on from one generator per stream
        opened = []
        for module in (protocols, sampling):
            real = module.generator_at
            monkeypatch.setattr(
                module, "generator_at",
                lambda key, at, real=real: opened.append((key, at)) or real(key, at),
            )
        simulate(pid, State(p), [(X_AXIS, Z_AXIS)], CHUNK, seed=26)
        channels = (CH_SHARED, CH_ALICE) if PROTOCOLS[pid].private else (CH_SHARED,)
        assert sorted(opened) == sorted((stream_key(26, 0, ch), 0) for ch in channels)

    @pytest.mark.parametrize("n,lo,hi", [(CHUNK, 0, CHUNK), (3 * CHUNK + 5, CHUNK, 2 * CHUNK)])
    def test_talk_chunk_opens_only_the_bit_block(self, monkeypatch, n, lo, hi):
        # local-content's r follows its hemisphere block of two uniforms per
        # round, which is skipped, not drawn
        opened = []
        real = protocols.generator_at
        monkeypatch.setattr(
            protocols, "generator_at", lambda key, at: opened.append(at) or real(key, at)
        )
        pid, state, key = ProtocolId.LOCAL_CONTENT, State(0.7), stream_key(26, 0, CH_SHARED)
        talk = talk_chunk(pid, state, key, n, lo, hi)
        assert opened == [2 * n + lo]
        monkeypatch.setattr(protocols, "generator_at", real)
        tiles = _play_tiles(pid, state, n, lo, hi, key, None, None, _tile_draws)
        assert np.array_equal(talk, np.concatenate([shared.r for shared, _ in tiles]) == 1)

    @pytest.mark.parametrize("n,lo,hi", [(CHUNK, 0, CHUNK), (3 * CHUNK + 5, CHUNK, 2 * CHUNK),
                                         (3 * CHUNK + 5, 3 * CHUNK, 3 * CHUNK + 5)])
    def test_talk_chunk_equals_the_whole_chunk_read(self, n, lo, hi):
        # r is read TILE rounds at a time from one generator: the rounds of
        # reading the chunk's uniforms at once.  Improved-one-bit's r is its
        # first block; local-content's follows two uniforms per round
        key = stream_key(26, 0, CH_SHARED)
        for pid, p, start, talks in (
            (ProtocolId.IMPROVED_ONE_BIT, 0.9, 0, lambda u: u < n_of_p(0.9)),
            (ProtocolId.LOCAL_CONTENT, 0.7, 2 * n, lambda u: u >= State(0.7).c),
        ):
            want = talks(generator_at(key, start + lo).random(hi - lo))
            got = talk_chunk(pid, State(p), key, n, lo, hi)
            assert got.dtype == bool and np.array_equal(got, want), pid

    def test_talk_chunk_holds_no_chunk_of_uniforms(self):
        # one CHUNK-round call holds its bool result and one tile's uniforms
        # and bits; reading the whole chunk at once held 512 KiB of uniforms
        import tracemalloc

        pid, state, key = ProtocolId.IMPROVED_ONE_BIT, State(0.9), stream_key(26, 0, CH_SHARED)
        talk_chunk(pid, state, key, 3 * CHUNK, CHUNK, 2 * CHUNK)
        tracemalloc.start()
        try:
            talk_chunk(pid, state, key, 3 * CHUNK, CHUNK, 2 * CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK + (8 + 2) * TILE + 2**12

    @pytest.mark.parametrize("pid,p", CASES, ids=CASE_IDS)
    def test_reads_no_os_entropy(self, monkeypatch, pid, p):
        # every stream opens from its seed or its key: a generator seeded from
        # the OS (SeedSequence() with no entropy) would call randbits
        import numpy.random.bit_generator as bit_generator

        def entropy(*args):
            raise AssertionError("a stream read OS entropy")

        monkeypatch.setattr(bit_generator, "randbits", entropy)
        res = simulate(pid, State(p), [(X_AXIS, Z_AXIS)], CHUNK + 5, seed=27, workers=2)
        assert res.total_rounds == CHUNK + 5

    def test_a_chunk_reads_each_envelope_block_once(self, monkeypatch):
        # the envelope is opened once per chunk, through one sampler that reads
        # on from tile to tile, and once per range of the counting pass
        opened, ranges, read = [], [], []
        real_at, real_range = sampling.generator_at, sampling._scan_range
        real_refill = sampling.RhoTildeMaxSampler._refill
        monkeypatch.setattr(
            sampling, "generator_at", lambda key, at: opened.append(at) or real_at(key, at)
        )
        monkeypatch.setattr(
            sampling, "_scan_range", lambda unit: ranges.append(unit) or real_range(unit)
        )

        def refill(sampler, need):
            # the sampler itself, not its id: a later chunk's sampler may reuse
            # the id of a freed one and read the same block
            read.append((sampler, stream_position(sampler.rng)))
            return real_refill(sampler, need)

        monkeypatch.setattr(sampling.RhoTildeMaxSampler, "_refill", refill)
        in_protocols = []
        monkeypatch.setattr(
            protocols, "generator_at", lambda key, at: in_protocols.append(at) or real_at(key, at)
        )
        n = CHUNK + TILE + 5
        res = simulate(ProtocolId.IMPROVED_ONE_BIT, State(0.9), [(X_AXIS, Z_AXIS)], n, seed=26)
        assert res.total_rounds == n
        info = PROTOCOLS[ProtocolId.IMPROVED_ONE_BIT]
        # r and lam2, and the two private blocks, per chunk
        assert len(in_protocols) == 2 * (len(info.shared) - 1 + len(info.private))
        assert len(opened) == 2 + len(ranges)  # two chunks, and the ranges
        assert sorted(opened[len(ranges):]) == sorted(set(opened[len(ranges):]))
        assert len(read) == len(set(read))  # no sampler reads a block twice
        width = 3 * sampling._BLOCK  # uniforms per candidate block
        for sampler in {s for s, _ in read}:
            # block b starts at position n + width * b, after the n shared-bit uniforms
            starts = [at - n for s, at in read if s == sampler]
            assert all(at % width == 0 for at in starts)
            blocks = [at // width for at in starts]
            assert blocks == list(range(blocks[0], blocks[0] + len(blocks)))

    def test_many_pairs_on_few_workers(self):
        # more pairs than workers: the counting pass and the chunks share one
        # pool, and no task waits on it
        import threading

        pairs = default_setting_pairs(3)
        n = CHUNK + TILE + 5
        runs = {}

        def run(w):
            runs[w] = simulate(
                ProtocolId.IMPROVED_ONE_BIT, State(0.9), pairs, n, seed=27, workers=w,
                keep_outcomes=True, keep_lambdas=True,
            )

        for w in (1, 2):
            thread = threading.Thread(target=run, args=(w,), daemon=True)
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive() and w in runs, f"workers={w} did not finish"
        a, b = runs[1], runs[2]
        for sa, sb in zip(a.settings, b.settings):
            assert np.array_equal(sa.counts, sb.counts) and sa.bits_sum == sb.bits_sum
            for name in ("a_seq", "b_seq", "msg_seq", "lam_seq"):
                assert np.array_equal(getattr(sa, name), getattr(sb, name)), name

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
    def test_bob_outputs_the_sign_on_the_committed_vector(self, pid, p):
        # round by round, b = sgn(y . lam) for the vector lam Alice committed to
        res = simulate(
            pid, State(p), default_setting_pairs(2), 3000, seed=46,
            keep_outcomes=True, keep_lambdas=True,
        )
        for s in res.settings:
            assert np.array_equal(s.b_seq, sign_pm(dot3(s.lam_seq, s.y)))

    @pytest.mark.parametrize("pid,p", CASES, ids=CASE_IDS)
    def test_bits_are_the_cost_of_the_symbol(self, pid, p):
        res = simulate(pid, State(p), [(X_AXIS, Z_AXIS)], 2000, seed=45, keep_outcomes=True)
        s = res.settings[0]
        cost = np.asarray(PROTOCOLS[pid].cost)
        assert np.array_equal(np.take(cost, s.msg_seq), cost[s.msg_seq])
        assert s.bits_sum == float(cost[s.msg_seq].sum())
        assert res.worst_bits == float(np.take(cost, s.msg_seq).max())


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
        for name in ("a_seq", "b_seq", "msg_seq", "lam_seq"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        cost = PROTOCOLS[ProtocolId.TRIT].cost
        assert np.array_equal(np.take(cost, a.msg_seq), np.take(cost, b.msg_seq))

    def test_domain_errors(self):
        for pid, seed in (
            (ProtocolId.ONE_BIT, 33),
            (ProtocolId.DEGORRE, 34),
            (ProtocolId.IMPROVED_ONE_BIT, 35),
        ):
            with pytest.raises(DomainError):
                one_round(pid, 0.7, X_AXIS, Z_AXIS, seed)


# three chunks, the last one short (ids as CASE_IDS); two chunks, the second
# ending inside its second tile; and a pair's only chunk
CHUNK_CASES = [
    pytest.param(pid, p, n, id=case_id + suffix)
    for (pid, p), case_id in zip(CASES, CASE_IDS)
    for n, suffix in (
        (2 * CHUNK + 3, ""),
        (CHUNK + TILE + 5, "-tile-tail"),
        (2000, "-one-chunk"),
    )
]


def _reference_draws(pid, state, seed, k, n):
    """Pair k's shared and private n-round draws, read the way simulate does not.

    simulate reads a pair of one chunk in order, from one generator per
    stream, and a pair of more chunks chunk by chunk; the reference reads a
    one-chunk pair in two pieces, each of which opens every block at its own
    position and reads the envelope through a counting pass, and a longer
    pair as one draw.
    """
    if n > CHUNK:
        return (
            draw_shared(pid, state, make_generator(seed, k, CH_SHARED), n),
            draw_alice_private(pid, make_generator(seed, k, CH_ALICE), n),
        )
    key, priv_key = stream_key(seed, k, CH_SHARED), stream_key(seed, k, CH_ALICE)
    scan = None
    if PROTOCOLS[pid].draws_envelope(state):
        scan = EnvelopeScan(state, key, n, n)  # after n shared-bit uniforms
        scan_envelopes([scan])
    draws = [
        draw
        for lo, hi in ((0, n // 2), (n // 2, n))
        for draw in _play_tiles(pid, state, n, lo, hi, key, scan, priv_key, _tile_draws)
    ]
    return _joined([shared for shared, _ in draws]), _joined([priv for _, priv in draws])


def _tile_draws(lo, hi, shared, priv):
    """A ``_play_tiles`` play that keeps the tile's draws."""
    return shared, priv


def _joined(draws):
    """The rows of a list of SharedDraws or AlicePrivates, in order, as one."""
    arrays = {f.name: [getattr(d, f.name) for d in draws] for f in fields(draws[0])}
    return type(draws[0])(**{
        name: None if a[0] is None else np.concatenate([np.asarray(b) for b in a])
        for name, a in arrays.items()
    })


def _rows(draw, lo, hi):
    """Rows [lo, hi) of every array of a SharedDraw or AlicePrivate."""
    arrays = {f.name: getattr(draw, f.name) for f in fields(draw)}
    return type(draw)(**{name: a if a is None else a[lo:hi] for name, a in arrays.items()})


class TestChunking:
    """Chunked runs read the n-round streams in pieces and must equal one
    draw, played chunk by chunk with each chunk's own vector sampler."""

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
            shared, priv = _reference_draws(pid, state, 40, k, n)
            parts = []
            for lo in range(0, n, CHUNK):
                hi = min(lo + CHUNK, n)
                rows = _rows(shared, lo, hi)
                sampler = _vector_sampler(pid, state, x, 40, k, lo)
                ares = alice_decide(pid, state, x, rows, _rows(priv, lo, hi), sampler)
                b = bob_decide(pid, y, rows, ares.msg, ares.payload)
                batch = BatchResult(a=ares.a, b=b, msg=ares.msg, bits=ares.bits, lam=ares.lam)
                parts.append(_aggregate(pid, x, y, batch, True, True))
            want = _merge(parts)
            got = res.settings[k]
            assert got.rounds == want.rounds == n
            assert got.message_rounds == want.message_rounds
            assert got.bits_sum == want.bits_sum
            for name in ("counts", "symbol_counts", "a_seq", "b_seq", "msg_seq", "lam_seq"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            cost = PROTOCOLS[pid].cost
            assert np.array_equal(np.take(cost, got.msg_seq), np.take(cost, want.msg_seq))

    def test_envelope_start_follows_the_shared_layout(self, monkeypatch):
        # with the hemisphere field and r ahead of it, the envelope begins 3n
        # uniforms into the shared stream; the counting pass finds it there
        pid, state, n = ProtocolId.IMPROVED_ONE_BIT, State(0.9), CHUNK + TILE + 5
        shared = (("lam2", _hemisphere), ("r", _bit_below_n_of_p), ("lam1", _envelope))
        monkeypatch.setitem(PROTOCOLS, pid, replace(PROTOCOLS[pid], shared=shared))
        x, y = default_setting_pairs(1)[0]
        got = simulate(pid, state, [(x, y)], n, seed=48, keep_outcomes=True).settings[0]
        rows = draw_shared(pid, state, make_generator(48, 0, CH_SHARED), n)
        priv = draw_alice_private(pid, make_generator(48, 0, CH_ALICE), n)
        ares = alice_decide(pid, state, x, rows, priv)
        b = bob_decide(pid, y, rows, ares.msg)
        assert np.array_equal(got.a_seq, ares.a)
        assert np.array_equal(got.b_seq, b)
        assert np.array_equal(got.msg_seq, ares.msg)

    @pytest.mark.parametrize("pid,p", CASES, ids=CASE_IDS)
    def test_play_tiles_reads_the_whole_draw_in_tiles(self, pid, p):
        # a pair of more than one chunk is played in tiles of at most TILE
        # rounds, each drawn with the rows of the n-round draws
        state, n = State(p), CHUNK + TILE + 5
        key, priv_key = stream_key(42, 0, CH_SHARED), stream_key(42, 0, CH_ALICE)
        shared = draw_shared(pid, state, make_generator(42, 0, CH_SHARED), n)
        priv = draw_alice_private(pid, make_generator(42, 0, CH_ALICE), n)
        (scan,) = envelope_scans(pid, state, [key], n)
        chunks = ((0, CHUNK), (CHUNK, n))
        tiles = [
            tile
            for lo, hi in chunks
            for tile in _play_tiles(pid, state, n, lo, hi, key, scan, priv_key, lambda *t: t)
        ]
        assert [(a, b) for a, b, *_ in tiles] == [
            (a, min(a + TILE, hi)) for lo, hi in chunks for a in range(lo, hi, TILE)
        ]
        for a, b, got_shared, got_priv in tiles:
            assert b - a <= TILE
            for want, got in ((_rows(shared, a, b), got_shared), (_rows(priv, a, b), got_priv)):
                for f in fields(want):
                    w, g = getattr(want, f.name), getattr(got, f.name)
                    assert (g is None) if w is None else np.array_equal(np.asarray(g), w), f.name

    @staticmethod
    def _traced_peak(pid, p, workers=1):
        """The traced memory peak of a one-pair 10^6-round run.  A small run of
        two chunks goes first, so the modules that a run imports on first use
        (about 0.7 MiB) are loaded before tracing starts, whichever tests ran
        before."""
        import tracemalloc

        simulate(pid, State(p), default_setting_pairs(1), CHUNK + 1, seed=41, workers=workers)
        tracemalloc.start()
        try:
            simulate(pid, State(p), default_setting_pairs(1), 10**6, seed=41, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_trit_memory_is_bounded(self):
        # one 10^6-round draw held about 200 MiB, one whole chunk about 9 MiB;
        # one tile holds under 3 MiB
        assert self._traced_peak(ProtocolId.TRIT, 0.7) < 4 * 2**20

    def test_improved_one_bit_memory_is_bounded(self):
        # the envelope's accept bits (about 0.2 MiB) and one tile
        assert self._traced_peak(ProtocolId.IMPROVED_ONE_BIT, 0.9) < 4 * 2**20

    @pytest.mark.parametrize("p,workers", [(0.99, 1), (0.9, 2), (0.99, 2)])
    def test_improved_one_bit_memory_is_bounded_per_worker(self, p, workers):
        # the counting pass is longest near p = 1 (about 0.5 MiB of bits at
        # 0.99); its ranges run on the workers, and each worker holds one tile
        peak = self._traced_peak(ProtocolId.IMPROVED_ONE_BIT, p, workers)
        assert peak < workers * 4 * 2**20

    def test_trit_guard_regression(self):
        # at x_z = 0 the trit bound is tight where |lam.v| -> 0; a ratio test
        # with slack 1e-12 raised here at round 756533, where |lam.v| = 2.5e-4
        res = simulate(
            ProtocolId.TRIT, State(0.7), default_setting_pairs(1), 4_000_000, seed=1,
            workers=2,
        )
        assert res.total_rounds == 4_000_000
        assert max_tvd(res) < 0.003


def crafted_masks():
    rng = np.random.default_rng(60)
    return [rng.random(1000) < 0.5, np.ones(5, bool), np.zeros(5, bool), np.zeros(0, bool)]


# Reference forms of the hot kernels and rules: plain expressions, masked
# copies and boolean gathers.  Each kernel does the same IEEE operations in
# fewer passes, so it must equal its form byte for byte.


def rho_tilde_dots_form(state, coll, dp, dm, lz, clamp=True):
    raw = (coll.p_plus * theta(dp) + coll.p_minus * theta(dm)) * INV_PI - state.c * theta(
        lz
    ) * INV_PI
    low = float(np.min(raw, initial=0.0))
    if low < -NEGATIVE_LIMIT:
        raise InternalConsistencyError(f"rho_tilde evaluated to {low}")
    return np.maximum(raw, 0.0) if clamp else raw


def rho_tilde_max_cos_form(state, cos_theta):
    p = state.p if isinstance(state, State) else float(state)
    c = np.asarray(cos_theta, dtype=float)
    big_c = 2.0 * p - 1.0
    if p >= 1.0:
        return np.zeros_like(c)
    sin2 = 1.0 - c * c
    return (
        (1.0 - big_c * big_c)
        / (np.sqrt(1.0 - big_c * big_c * sin2) + big_c * np.abs(c))
        / TWO_PI
    )


def weight_given_form(coll, dp, dm):
    num = coll.p_plus * theta(dp)
    den = num + coll.p_minus * theta(dm)
    if np.any(den <= 0.0):
        raise InternalConsistencyError("rho_x(lam) = 0")
    return np.clip(num / den, 0.0, 1.0)


def select_form(mask, if_true, if_false):
    for a, b in zip(if_true, if_false):
        np.copyto(b, a, where=mask)
    return if_false


def output_form(coll, dp, dm, priv):
    return pm(priv.u_out < weight_given_form(coll, dp, dm))


def alice_one_bit_form(state, coll, shared, priv, sampler):
    d1 = _dots(shared.lam1, coll)
    accept = (4.0 * np.pi) * rho_tilde_dots_form(state, coll, *d1, shared.lam1[:, 2])
    if float(np.max(accept, initial=0.0)) > 1.0 + protocols.RATIO_GUARD:
        raise DomainError("one-bit acceptance probability above 1")
    use1 = priv.u_msg < np.minimum(accept, 1.0)
    d = _dots_where(~use1, d1, shared.lam2, coll)
    return output_form(coll, *d, priv), _one_or_two(use1), None


def alice_trit_form(state, coll, shared, priv, sampler):
    d1, d2 = _dots(shared.lam1, coll), _dots(shared.lam2, coll)
    k = 0 if coll.p_plus <= 0.5 else 1
    abs1, d_c = np.abs(d1[k]), np.abs(d2[k])
    first = abs1 >= d_c
    c = _one_or_two(first)
    np.copyto(d_c, abs1, where=first)
    d = select_form(first, d1, d2)
    rt = rho_tilde_dots_form(
        state, coll, *d, np.where(first, shared.lam1[:, 2], shared.lam2[:, 2])
    )
    check_bound(rt * (2.0 * np.pi), d_c, "trit choice density")
    ratio = np.zeros(shared.rounds)
    pos = d_c > 0.0
    ratio[pos] = rt[pos] / (d_c[pos] / (2.0 * np.pi))
    keep = priv.u_msg < np.minimum(ratio, 1.0)
    msg = np.where(keep, c, np.uint8(3))
    d = _dots_where(~keep, d, shared.lam3, coll)
    return output_form(coll, *d, priv), msg, None


def alice_teleportation_form(state, coll, shared, priv, sampler):
    a = pm(priv.u_out < coll.p_plus)
    plus = a == 1
    dp1, d1 = _dots(shared.lam1, coll)
    dp2, d2 = _dots(shared.lam2, coll)
    np.copyto(d1, dp1, where=plus)
    np.copyto(d2, dp2, where=plus)
    c1, c2 = _choice_and_flip(d1, d2)
    return a, 2 * (c1 - 1) + (c2 == -1) + 1, None


def alice_improved_one_bit_form(state, coll, shared, priv, sampler):
    talk = shared.r == 1
    d1 = _dots(shared.lam1, coll)
    ratio = np.zeros(shared.rounds)
    if np.any(talk):
        lz = shared.lam1[talk, 2]
        rt = rho_tilde_dots_form(state, coll, d1[0][talk], d1[1][talk], lz)
        rmax = rho_tilde_max_cos_form(state, lz)
        check_bound(rt * np.pi, rmax * np.pi, "improved one-bit envelope")
        ratio[talk] = rt / rmax
    use1 = talk & (priv.u_msg < np.minimum(ratio, 1.0))
    d = _dots_where(~use1, d1, shared.lam2, coll)
    msg = talk.view(np.uint8) * _one_or_two(use1)
    return output_form(coll, *d, priv), msg, None


def bob_trit_form(shared, msg, payload, f):
    d = f(shared.lam2)
    np.copyto(d, f(shared.lam1), where=msg == 1)
    return _put(d, msg == 3, shared.lam3, f)


RULE_FORMS = [
    (ProtocolId.ONE_BIT, 0.95, protocols._alice_one_bit, alice_one_bit_form),
    (ProtocolId.ONE_BIT, 1.0, protocols._alice_one_bit, alice_one_bit_form),
    (ProtocolId.TRIT, 0.5, protocols._alice_trit, alice_trit_form),
    (ProtocolId.TRIT, 0.7, protocols._alice_trit, alice_trit_form),
    (ProtocolId.TRIT, 1.0, protocols._alice_trit, alice_trit_form),
    (ProtocolId.TELEPORTATION, 0.7, protocols._alice_teleportation, alice_teleportation_form),
    (ProtocolId.TELEPORTATION, 1.0, protocols._alice_teleportation, alice_teleportation_form),
    (ProtocolId.IMPROVED_ONE_BIT, 0.84, protocols._alice_improved_one_bit,
     alice_improved_one_bit_form),
    (ProtocolId.IMPROVED_ONE_BIT, 0.9, protocols._alice_improved_one_bit,
     alice_improved_one_bit_form),
    (ProtocolId.IMPROVED_ONE_BIT, 1.0, protocols._alice_improved_one_bit,
     alice_improved_one_bit_form),
]

# signed zeros, subnormals and infinities, then random values
CRAFTED = np.concatenate(
    [[0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.0, -1.0],
     np.random.default_rng(63).normal(size=1000)]
)


def outcome(f, *args):
    """f(*args) as a tuple of arrays, or the type of the error it raises."""
    try:
        got = f(*args)
    except (InternalConsistencyError, DomainError) as exc:
        return type(exc)
    return got if isinstance(got, tuple) else (got,)


def same_outcome(got, want):
    if not isinstance(want, tuple) or not isinstance(got, tuple):
        return got is want
    return len(got) == len(want) and all(
        (g is None and w is None) or same_bytes(g, w) for g, w in zip(got, want)
    )


def crafted_shared(pid, state, x, n=3000, seed=64):
    """An n-round shared draw whose first rows are crafted against x's v_+-:
    vectors at right angles to both (|lam.v| = 0, signed zeros), ties
    |lam1.v| = |lam2.v| with either sign, and lam_z = -0.0."""
    shared = draw_shared(pid, state, make_generator(seed, 0, CH_SHARED), n)
    coll = collapse(state, x)
    w = np.cross(coll.v_plus, coll.v_minus)  # at right angles to both
    if np.linalg.norm(w) < 1e-6:  # v_- = -v_+
        w = np.cross(coll.v_plus, X_AXIS if abs(coll.v_plus[0]) < 0.9 else Z_AXIS)
    w /= np.linalg.norm(w)
    crafted = [w, -w]
    for v in (coll.v_plus, coll.v_minus):
        crafted.append(np.cross(v, w) / np.linalg.norm(np.cross(v, w)))
    crafted += [[1.0, 0.0, -0.0], [0.0, -1.0, -0.0], [-0.0, 0.0, 1.0], [0.6, -0.0, -0.8]]
    crafted = np.array(crafted)
    rng = np.random.default_rng(seed)
    # rows against drawn ones (a hemisphere field is not crafted), exact
    # ties and ties of the other sign
    blocks = {
        "lam1": [crafted, crafted, crafted],
        "lam2": [rng.permutation(crafted), crafted, -crafted],
    }
    for name, rows in blocks.items():
        lam = getattr(shared, name)
        if isinstance(lam, np.ndarray) and lam.flags.writeable:
            lam[: 3 * len(crafted)] = np.vstack(rows)
    return shared


def crafted_private(pid, n=3000, seed=65):
    priv = draw_alice_private(pid, make_generator(seed, 0, CH_ALICE), n)
    for name in PROTOCOLS[pid].private:
        u = getattr(priv, name)
        u[:6] = [0.0, 0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 0.0]
    return priv


class TestByteExactForms:
    """The symbol and sign forms of the rules equal their ``np.where`` forms,
    and each in-place kernel and rule equals its reference form above."""

    def test_one_or_two(self):
        for mask in crafted_masks() + [np.array(True), np.array(False)]:
            got, want = _one_or_two(mask), np.where(mask, 1, 2).astype(np.uint8)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_silent_and_trit_symbols(self):
        for talk in crafted_masks():
            rng = np.random.default_rng(talk.size)
            use1 = talk & (rng.random(talk.size) < 0.5)
            # improved one-bit's msg and trit's msg, as the rules write them
            forms = (
                (talk.view(np.uint8) * _one_or_two(use1),
                 np.where(talk, np.where(use1, 1, 2), 0).astype(np.uint8)),
                (np.where(talk, _one_or_two(use1), np.uint8(3)),
                 np.where(talk, _one_or_two(use1), 3).astype(np.uint8)),
            )
            for got, want in forms:
                assert got.dtype == want.dtype == np.uint8
                assert np.array_equal(got, want)

    def test_teleportation_sign(self):
        # lam rows (t, -0, -0) give y.lam = t exactly for y = x, signed zeros included
        t = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 0.5, -0.5])
        t1, t2 = np.repeat(t, 4), np.tile(t, 4)

        def rows(v):
            return np.column_stack([v, np.full_like(v, -0.0), np.full_like(v, -0.0)])

        msg = np.tile(np.arange(1, 5, dtype=np.uint8), len(t))
        shared = SharedDraw(rows(t1), rows(t2))
        got = _bob_teleportation(shared, msg, None, partial(dot3, b=X_AXIS))
        want = np.where(msg <= 2, t1, t2) * np.where(msg % 2 == 1, 1.0, -1.0)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("pid,p,rule,form", RULE_FORMS,
                             ids=[f"{pid.value}-p{p}" for pid, p, _, _ in RULE_FORMS])
    def test_rules_keep_their_forms(self, pid, p, rule, form):
        state = State(p)
        xs = [Z_AXIS, X_AXIS, -Z_AXIS, np.array([0.6, 0.0, 0.8])]
        xs += [x for x, _ in default_setting_pairs(3)]
        for x in xs:
            coll = collapse(state, x)
            args = [(state, coll, crafted_shared(pid, state, x), crafted_private(pid), None)
                    for _ in range(2)]
            want = outcome(form, *args[0])
            assert isinstance(want, tuple), (x, want)  # the crafted rows are no error
            assert same_outcome(outcome(rule, *args[1]), want), x

    @pytest.mark.parametrize("p", [0.5, 0.7, 1.0])
    def test_bob_trit_keeps_its_form(self, p):
        state, rng = State(p), np.random.default_rng(66)
        for y in (Z_AXIS, X_AXIS, default_setting_pairs(2)[1][1]):
            shared = crafted_shared(ProtocolId.TRIT, state, y)
            msg = rng.integers(1, 4, shared.rounds).astype(np.uint8)
            for f in (partial(dot3, b=y), protocols._coordinates):
                want = bob_trit_form(shared, msg, None, f)
                assert same_bytes(protocols._bob_trit(shared, msg, None, f), want)

    def test_select(self):
        rng = np.random.default_rng(67)
        for mask in crafted_masks():
            m = mask.size
            a = (CRAFTED[:m].copy(), -CRAFTED[:m])
            b = (rng.normal(size=m), CRAFTED[::-1][:m].copy())
            want = select_form(mask, a, tuple(x.copy() for x in b))
            got = protocols._select(mask, a, b)
            assert all(same_bytes(g, w) for g, w in zip(got, want))

    def test_trit_choice_forms(self):
        # |lam_c.v| as a maximum, and the ratio as a divide where d_c > 0,
        # with ties of either sign, zeros of both signs and subnormal d_c
        d1 = np.concatenate([CRAFTED, CRAFTED, -CRAFTED[::-1]])
        d2 = np.concatenate([CRAFTED, -CRAFTED, CRAFTED])
        abs1, abs2 = np.abs(d1), np.abs(d2)
        first = abs1 >= abs2
        want = abs2.copy()
        np.copyto(want, abs1, where=first)
        d_c = np.maximum(abs1, abs2)
        assert same_bytes(d_c, want)
        rt = np.abs(CRAFTED[np.arange(d_c.size) % 7]) * 1e-3
        ratio = np.zeros(d_c.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            pos = d_c > 0.0
            ratio[pos] = rt[pos] / (d_c[pos] / (2.0 * np.pi))
            got = np.divide(rt, d_c / (2.0 * np.pi), out=np.zeros(d_c.size), where=pos)
        assert same_bytes(got, ratio)

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.95, 1.0])
    def test_rho_tilde_dots(self, p):
        state, rng = State(p), np.random.default_rng(68)
        for x in (Z_AXIS, X_AXIS, np.array([0.6, 0.0, 0.8])):
            coll = collapse(state, x)
            lam = sample_uniform_sphere(rng, 2000)
            dp, dm = dot3(lam, coll.v_plus), dot3(lam, coll.v_minus)
            lz = lam[:, 2]
            cases = [
                (dp, dm, lz),
                (dp[::-3], dm[::-3], lz[::-3]),  # strided
                (np.abs(CRAFTED), -CRAFTED, -np.abs(CRAFTED)),  # signed zeros, no error
                (CRAFTED, CRAFTED, np.abs(CRAFTED) + 1.0),  # an error where p > 1/2
                (float(dp[0]), float(dm[0]), float(lz[0])),  # Python floats
                (np.array(dp[1]), np.array(dm[1]), np.array(lz[1])),  # 0-d
                (dp[2], dm[2], lz[2]),  # numpy scalars
                (0.0, -0.0, -0.0),
            ]
            with np.errstate(invalid="ignore"):
                for args in cases:
                    for clamp in (True, False):
                        want = outcome(rho_tilde_dots_form, state, coll, *args, clamp)
                        got = outcome(sampling._rho_tilde_dots, state, coll, *args, clamp)
                        assert same_outcome(got, want), (args, clamp)
                        if isinstance(want, tuple):
                            assert isinstance(got[0], np.ndarray) == isinstance(
                                want[0], np.ndarray
                            )

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9, 0.999, 1.0])
    def test_rho_tilde_max_cos(self, p):
        c = np.concatenate([CRAFTED, np.linspace(-1.0, 1.0, 101)])
        inputs = [c, c[::-3], np.asfortranarray(np.column_stack([c, c]))[:, 1], 0.3, -0.0,
                  1.0, np.array(0.25), np.float64(-0.5), [0.1, -0.2]]
        with np.errstate(invalid="ignore"):
            for state in (State(p), p):
                for arg in inputs:
                    got = rho_tilde_max_cos(state, arg)
                    want = rho_tilde_max_cos_form(state, arg)
                    assert same_bytes(got, want), arg
                    assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray), arg

    @pytest.mark.parametrize("p", [0.5, 0.84, 0.9, 0.999])
    def test_envelope_accept_test(self, p):
        sampler = sampling.RhoTildeMaxSampler(State(p), make_generator(69, 0))
        u = make_generator(69, 1).random((sampling._BLOCK, 3))
        u[:6] = [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [5e-324, 0.2, 5e-324],
                 [1.0 - 2.0**-53, 0.7, 0.5], [0.25, 0.0, 1.0 - 2.0**-53], [0.75, 1.0, 0.9]]
        ratio = rho_tilde_max_cos_form(sampler.state, 2.0 * u[:, 0] - 1.0) / sampler.bound
        # accept uniforms on the ratio and one ulp either side, so a ratio
        # rounded another way changes some accept bit
        for k, towards in enumerate((ratio, np.zeros_like(ratio), np.ones_like(ratio))):
            rows = slice(6 + k, 3000, 3)
            u[rows, 2] = np.nextafter(ratio[rows], towards[rows])
        want = u[:, 2] < ratio
        assert same_bytes(sampler._keep(u), want)
        assert same_bytes(sampler._keep(u[::-2]), want[::-2])  # strided rows

    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_weight_given(self, p):
        state = State(p)
        for x in (Z_AXIS, X_AXIS, np.array([0.6, 0.0, 0.8])):
            coll = collapse(state, x)
            cases = [
                (CRAFTED, 1.0 - CRAFTED),  # signed zeros, infinities, no error
                (CRAFTED[::-3], 1.0 - CRAFTED[::-3]),  # strided
                (CRAFTED, -np.abs(CRAFTED)),  # rho_x = 0 where CRAFTED <= 0: an error
                (0.3, -0.2), (-0.0, 0.5), (0.0, 0.0),  # Python floats, one an error
                (np.array(0.25), np.array(-0.0)),  # 0-d
                (np.float64(0.7), np.float64(0.1)),
            ]
            with np.errstate(invalid="ignore"):
                for dp, dm in cases:
                    want = outcome(weight_given_form, coll, dp, dm)
                    got = outcome(protocols._weight_given, coll, dp, dm)
                    assert same_outcome(got, want), (dp, dm)
                    if isinstance(want, tuple):
                        assert isinstance(got[0], np.ndarray) == isinstance(want[0], np.ndarray)

    @pytest.mark.parametrize("pid,p", CASES, ids=CASE_IDS)
    def test_draws_are_column_major(self, pid, p):
        state, x = State(p), default_setting_pairs(1)[0][0]
        key = stream_key(61, 0, CH_SHARED)
        for n, lo in ((5000, 0), (CHUNK + 7, CHUNK)):
            (scan,) = envelope_scans(pid, state, [key], n)
            sampler = _vector_sampler(pid, state, x, 61, 0, lo)

            def check(t_lo, t_hi, shared, priv):
                for name in ("lam1", "lam2", "lam3"):
                    lam = getattr(shared, name)
                    assert lam is None or np.asarray(lam).flags.f_contiguous, (n, name)
                res = alice_decide(pid, state, x, shared, priv, sampler)
                assert res.a.dtype == np.int8 and res.msg.dtype == np.uint8
                if res.payload is not None:
                    assert res.payload.shape[0] > 1 and res.payload.flags.f_contiguous

            priv_key = stream_key(61, 0, CH_ALICE)
            assert len(_play_tiles(pid, state, n, lo, n, key, scan, priv_key, check)) == 1


class TestHemisphereRows:
    """A hemisphere field serves the constant part of rho_x, so its vectors
    are read, and built, only in the rounds that agree on it: a 2p-1 share.
    Alice's rule, Bob's rule and Alice's commit all read them, and each row
    is still built once."""

    @staticmethod
    def _reads(field, symbols):
        """Which rounds read ``field``, from their symbols."""
        return {"lam1": symbols == 0, "lam2": symbols != 1, "lam3": symbols == 3}[field]

    @pytest.mark.parametrize("n", [5000, CHUNK + TILE + 5])
    @pytest.mark.parametrize(
        "pid,p,field",
        [
            (ProtocolId.TRIT, 0.5, "lam3"),
            (ProtocolId.LOCAL_CONTENT, 0.5, "lam1"),
            (ProtocolId.TRIT, 0.7, "lam3"),
            (ProtocolId.ONE_BIT, 0.95, "lam2"),
            (ProtocolId.IMPROVED_ONE_BIT, 0.9, "lam2"),
            (ProtocolId.IMPROVED_ONE_BIT, 1.0, "lam2"),
            (ProtocolId.LOCAL_CONTENT, 0.7, "lam1"),
        ],
    )
    def test_built_once_where_read(self, monkeypatch, pid, p, field, n):
        built = []  # lam_z of every row the builder builds, in order
        build = sampling._hemisphere_points

        def counting(c_u, phi_u):
            lam = build(c_u, phi_u)
            built.append(lam[:, 2].copy())
            return lam

        monkeypatch.setattr(sampling, "_hemisphere_points", counting)
        state = State(p)
        res = simulate(
            pid, state, default_setting_pairs(1), n, seed=71,
            keep_outcomes=True, keep_lambdas=True,
        )
        reads = self._reads(field, res.settings[0].msg_seq)
        if p == 0.5:
            assert not reads.any()
        got = np.concatenate([np.zeros(0)] + built)
        shared = draw_shared(pid, state, make_generator(71, 0, CH_SHARED), n)
        assert np.array_equal(got, np.asarray(getattr(shared, field))[reads, 2])
