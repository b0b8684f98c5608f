"""Tests for the spherical samplers and densities.

Statistical checks run at fixed seeds with tolerances wide enough that a
correct implementation passes deterministically; analytic references are
computed in-test (moment integrals, quadrature of the density formulas).
"""

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from lhvsim import sampling
from lhvsim.bloch import State, Z_AXIS, collapse, dot3, sign_pm, theta
from lhvsim.errors import DomainError, InternalConsistencyError
from lhvsim.protocols import CHUNK, TILE, _choice_and_flip
from lhvsim.sampling import (
    BOUND_ATOL,
    EnvelopeScan,
    _frame,
    _sphere_points,
    RhoTildeMaxSampler,
    RhoTildeSampler,
    ZHemisphere,
    check_bound,
    eval_rho_tilde,
    eval_rho_tilde_max,
    improved_one_bit_threshold,
    generator_at,
    make_generator,
    n_of_p,
    one_bit_threshold,
    rho_tilde_bound,
    rho_tilde_max_cos,
    sample_theta_hemisphere,
    sample_uniform_sphere,
    scan_envelopes,
    stream_key,
)
from oracles import eval_rho, n_of_p_quadrature, rho_tilde_cos_marginal

M = 10**6


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestStreams:
    def test_same_key_same_sequence(self):
        a = make_generator(1, 0).random(100)
        b = make_generator(1, 0).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_generator(1, 0).random(100)
        b = make_generator(1, 1).random(100)
        c = make_generator(2, 0).random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draw_granularity_invariant(self):
        g1 = make_generator(9, 4)
        g2 = make_generator(9, 4)
        a = g1.random(64)
        b = np.concatenate([g2.random(17), g2.random(3), g2.random(44)])
        assert np.array_equal(a, b)


class TestUniformSphere:
    def test_moments(self):
        lam = sample_uniform_sphere(make_generator(1, 0), M)
        assert np.max(np.abs(lam.mean(axis=0))) < 0.005
        assert abs((lam[:, 2] ** 2).mean() - 1.0 / 3.0) < 0.005

    def test_unit_norm(self):
        lam = sample_uniform_sphere(make_generator(2, 0), 1000)
        np.testing.assert_allclose(np.linalg.norm(lam, axis=1), 1.0, atol=1e-12)

    def test_cos_marginal_ks(self):
        lam = sample_uniform_sphere(make_generator(3, 0), M)
        d = stats.kstest(lam[:, 2], lambda c: (1.0 + c) / 2.0).statistic
        assert d < 2.0 / np.sqrt(M)


class TestThetaHemisphere:
    def test_support_is_hemisphere(self):
        lam = sample_theta_hemisphere(make_generator(4, 0), Z_AXIS, M)
        assert np.all(lam[:, 2] >= 0.0)

    def test_mean_cos_is_two_thirds(self):
        # E[c] with density 2c on [0,1] is int 2c*c dc = 2/3
        lam = sample_theta_hemisphere(make_generator(5, 0), Z_AXIS, M)
        assert abs(lam[:, 2].mean() - 2.0 / 3.0) < 0.005

    def test_cos_marginal_ks(self):
        rng = np.random.default_rng(55)
        v = random_unit(rng)
        lam = sample_theta_hemisphere(make_generator(6, 0), v, M)
        d = stats.kstest(dot3(lam, v), lambda c: np.clip(c, 0.0, 1.0) ** 2).statistic
        assert d < 2.0 / np.sqrt(M)

    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_z_axis_rows_equal_frame_formula(self, n):
        got = sample_theta_hemisphere(make_generator(12, 3), Z_AXIS, n)
        want = frame_hemisphere(make_generator(12, 3), Z_AXIS, n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_z_axis_signed_zeros_equal_frame_formula(self):
        # c = 1 gives s = 0, so s sin(phi) and s cos(phi) are zeros whose sign
        # follows sin and cos; phi at each quadrant boundary and in each quadrant
        zs = np.array([0.0, 0.25, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        phis = np.array([0.0, 0.5, 0.0, 0.25, 0.5, 0.75, 0.1, 0.4, 0.9])
        u = np.column_stack([zs, phis])
        got = sample_theta_hemisphere(FixedUniforms(u), Z_AXIS, len(u))
        want = frame_hemisphere(FixedUniforms(u), Z_AXIS, len(u))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.any(np.signbit(got[2:, :2]) & (got[2:, :2] == 0.0))

    def test_qubit_statistics(self):
        # feeding draws to b = sgn(y.lam) reproduces p(b=+1) = (1 + y.v)/2
        rng = np.random.default_rng(66)
        v, y = random_unit(rng), random_unit(rng)
        lam = sample_theta_hemisphere(make_generator(7, 0), v, M)
        p_hat = float(np.mean(sign_pm(dot3(lam, y)) == 1))
        assert abs(p_hat - (1.0 + y @ v) / 2.0) < 0.005


class TestColumnMajor:
    """Every draw is an (n, 3) array stored column by column."""

    @pytest.mark.parametrize("n", [7, 5000])
    def test_draws(self, n):
        rng = np.random.default_rng(67)
        v, x = random_unit(rng), random_unit(rng)
        scan = EnvelopeScan(State(0.7), stream_key(13, 1), 0, n)
        scan_envelopes([scan])
        draws = {
            "uniform": sample_uniform_sphere(make_generator(13, 0), n),
            "hemisphere z": sample_theta_hemisphere(make_generator(13, 0), Z_AXIS, n),
            "hemisphere v": sample_theta_hemisphere(make_generator(13, 0), v, n),
            "envelope": RhoTildeMaxSampler(State(0.7), make_generator(13, 1)).draw(n),
            "envelope scan": scan.sampler(0).draw(n),
            "envelope scan piece": scan.sampler(1).draw(n - 1),
            "rhot_x": RhoTildeSampler(State(0.7), x, make_generator(13, 2)).draw(n),
        }
        for name, lam in draws.items():
            assert lam.shape[1:] == (3,) and lam.flags.f_contiguous, name

    def test_sampler_buffers(self):
        # what a draw leaves in a buffer keeps contiguous columns
        for sampler in (
            RhoTildeMaxSampler(State(0.7), make_generator(13, 3)),
            RhoTildeSampler(State(0.7), Z_AXIS, make_generator(13, 3)),
        ):
            sampler.draw(5)
            assert sampler._buffer.shape[0] > sampler._used and sampler._buffer.strides[0] == 8
            assert sampler.draw(1000).flags.f_contiguous


class FixedUniforms:
    """A stand-in generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert self.u.shape == shape
        return self.u


class TestZHemisphere:
    """The lazily built hemisphere field gives the rows, signed zeros included,
    that ``sample_theta_hemisphere`` builds from the same uniforms."""

    @staticmethod
    def same(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n", [0, 1, 7, 5000])
    def test_rows_equal_the_sampler(self, n):
        lam = ZHemisphere(make_generator(70, 2).random((n, 2)))
        want = sample_theta_hemisphere(make_generator(70, 2), Z_AXIS, n)
        subset = np.random.default_rng(n).random(n) < 0.4
        self.same(lam[np.flatnonzero(subset)], want[subset])
        self.same(lam[np.arange(0)], want[:0])
        self.same(lam[np.arange(n)], want)
        self.same(lam[n // 3 : n - 1], want[n // 3 : n - 1])
        full = np.asarray(lam)
        self.same(full, want)
        assert full.flags.f_contiguous

    def test_built_rows_are_read_only(self):
        # the field hands out the rows it keeps, so a write must fail, not
        # change what the next reader of those rows gets
        lam = ZHemisphere(make_generator(70, 2).random((9, 2)))
        for rows in (lam[np.arange(0, 9, 2)], lam.all(), np.asarray(lam)):
            with pytest.raises(ValueError):
                rows[0, 0] = 2.0

    def test_a_mask_is_no_row_numbers(self):
        lam = ZHemisphere(make_generator(70, 2).random((4, 2)))
        with pytest.raises(TypeError):
            lam[np.ones(4, dtype=bool)]

    def test_signed_zeros_equal_the_sampler(self):
        # the uniforms of test_z_axis_signed_zeros_equal_frame_formula
        zs = np.array([0.0, 0.25, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        phis = np.array([0.0, 0.5, 0.0, 0.25, 0.5, 0.75, 0.1, 0.4, 0.9])
        u = np.column_stack([zs, phis])
        want = sample_theta_hemisphere(FixedUniforms(u), Z_AXIS, len(u))
        for rows in (np.arange(1, len(u), 2), np.arange(len(u))):
            self.same(ZHemisphere(u)[rows], want[rows])


def frame_hemisphere(rng, v, n):
    """The hemisphere law written out in the frame of ``_frame``, term by term."""
    u = rng.random((n, 2))
    c = np.sqrt(u[:, 0])
    phi = 2.0 * np.pi * u[:, 1]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    e1, e2 = _frame(v)
    s_cos, s_sin = s * np.cos(phi), s * np.sin(phi)
    out = np.column_stack([c * v[j] + s_cos * e1[j] + s_sin * e2[j] for j in range(3)])
    return out


def block_thinning(state, x, rng, sizes, block=8192):
    """RhoTildeSampler written block-wide: every candidate of a block is
    built and tested as soon as the block is read.  Returns each draw of
    ``sizes`` in turn and the number of candidates tested."""
    bound = rho_tilde_bound(state)
    envelope, kept, tested, out = [], [], 0, []

    def take(buf, k):
        stacked = np.concatenate(buf) if buf else np.zeros((0, 3))
        buf[:] = [stacked[k:]]
        return stacked[:k]

    for size in sizes:
        while sum(len(b) for b in kept) < size:
            while sum(len(b) for b in envelope) < block:
                u = rng.random((block, 3))
                keep = u[:, 2] < rho_tilde_max_cos(state, 2.0 * u[:, 0] - 1.0) / bound
                envelope.append(_sphere_points(u[keep, 0], u[keep, 1]))
            cand = take(envelope, block)
            thin = rng.random(block)
            ratio = eval_rho_tilde(state, x, cand) / eval_rho_tilde_max(state, cand)
            kept.append(cand[thin < ratio])
            tested += block
        out.append(take(kept, size))
    return out, tested


def degorre_choice(rng, v, n):
    """Choice-of-two draw: (chosen, c, lam1, lam2), chosen unflipped."""
    lam1 = sample_uniform_sphere(rng, n)
    lam2 = sample_uniform_sphere(rng, n)
    c, _ = _choice_and_flip(dot3(lam1, v), dot3(lam2, v))
    return np.where((c == 1)[:, None], lam1, lam2), c, lam1, lam2


class TestDegorreChoice:
    def test_mean_abs_cos(self):
        # density |c| on [-1,1]: E|c| = 2/3
        chosen, c, _, _ = degorre_choice(make_generator(8, 0), Z_AXIS, M)
        assert abs(np.abs(chosen[:, 2]).mean() - 2.0 / 3.0) < 0.005
        assert set(np.unique(c)) == {1, 2}

    def test_cos_marginal_ks(self):
        chosen, _, _, _ = degorre_choice(make_generator(9, 0), Z_AXIS, M)
        d = stats.kstest(chosen[:, 2], lambda c: (1.0 + c * np.abs(c)) / 2.0).statistic
        assert d < 2.0 / np.sqrt(M)

    def test_tie_picks_first(self):
        chosen, c, lam1, lam2 = degorre_choice(make_generator(10, 0), Z_AXIS, 4)
        # equality of |dot| is measure zero; force it by construction instead
        assert np.all(np.where(np.abs(lam1[:, 2]) >= np.abs(lam2[:, 2]), 1, 2) == c)
        eq = np.where(np.abs(lam1[:, 2]) >= np.abs(lam1[:, 2]), 1, 2)
        assert np.all(eq == 1)

    def test_invariant_under_axis_flip(self):
        v = np.array([0.6, 0.0, 0.8])
        a = degorre_choice(make_generator(11, 0), v, 1000)[0]
        b = degorre_choice(make_generator(11, 0), -v, 1000)[0]
        assert np.array_equal(a, b)


class TestRhoDensities:
    def test_rho_maximally_entangled_is_abs_cos(self):
        rng = np.random.default_rng(77)
        x = random_unit(rng)
        coll = collapse(State(0.5), x)
        lam = sample_uniform_sphere(make_generator(12, 0), 1000)
        want = np.abs(dot3(lam, coll.v_plus)) / (2.0 * np.pi)
        np.testing.assert_allclose(eval_rho(State(0.5), x, lam), want, atol=1e-12)

    def test_rho_product_state_is_hemisphere_law(self):
        rng = np.random.default_rng(78)
        lam = sample_uniform_sphere(make_generator(13, 0), 1000)
        want = theta(lam[:, 2]) / np.pi
        for _ in range(5):
            x = random_unit(rng)
            np.testing.assert_allclose(eval_rho(State(1.0), x, lam), want, atol=1e-12)

    def test_rho_normalized_monte_carlo(self):
        rng = np.random.default_rng(79)
        lam = sample_uniform_sphere(make_generator(14, 0), M)
        for p in (0.55, 0.8, 0.97):
            x = random_unit(rng)
            integral = 4.0 * np.pi * eval_rho(State(p), x, lam).mean()
            assert abs(integral - 1.0) < 0.01

    def test_rho_tilde_zero_at_p1(self):
        rng = np.random.default_rng(80)
        lam = sample_uniform_sphere(make_generator(15, 0), 1000)
        x = random_unit(rng)
        np.testing.assert_array_equal(eval_rho_tilde(State(1.0), x, lam), 0.0)

    def test_rho_tilde_area_monte_carlo(self):
        rng = np.random.default_rng(81)
        lam = sample_uniform_sphere(make_generator(16, 0), M)
        for p in (0.5, 0.7, 0.9):
            x = random_unit(rng)
            integral = 4.0 * np.pi * eval_rho_tilde(State(p), x, lam).mean()
            assert abs(integral - 2.0 * (1.0 - p)) < 0.01 * max(2.0 * (1.0 - p), 1.0)

    def test_rho_tilde_bounds_pointwise(self):
        rng = np.random.default_rng(82)
        lam = sample_uniform_sphere(make_generator(17, 0), 10**5)
        for p in (0.5, 0.7, 0.933, 0.99):
            state = State(p)
            x = random_unit(rng)
            rt = eval_rho_tilde(state, x, lam, clamp=False)
            assert np.min(rt) > -1e-12
            assert np.max(rt) <= rho_tilde_bound(state) + 1e-12
            assert np.max(rt - eval_rho_tilde_max(state, lam)) <= 1e-12

    def test_negative_density_beyond_the_rounding_limit_raises(self):
        # with lam.v_+- = 0, rhot_x = -c Theta(lam_z) / pi: 10 limits below 0
        # is no rounding error and raises, half a limit below 0 is clamped
        state = State(0.75)
        coll, zero = collapse(state, Z_AXIS), np.zeros(1)

        def rho_tilde(depth, clamp=True):
            lz = np.array([depth * sampling.NEGATIVE_LIMIT * np.pi / state.c])
            return sampling._rho_tilde_dots(state, coll, zero, zero, lz, clamp)[0]

        with pytest.raises(InternalConsistencyError, match="rounding limit"):
            rho_tilde(10.0)
        assert rho_tilde(0.5, clamp=False) == pytest.approx(-0.5 * sampling.NEGATIVE_LIMIT)
        assert rho_tilde(0.5) == 0.0

    def test_rho_tilde_max_constant_at_half(self):
        lam = sample_uniform_sphere(make_generator(18, 0), 1000)
        np.testing.assert_allclose(
            eval_rho_tilde_max(State(0.5), lam), 1.0 / (2.0 * np.pi), atol=1e-15
        )

    def test_rho_tilde_max_peak_at_equator(self):
        for p in (0.6, 0.8, 0.95):
            c = np.linspace(-1.0, 1.0, 20001)
            vals = rho_tilde_max_cos(State(p), c)
            assert vals.max() <= rho_tilde_bound(p) + 1e-15
            assert rho_tilde_max_cos(State(p), 0.0) == pytest.approx(
                rho_tilde_bound(p), abs=1e-15
            )


class TestNofP:
    def test_frozen_value_at_09(self):
        # derived: quadrature of the envelope (and closed form) give 0.6943755...
        assert n_of_p(0.9) == pytest.approx(0.6943755299006493, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        for p in (0.84, 0.9, 0.95, 0.99):
            assert abs(n_of_p(p) - n_of_p_quadrature(p)) < 1e-6

    def test_limit_at_p1(self):
        assert n_of_p(1.0) == 0.0
        assert n_of_p(0.9999999) < 4e-6

    def test_singular_at_half(self):
        with pytest.raises(DomainError):
            n_of_p(0.5)
        # the actual limit is 2 (the envelope is the constant 1/(2pi))
        assert n_of_p_quadrature(0.5) == pytest.approx(2.0, abs=1e-9)

    def test_threshold_root(self):
        root = improved_one_bit_threshold()
        assert n_of_p(root) == pytest.approx(1.0, abs=1e-9)
        assert root == pytest.approx(0.834261756691355, abs=1e-9)
        assert abs(root - 0.835) < 2e-3  # the coarse published rounding

    def test_threshold_is_scipy_brentq_bit_for_bit(self):
        want = optimize.brentq(lambda p: n_of_p(p) - 1.0, 0.75, 0.95, xtol=1e-14, rtol=8.9e-16)
        root = improved_one_bit_threshold()
        assert type(root) is float and root == want
        assert repr(root) == "0.834261756691355"  # the ``lhvsim sweep`` header prints this

    def test_one_bit_threshold_constant(self):
        t = one_bit_threshold()
        assert t == pytest.approx(0.9330127018922193, abs=1e-15)
        # at the threshold the envelope peak equals 1/(4pi) exactly
        assert rho_tilde_bound(t) == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-12)


def _cos_bin_probs_rho_tilde_max(p, edges):
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda c: rho_tilde_max_cos(p, c), lo, hi, limit=100)
        out.append(2.0 * np.pi * val / n_of_p(p))
    return np.array(out)


class TestRhoTildeMaxSampler:
    def test_uniform_at_half(self):
        lam = RhoTildeMaxSampler(State(0.5), make_generator(19, 0)).draw(M)
        assert abs((lam[:, 2] ** 2).mean() - 1.0 / 3.0) < 0.005

    def test_acceptance_fraction(self):
        s = RhoTildeMaxSampler(State(0.9), make_generator(20, 0))
        s.draw(M)
        want = n_of_p(0.9) / (4.0 * np.sqrt(0.9 * 0.1))
        assert abs(s.acceptance_fraction - want) < 0.01

    def test_chi2_against_density(self):
        p = 0.9
        lam = RhoTildeMaxSampler(State(p), make_generator(21, 0)).draw(M)
        edges = np.linspace(-1.0, 1.0, 21)
        want = _cos_bin_probs_rho_tilde_max(p, edges)
        counts, _ = np.histogram(lam[:, 2], bins=edges)
        chi2 = float(np.sum((counts - M * want) ** 2 / (M * want)))
        assert stats.chi2.sf(chi2, len(want) - 1) > 0.001

    def test_cos_marginal_ks(self):
        p = 0.95
        lam = RhoTildeMaxSampler(State(p), make_generator(22, 0)).draw(M)
        grid = np.linspace(-1.0, 1.0, 8193)
        pdf = 2.0 * np.pi * rho_tilde_max_cos(p, grid) / n_of_p(p)
        cdf_grid = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
        cdf_grid /= cdf_grid[-1]
        d = stats.kstest(lam[:, 2], lambda c: np.interp(c, grid, cdf_grid)).statistic
        assert d < 2.0 / np.sqrt(M)

    def test_rejects_p1(self):
        with pytest.raises(DomainError):
            RhoTildeMaxSampler(State(1.0), make_generator(23, 0))

    @given(cuts=st.lists(st.integers(1, 200), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_call_granularity_invariance(self, cuts):
        total = sum(cuts)
        a = RhoTildeMaxSampler(State(0.9), make_generator(24, 0)).draw(total)
        s = RhoTildeMaxSampler(State(0.9), make_generator(24, 0))
        b = np.concatenate([s.draw(k) for k in cuts])
        assert np.array_equal(a, b)


    @pytest.mark.parametrize("p", [0.6, 0.9, 0.99])
    def test_envelope_scan_matches_draw(self, p):
        n = 50_000
        scan = EnvelopeScan(State(p), stream_key(26, 0), 5, n)
        scan_envelopes([scan])
        rng = make_generator(26, 0)
        rng.random(5)
        s = RhoTildeMaxSampler(State(p), rng)
        whole = s.draw(n)
        assert len(scan.counts) * s.block == s.proposed  # the same blocks are scanned
        assert scan.counts[-1] == s.accepted
        assert scan.counts[-2] < n <= scan.counts[-1]
        assert scan.end == 5 + 3 * s.proposed
        cuts = [0, 1, 4000, int(scan.counts[0]), int(scan.counts[0]) + 1, 33_333, n - 1, n]
        for lo in cuts:
            for hi in cuts:
                if lo <= hi:
                    assert np.array_equal(scan.sampler(lo).draw(hi - lo), whole[lo:hi]), (lo, hi)
        # past the scanned draw, a sampler reads on as the stream's own sampler does
        assert np.array_equal(scan.sampler(n - 1).draw(5), np.concatenate([whole[-1:], s.draw(4)]))

    def test_envelope_scan_of_zero_samples(self):
        scan = EnvelopeScan(State(0.9), stream_key(26, 0), 5, 0)
        scan_envelopes([scan])
        assert scan.end == 5
        assert scan.counts.size == 0
        assert scan.sampler(0).draw(0).shape == (0, 3)

    def test_a_finished_scan_holds_its_counts_only(self):
        # 8 bytes per block of 8192 candidates: about 34 KiB at n = 10^7 and
        # p = 0.99 (4306 blocks), where one accept bit per candidate took
        # 4.85 MiB.  The pass's 263 block-range tuples add about 16 KiB that
        # the interpreter keeps on its tuple free list for later passes
        import tracemalloc

        warm = EnvelopeScan(State(0.99), stream_key(29, 0), 0, 10_000)
        scan_envelopes([warm])  # one-time allocations are made here, not counted
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scan = EnvelopeScan(State(0.99), stream_key(29, 1), 0, 10**7)
            scan_envelopes([scan])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert scan.counts[-1] >= 10**7
        assert held < 64 * 1024, held

    def test_draw_zero(self):
        assert RhoTildeMaxSampler(State(0.9), make_generator(27, 0)).draw(0).shape == (0, 3)


@lru_cache(maxsize=None)
def one_pass_scan(p, n):
    """The counting pass of n envelope samples from stream (26, 0) after 5
    draws, block after block in one thread, and the samples themselves."""
    key = stream_key(26, 0)
    sampler = RhoTildeMaxSampler(State(p), generator_at(key, 5))
    counts, total = [], 0
    while total < n:
        total += int(sampler._keep(sampler.rng.random((sampler.block, 3))).sum())
        counts.append(total)
    whole = RhoTildeMaxSampler(State(p), generator_at(key, 5)).draw(n)
    return counts, 5 + 3 * sampler.block * len(counts), whole


class TestRangedEnvelopeScan:
    """The counting pass runs in block ranges, wave after wave, on any map;
    its counts and end, and the samples read from them, equal one pass
    in order, whether the block estimate is right, far too low (more
    waves) or far too high (blocks read and cut)."""

    @pytest.mark.parametrize("estimate", ["analytic", "too-low", "too-high"])
    @pytest.mark.parametrize("pool", [False, True], ids=["map", "pool"])
    @pytest.mark.parametrize("p", [0.84, 0.9, 0.99, 0.999])
    def test_equals_one_pass(self, monkeypatch, p, pool, estimate):
        real = sampling.envelope_blocks
        if estimate == "too-low":
            monkeypatch.setattr(sampling, "envelope_blocks", lambda p, n: min(real(p, n), 1))
        elif estimate == "too-high":
            monkeypatch.setattr(sampling, "envelope_blocks", lambda p, n: 4 * real(p, n) + 20)
        read = []  # (first, last) block of every range read
        scan_range = sampling._scan_range
        monkeypatch.setattr(
            sampling, "_scan_range", lambda unit: read.append(unit[1:]) or scan_range(unit)
        )
        on_block = one_pass_scan(p, 50_000)[0][2]  # the last sample of block 2
        with ThreadPoolExecutor(max_workers=2) as executor:
            waves = []

            def map_fn(fn, units):
                waves.append(len(units))
                return (executor.map if pool else map)(fn, units)

            for n in (0, 1, on_block, 50_000, CHUNK + TILE + 5):
                counts, end, whole = one_pass_scan(p, n)
                read.clear()
                waves.clear()
                scan = EnvelopeScan(State(p), stream_key(26, 0), 5, n)
                scan_envelopes([scan], map_fn)
                assert scan.counts.tolist() == counts, n
                assert scan.end == end, n
                blocks = sum(hi - lo for lo, hi in read)
                if n == 0:
                    assert not read and not waves
                elif estimate == "too-low" and len(counts) > 1:
                    assert len(waves) == len(counts) and blocks == len(counts)
                elif estimate == "too-high":
                    assert len(waves) == 1 and blocks > len(counts)
                cuts = sorted({0, 1, n // 3, n // 3 + 1, int(counts[0]) if n else 0, n - 1, n})
                for lo in cuts:
                    for hi in cuts:
                        if 0 <= lo <= hi <= n:
                            got = scan.sampler(lo).draw(hi - lo)
                            assert np.array_equal(got, whole[lo:hi]), (n, lo, hi)


class TestPositionedStreams:
    def test_generator_at_reads_from_offset(self):
        ref = make_generator(28, 3, 1).random(40)
        for offset in range(20):
            got = generator_at(stream_key(28, 3, 1), offset).random(20)
            assert np.array_equal(got, ref[offset : offset + 20])

    @pytest.mark.parametrize("offset", [0, 1, 3, 4, 2**40 + 3, 2**66 + 1])
    def test_generator_at_sets_the_whole_counter(self, offset):
        # the 256-bit counter is set to offset // 4, carry words included; a
        # generator of the seed's stream reaches the same place by drawing or,
        # past any draw, by Philox.advance
        ref = make_generator(28, 3, 1)
        steps, rest = divmod(offset, 4)
        if offset < 100:
            ref.random(offset)
        else:
            ref.bit_generator.advance(steps)
            ref.random(rest)
        got = generator_at(stream_key(28, 3, 1), offset)
        assert np.array_equal(got.random(9), ref.random(9))

    def test_generator_at_reads_no_os_entropy(self, monkeypatch):
        # Philox(key=...) seeds a SeedSequence() from the OS that it never uses
        import numpy.random.bit_generator as bit_generator

        def entropy(*args):
            raise AssertionError("a stream read OS entropy")

        monkeypatch.setattr(bit_generator, "randbits", entropy)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.Philox(key=np.array(stream_key(28, 3, 1), dtype=np.uint64))
        ref = make_generator(28, 3, 1).random(12)
        assert np.array_equal(generator_at(stream_key(28, 3, 1), 5).random(7), ref[5:])


class TestCheckBound:
    def test_rounding_excess_passes_where_the_bound_is_small(self):
        # eight roundoffs above a 1e-4 bound: a ratio test with slack 1e-12
        # would raise, the absolute test must not
        bound = np.array([1e-4, 0.5])
        value = bound + 8.0 * np.finfo(float).eps
        assert value[0] / bound[0] > 1.0 + 1e-12
        check_bound(value, bound, "rounding")

    def test_real_violation_raises(self):
        bound = np.array([1e-4, 0.5])
        with pytest.raises(InternalConsistencyError, match="exceeded"):
            check_bound(bound + 4.0 * BOUND_ATOL, bound, "violation")

    def test_empty_passes(self):
        check_bound(np.zeros(0), np.zeros(0), "empty")


class TestRhoTildeSampler:
    def test_acceptance_fraction(self):
        rng = np.random.default_rng(83)
        for p in (0.7, 0.9):
            x = random_unit(rng)
            s = RhoTildeSampler(State(p), x, make_generator(25, 0))
            s.draw(2 * 10**5)
            want = 2.0 * (1.0 - p) / n_of_p(p)
            assert abs(s.acceptance_fraction - want) < 0.01

    def test_symmetry_under_point_reflection(self):
        rng = np.random.default_rng(84)
        x = random_unit(rng)
        lam = RhoTildeSampler(State(0.7), x, make_generator(26, 0)).draw(10**5)
        t = dot3(lam, collapse(State(0.7), x).v_plus)
        assert stats.ks_2samp(t, -t).pvalue > 0.001
        assert stats.ks_2samp(lam[:, 2], -lam[:, 2]).pvalue > 0.001

    def test_support_has_positive_density(self):
        rng = np.random.default_rng(85)
        x = random_unit(rng)
        state = State(0.8)
        lam = RhoTildeSampler(state, x, make_generator(27, 0)).draw(10**5)
        assert np.all(eval_rho_tilde(state, x, lam) > 0.0)

    def test_chi2_against_axis_marginal(self):
        # the lam.z histogram must match the quadrature of the density's
        # azimuthally-integrated marginal
        state, x = State(0.75), np.array([0.28, -0.45, 0.848528137423857])
        x = x / np.linalg.norm(x)
        m = 2 * 10**5
        lam = RhoTildeSampler(state, x, make_generator(30, 0)).draw(m)
        edges = np.linspace(-1.0, 1.0, 21)
        want = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = integrate.quad(
                lambda c: rho_tilde_cos_marginal(state, x, c), lo, hi, limit=100
            )
            want.append(val / (2.0 * (1.0 - state.p)))
        want = np.array(want)
        counts, _ = np.histogram(lam[:, 2], bins=edges)
        live = want > 1e-9
        assert np.all(counts[~live] == 0)
        chi2 = float(np.sum((counts[live] - m * want[live]) ** 2 / (m * want[live])))
        assert stats.chi2.sf(chi2, int(live.sum()) - 1) > 0.001

    def test_rejects_p1(self):
        with pytest.raises(DomainError):
            RhoTildeSampler(State(1.0), Z_AXIS, make_generator(28, 0))

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.95])
    def test_equals_block_wide_thinning(self, p):
        # the lazy sampler tests candidates in pieces; the samples and the
        # stream they come from are those of testing whole blocks at once
        x = np.array([0.6, 0.0, 0.8])
        sizes = [1, 7, 5000, 8193]
        want, tested = block_thinning(State(p), x, make_generator(31, 2), sizes)
        s = RhoTildeSampler(State(p), x, make_generator(31, 2))
        for size, w in zip(sizes, want):
            assert np.array_equal(s.draw(size), w)
        assert sum(sizes) <= s.accepted and s.proposed <= tested

    def test_lazy_thinning_checks_the_envelope(self, monkeypatch):
        # an envelope 10 % too low breaks rhot_x <= rhot_max on some
        # candidates; the first piece tested must already raise
        import lhvsim.sampling as sampling

        low = lambda state, c: 0.9 * rho_tilde_max_cos(state, c)  # noqa: E731
        monkeypatch.setattr(sampling, "rho_tilde_max_cos", low)
        s = RhoTildeSampler(State(0.7), np.array([0.6, 0.0, 0.8]), make_generator(32, 0))
        with pytest.raises(InternalConsistencyError, match="envelope"):
            s.draw(1)
        assert s.proposed == 0  # no candidate reached an accept decision

    @given(cuts=st.lists(st.integers(1, 100), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_call_granularity_invariance(self, cuts):
        x = np.array([0.6, 0.0, 0.8])
        total = sum(cuts)
        a = RhoTildeSampler(State(0.8), x, make_generator(29, 0)).draw(total)
        s = RhoTildeSampler(State(0.8), x, make_generator(29, 0))
        b = np.concatenate([s.draw(k) for k in cuts])
        assert np.array_equal(a, b)
