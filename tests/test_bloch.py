"""Tests for the exact two-qubit layer.

The reference values here are computed by an oracle local to this file: a
density-matrix construction that goes through spherical angles rather than
the package's Cartesian projector algebra, so the two routes are independent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhvsim import bloch
from lhvsim.bloch import (
    State,
    Z_AXIS,
    born_joint,
    born_joint_closed,
    chsh_value,
    collapse,
    correlation,
    default_setting_pairs,
    dot3,
    sign_pm,
    theta,
    tsirelson_settings,
)
from lhvsim.errors import ValidationError
from oracles import heaviside, same_bytes

RNG = np.random.default_rng(20240811)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def angles_of(v):
    th = np.arccos(np.clip(v[2], -1.0, 1.0))
    ph = np.arctan2(v[1], v[0])
    return th, ph


def oracle_ket(v):
    """|v> built from spherical angles (independent of bloch.qubit_ket)."""
    th, ph = angles_of(v)
    return np.array([np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)])


def oracle_joint(p, x, y):
    """p(a,b|x,y) from first principles: 4x4 rho and angle-built projectors."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(p)
    psi[3] = np.sqrt(1.0 - p)
    rho = np.outer(psi, psi.conj())
    out = {}
    for a in (1, -1):
        ka = oracle_ket(a * np.asarray(x, dtype=float))
        pa = np.outer(ka, ka.conj())
        for b in (1, -1):
            kb = oracle_ket(b * np.asarray(y, dtype=float))
            pb = np.outer(kb, kb.conj())
            out[(a, b)] = float(np.trace(np.kron(pa, pb) @ rho).real)
    return out


class TestConventions:
    def test_heaviside_at_zero(self):
        assert heaviside(0.0) == 1.0
        assert heaviside(-1e-300) == 0.0
        assert heaviside(2.5) == 1.0

    def test_theta(self):
        assert theta(0.0) == 0.0
        assert theta(3.0) == 3.0
        assert theta(-3.0) == 0.0

    def test_sign_at_zero_is_plus(self):
        assert sign_pm(0.0) == 1
        assert sign_pm(-0.0) == 1  # -0.0 >= 0.0 in IEEE
        np.testing.assert_array_equal(sign_pm(np.array([0.5, -0.5, 0.0])), [1, -1, 1])

    @given(st.floats(-10, 10))
    def test_theta_is_heaviside_times_z(self, z):
        assert theta(z) == heaviside(z) * z

    def test_dot3_matches_np_dot(self):
        a = RNG.normal(size=(50, 3))
        b = random_unit()
        np.testing.assert_allclose(dot3(a, b), a @ b, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dot3(a, a), np.sum(a * a, axis=1), rtol=0, atol=1e-14)


# signed zeros, subnormals and infinities, then random values
CRAFTED = np.concatenate(
    [[0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.0, -1.0], RNG.normal(size=1000)]
)


def theta_where(z):
    z = np.asarray(z)
    return np.where(z >= 0.0, z, 0.0)


def sign_where(z):
    return np.where(np.asarray(z) >= 0.0, 1, -1).astype(np.int8)


def dot3_sum(a, b):
    """dot3 as one expression, the form its in-place accumulation keeps."""
    a, b = np.asarray(a), np.asarray(b)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def crafted_rows():
    """(n, 3) rows of CRAFTED values, column-major as the draws are, with
    rows whose three products are signed zeros, subnormals and infinities."""
    rows = np.asfortranarray(np.resize(CRAFTED, (CRAFTED.size // 3 * 3,)).reshape(-1, 3))
    zeros = [[0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [5e-324, -5e-324, 0.0], [np.inf, 1.0, -np.inf]]
    return np.asfortranarray(np.vstack([zeros, rows]))


class TestByteExactKernels:
    """The kernels equal their ``np.where`` forms, and ``dot3`` its one-line
    sum, byte for byte."""

    @pytest.mark.parametrize("kernel,ref", [(theta, theta_where), (sign_pm, sign_where)])
    def test_crafted_values(self, kernel, ref):
        assert same_bytes(kernel(CRAFTED), ref(CRAFTED))
        assert same_bytes(kernel(CRAFTED[::-3]), ref(CRAFTED[::-3]))  # strided input

    @pytest.mark.parametrize("kernel,ref", [(theta, theta_where), (sign_pm, sign_where)])
    def test_scalar_and_0d_inputs(self, kernel, ref):
        for z in CRAFTED[:8]:
            for arg in (float(z), np.float64(z), np.array(z), np.array([z])):
                assert same_bytes(kernel(arg), ref(arg)), (kernel.__name__, arg)
        assert same_bytes(kernel(np.zeros(0)), ref(np.zeros(0)))

    def test_theta_keeps_the_sign_of_zero(self):
        # np.maximum(z, 0.0) would give +0.0 here
        assert np.signbit(theta(-0.0)) and not np.signbit(theta(0.0))

    def test_theta_into_a_buffer(self):
        for z in (CRAFTED, CRAFTED[::-3], np.array(-0.0)):
            out = np.empty(z.shape)
            assert theta(z, out=out) is out
            assert same_bytes(out, theta_where(z))

    def test_dot3_keeps_its_sum(self):
        rows = crafted_rows()
        units = [Z_AXIS, np.array([0.6, 0.0, -0.8]), np.array([-0.0, 1.0, -0.0])]
        cases = [(rows, u) for u in units] + [(u, rows) for u in units] + [
            (rows, rows),
            (rows, rows[::-1]),  # strided rows
            (rows[:-2:3], rows[1::3]),
            (np.ascontiguousarray(rows), rows),  # row-major against column-major
            (rows[:0], Z_AXIS),  # no rows
            (rows[:, None, :], rows[None, :5, :]),  # broadcast to (n, 5)
        ]
        with np.errstate(invalid="ignore"):  # inf * 0 is a NaN on both sides
            for a, b in cases:
                assert same_bytes(dot3(a, b), dot3_sum(a, b)), (a.shape, b.shape)

    def test_dot3_of_single_rows(self):
        # one row gives a numpy scalar, as the plain expression does
        rows = crafted_rows()
        with np.errstate(invalid="ignore"):
            for a, b in zip(rows[:12], rows[12:24]):
                for args in ((a, b), (list(a), tuple(b)), (a, Z_AXIS)):
                    got = dot3(*args)
                    assert isinstance(got, np.float64) and same_bytes(got, dot3_sum(*args))
                assert same_bytes(dot3(a[None], b), dot3_sum(a[None], b))  # (1,)

    def test_pm_of_masks(self):
        mask = CRAFTED >= 0.5
        assert same_bytes(bloch.pm(mask), np.where(mask, 1, -1).astype(np.int8))
        for m in (True, False, np.bool_(True), np.array(False)):
            assert same_bytes(bloch.pm(m), np.where(m, 1, -1).astype(np.int8))


class TestValidation:
    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            born_joint(State(0.7), np.array([0.0, 0.0, 1.1]), Z_AXIS)
        with pytest.raises(ValidationError):
            collapse(State(0.7), np.array([1.0, 1.0, 1.0]))

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError):
            State(0.49)
        with pytest.raises(ValidationError):
            State(1.01)


class TestBornJoint:
    def test_maximally_entangled_z_z(self):
        # frozen from oracle_joint(0.5, z, z)
        d = born_joint(State(0.5), Z_AXIS, Z_AXIS)
        assert d.prob(1, 1) == pytest.approx(0.5, abs=1e-12)
        assert d.prob(1, -1) == pytest.approx(0.0, abs=1e-12)
        assert d.prob(-1, 1) == pytest.approx(0.0, abs=1e-12)
        assert d.prob(-1, -1) == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        d = born_joint(State(1.0), Z_AXIS, Z_AXIS)
        assert d.prob(1, 1) == pytest.approx(1.0, abs=1e-12)
        assert d.prob(-1, -1) == pytest.approx(0.0, abs=1e-12)

    def test_p07_x_x(self):
        # frozen: correlation term 2*sqrt(0.21), so p(+,+) = (1 + 2*sqrt(0.21))/4
        d = born_joint(State(0.7), bloch.X_AXIS, bloch.X_AXIS)
        e = 2.0 * np.sqrt(0.21)
        assert d.prob(1, 1) == pytest.approx((1 + e) / 4, abs=1e-12)
        assert d.prob(1, -1) == pytest.approx((1 - e) / 4, abs=1e-12)
        assert d.correlation == pytest.approx(e, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.835, 0.95, 1.0])
    def test_matches_independent_oracle(self, p):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x, y = random_unit(rng), random_unit(rng)
            want = oracle_joint(p, x, y)
            d = born_joint(State(p), x, y)
            for ab, val in want.items():
                assert d.prob(*ab) == pytest.approx(val, abs=1e-12)

    def test_bytes_equal_the_kron_form(self):
        # born_joint forms P_a (x) P_b without np.kron; the bytes must not move
        def kron_form(state, x, y):
            psi = state.ket()
            rho = np.outer(psi, psi.conj())
            probs = np.empty((2, 2))
            for i, a in enumerate((1, -1)):
                for j, b in enumerate((1, -1)):
                    op = np.kron(bloch.projector(a * x), bloch.projector(b * y))
                    probs[i, j] = np.trace(op @ rho).real
            probs[probs < 0.0] = 0.0
            return probs

        cases = [
            (p, x, y)
            for p in (0.5, 0.7, 0.835, 0.9, 0.933, 0.95, 1.0)
            for x, y in default_setting_pairs(20)
        ]
        rng = np.random.default_rng(13)
        cases += [(rng.uniform(0.5, 1.0), random_unit(rng), random_unit(rng)) for _ in range(500)]
        for p, x, y in cases:
            got = born_joint(State(p), x, y).probs
            assert got.tobytes() == kron_form(State(p), x, y).tobytes(), (p, x, y)

    def test_closed_form_equals_oracle_path(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.uniform(0.5, 1.0)
            x, y = random_unit(rng), random_unit(rng)
            a = born_joint(State(p), x, y).probs
            b = born_joint_closed(State(p), x, y).probs
            assert np.max(np.abs(a - b)) < 1e-12

    def test_non_signalling_marginal_independent_of_y(self):
        rng = np.random.default_rng(3)
        state = State(0.81)
        x = random_unit(rng)
        ref = born_joint(state, x, random_unit(rng)).probs[0].sum()
        for _ in range(100):
            m = born_joint(state, x, random_unit(rng)).probs[0].sum()
            assert abs(m - ref) < 1e-12

    def test_conditional_decomposition(self):
        # p(a,b) = p_a * (1 + b * y.v_a) / 2 for 1000 random (p, x, y)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = rng.uniform(0.5, 1.0)
            state = State(p)
            x, y = random_unit(rng), random_unit(rng)
            d = born_joint(state, x, y)
            c = collapse(state, x)
            for a, pa, va in ((1, c.p_plus, c.v_plus), (-1, c.p_minus, c.v_minus)):
                for b in (1, -1):
                    want = pa * (1.0 + b * float(y @ va)) / 2.0
                    assert d.prob(a, b) == pytest.approx(want, abs=1e-10)


class TestCollapse:
    def test_p_half_opposite_states(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            c = collapse(State(0.5), random_unit(rng))
            assert c.p_plus == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(c.v_minus, -c.v_plus, atol=1e-10)

    def test_product_state_always_z(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            c = collapse(State(1.0), random_unit(rng))
            np.testing.assert_allclose(c.v_plus, Z_AXIS, atol=1e-10)
            np.testing.assert_allclose(c.v_minus, Z_AXIS, atol=1e-10)

    def test_p07_z(self):
        c = collapse(State(0.7), Z_AXIS)
        assert c.p_plus == pytest.approx(0.7, abs=1e-12)
        np.testing.assert_allclose(c.v_plus, Z_AXIS, atol=1e-12)
        np.testing.assert_allclose(c.v_minus, -Z_AXIS, atol=1e-12)

    def test_degenerate_branch_flagged(self):
        c = collapse(State(1.0), -Z_AXIS)
        assert c.p_plus == 0.0
        assert c.degenerate_plus and not c.degenerate_minus
        np.testing.assert_allclose(c.v_plus, Z_AXIS)

    def test_invariants_on_random_inputs(self):
        # p_+ + p_- = 1, unit post-measurement states, and the identity
        # p_+ v_+ + p_- v_- = (2p-1) z, for 1000 random (p, x)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = rng.uniform(0.5, 1.0)
            x = random_unit(rng)
            c = collapse(State(p), x)
            assert c.p_plus + c.p_minus == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(c.v_plus) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(c.v_minus) == pytest.approx(1.0, abs=1e-10)
            lhs = c.p_plus * c.v_plus + c.p_minus * c.v_minus
            np.testing.assert_allclose(lhs, (2 * p - 1) * Z_AXIS, atol=1e-10)

    def test_collapse_matches_oracle_marginals(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p = rng.uniform(0.5, 1.0)
            x = random_unit(rng)
            want = oracle_joint(p, x, Z_AXIS)
            c = collapse(State(p), x)
            assert c.p_plus == pytest.approx(want[(1, 1)] + want[(1, -1)], abs=1e-12)


class TestChsh:
    def test_tsirelson_on_maximally_entangled(self):
        x1, x2, y1, y2 = tsirelson_settings()
        assert chsh_value(State(0.5), x1, x2, y1, y2) == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-12
        )

    def test_product_state_is_local(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = chsh_value(State(1.0), *(random_unit(rng) for _ in range(4)))
            assert abs(s) <= 2.0 + 1e-12

    def test_against_oracle_correlations(self):
        x1, x2, y1, y2 = tsirelson_settings()
        state = State(0.7)

        def oracle_corr(x, y):
            j = oracle_joint(0.7, x, y)
            return j[(1, 1)] - j[(1, -1)] - j[(-1, 1)] + j[(-1, -1)]

        want = oracle_corr(x1, y1) + oracle_corr(x1, y2) + oracle_corr(x2, y1) - oracle_corr(x2, y2)
        assert chsh_value(state, x1, x2, y1, y2) == pytest.approx(want, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(0.5, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_correlation_consistent_with_born(p, seed):
    rng = np.random.default_rng(seed)
    x, y = random_unit(rng), random_unit(rng)
    d = born_joint(State(p), x, y)
    assert d.correlation == pytest.approx(correlation(State(p), x, y), abs=1e-12)
