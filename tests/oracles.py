"""Reference functions the tests check the library against.

No simulation, report, command or benchmark runs them, so they are not in
``lhvsim``.  Test modules import them as ``from oracles import ...``.
"""

import numpy as np
from scipy import integrate

from lhvsim.bloch import CollapseData, State, Z_AXIS, check_unit, collapse, dot3, sign_pm, theta
from lhvsim.protocols import _weight_given
from lhvsim.sampling import INV_PI, TWO_PI, _frame, rho_tilde_max_cos
from lhvsim.verify import Chi2Result, _cos_marginal, _pearson


def heaviside(z):
    """H(z) = 1 for z >= 0, else 0 (elementwise)."""
    return np.where(np.asarray(z) >= 0.0, 1.0, 0.0)


def same_bytes(got, want) -> bool:
    """Equal dtype, shape and bytes: values, the sign of every zero and the
    bits of every NaN."""
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


def eval_rho(state: State, x: np.ndarray, lam) -> np.ndarray:
    """The mixture density rho_x(lam) Alice must hand to Bob."""
    coll = collapse(state, x)
    lam = np.asarray(lam, dtype=float)
    dp, dm = dot3(lam, coll.v_plus), dot3(lam, coll.v_minus)
    return (coll.p_plus * theta(dp) + coll.p_minus * theta(dm)) * INV_PI


def frame_hemisphere(rng, v, n):
    """n vectors of the hemisphere law Theta(lam.v)/pi, written out in the
    frame of ``_frame``, term by term, from one (n, 2) draw of uniforms."""
    u = rng.random((n, 2))
    c = np.sqrt(u[:, 0])
    phi = 2.0 * np.pi * u[:, 1]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    e1, e2 = _frame(v)
    s_cos, s_sin = s * np.cos(phi), s * np.sin(phi)
    return np.column_stack([c * v[j] + s_cos * e1[j] + s_sin * e2[j] for j in range(3)])


def collapse_numpy(state: State, x: np.ndarray) -> CollapseData:
    """``bloch.collapse`` in numpy arrays and complex128 scalars: the form it
    replaced, which ``collapse`` must equal byte for byte."""

    def qubit_ket(v):
        vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
        if 1.0 + vz < 1e-15:
            return np.array([0.0, 1.0], dtype=complex)
        alpha = np.sqrt((1.0 + vz) / 2.0)
        beta = (vx + 1j * vy) / np.sqrt(2.0 * (1.0 + vz))
        return np.array([alpha, beta], dtype=complex)

    def bloch_of_ket(ket):
        g0, g1 = ket[0], ket[1]
        cross = np.conj(g0) * g1
        norm2 = abs(g0) ** 2 + abs(g1) ** 2
        return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(g0) ** 2 - abs(g1) ** 2]) / norm2

    x = check_unit(x, "x")
    sp, sm = np.sqrt(state.p), np.sqrt(1.0 - state.p)
    vs, degenerate = [], []
    for sign in (1.0, -1.0):
        alpha, beta = qubit_ket(sign * x)
        bob = np.array([sp * np.conj(alpha), sm * np.conj(beta)])
        if float(abs(bob[0]) ** 2 + abs(bob[1]) ** 2) <= 1e-30:
            vs.append(Z_AXIS.copy())
            degenerate.append(True)
        else:
            vs.append(bloch_of_ket(bob))
            degenerate.append(False)
    return CollapseData(
        p_plus=0.5 * (1.0 + state.c * x[2]),
        p_minus=0.5 * (1.0 - state.c * x[2]),
        v_plus=vs[0],
        v_minus=vs[1],
        degenerate_plus=degenerate[0],
        degenerate_minus=degenerate[1],
    )


def n_of_p_quadrature(p: float, epsabs: float = 1e-10) -> float:
    """Independent oracle for n_of_p: adaptive quadrature of the envelope."""
    val, _ = integrate.quad(
        lambda c: rho_tilde_max_cos(p, c), -1.0, 1.0, epsabs=epsabs, epsrel=1e-12, limit=200
    )
    return TWO_PI * val


def alice_output_weight(state: State, x: np.ndarray, lam) -> np.ndarray:
    """P(a = +1 | lam): the +1 summand of rho_x(lam) over the whole mixture.

    H(lam . v_plus) at p = 1/2; raises where rho_x(lam) = 0.
    """
    coll = collapse(state, x)
    lam = np.asarray(lam, dtype=float)
    return _weight_given(coll, dot3(lam, coll.v_plus), dot3(lam, coll.v_minus))


def bob_output(y: np.ndarray, lam) -> np.ndarray:
    """Bob's deterministic response b = sgn(y . lam), with sgn(0) = +1."""
    y = check_unit(y, "y")
    return sign_pm(dot3(np.asarray(lam, dtype=float), y))


def rho_cos_bin_probs(state: State, x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Quadrature bin probabilities of the lam.z marginal under rho_x."""
    g = _cos_marginal(collapse(state, x), 0.0)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(g, lo, hi, limit=200, epsabs=1e-11)
        out.append(val)
    return np.asarray(out)


def lambda_chi2_check(state: State, x: np.ndarray, lam: np.ndarray, bins: int = 20) -> Chi2Result:
    """Chi-square of the empirical lam.z histogram against the rho_x marginal."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    want = rho_cos_bin_probs(state, x, edges)
    counts, _ = np.histogram(lam[:, 2], bins=edges)
    return _pearson(counts, lam.shape[0] * want, want > 1e-12)


def rho_tilde_cos_marginal(state: State, x: np.ndarray, c: float) -> float:
    """Density of lam.z when lam ~ rhot_x (azimuth integrated in closed form)."""
    return _cos_marginal(collapse(state, x), state.c)(c)
