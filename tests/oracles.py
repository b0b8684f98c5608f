"""Reference functions the tests check the library against.

No simulation, report, command or benchmark runs them, so they are not in
``lhvsim``.  Test modules import them as ``from oracles import ...``.
"""

import numpy as np
from scipy import integrate

from lhvsim.bloch import State, check_unit, collapse, dot3, sign_pm, theta
from lhvsim.protocols import _weight_given
from lhvsim.sampling import INV_PI, TWO_PI, rho_tilde_max_cos
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
