"""Exact two-qubit math for the state sqrt(p)|00> + sqrt(1-p)|11>.

This module is the ground truth the simulation protocols are certified
against: Born-rule joint distributions, Alice's marginal probabilities,
Bob's post-measurement states, and the CHSH value.  It also builds the
deterministic setting grids the runs are certified over, so that building
settings loads neither the simulator nor the certifier.

Projective measurements are unit Bloch vectors.  The joint distribution is
computed twice, on purpose:

* ``born_joint`` builds the 4x4 density matrix and the projector explicitly
  and takes the trace (the oracle path, no Bloch-algebra shortcuts);
* ``born_joint_closed`` uses the closed form
  ``p(a,b) = (1 + a*C*x_z + b*C*y_z + a*b*E(x,y)) / 4`` with
  ``C = 2p - 1`` and ``E(x,y) = x_z*y_z + 2*sqrt(p(1-p))*(x_x*y_x - x_y*y_y)``.

Sign conventions used everywhere in this package: ``H(0) = 1`` and
``sgn(0) = +1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

UNIT_TOL = 1e-12

Z_AXIS = np.array([0.0, 0.0, 1.0])
X_AXIS = np.array([1.0, 0.0, 0.0])

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def theta(z, out=None):
    """Theta(z) = H(z) * z, the positive part (elementwise), into ``out`` if given.

    ``np.maximum(0.0, z)`` returns its second operand on a tie, so
    Theta(-0.0) = -0.0, the bytes of ``where(z >= 0, z, 0)``; the operand
    order matters, as ``np.maximum(z, 0.0)`` gives +0.0 there.  The two
    forms differ only on NaN, which ``check_unit`` keeps out of every draw.
    """
    return np.maximum(0.0, np.asarray(z), out=out)


def unwrap_0d(a: np.ndarray):
    """``a``, or its one value as a numpy scalar if it is 0-d: what the plain
    expression of an in-place kernel returns for scalar inputs."""
    return a if a.ndim else a[()]


def pm(mask):
    """+1 where ``mask`` holds, else -1 (elementwise, int8)."""
    return np.asarray(mask).view(np.int8) * np.int8(2) - np.int8(1)


def sign_pm(z):
    """sgn(z) in {-1, +1} with sgn(0) = +1 (elementwise, int8)."""
    return pm(np.asarray(z) >= 0.0)


def dot3(a, b):
    """Row-wise dot product of (..., 3) arrays.

    Written out componentwise so a batch evaluation and a single-row
    evaluation produce bit-identical floats (no BLAS dispatch).  The sum is
    (a0 b0 + a1 b1) + a2 b2, accumulated in the first product's array with
    one more for the other two products.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[..., 0] * b[..., 0]
    if out.ndim == 0:  # numpy scalars: no array to accumulate in
        return out + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
    term = np.multiply(a[..., 1], b[..., 1])
    out += term
    out += np.multiply(a[..., 2], b[..., 2], out=term)
    return out


def check_unit(v, name: str = "vector") -> np.ndarray:
    """Validate a unit 3-vector and return it as a float64 array."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} has non-finite components")
    norm = float(np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValidationError(f"{name} must be unit norm, |{name}| = {norm!r}")
    return v


@dataclass(frozen=True)
class State:
    """Schmidt parameter p of the pure two-qubit state sqrt(p)|00> + sqrt(1-p)|11>."""

    p: float

    def __post_init__(self):
        if not (0.5 <= self.p <= 1.0):
            raise ValidationError(f"state parameter p must lie in [1/2, 1], got {self.p}")

    @property
    def c(self) -> float:
        """The z-bias 2p - 1 of the reduced states."""
        return 2.0 * self.p - 1.0

    def ket(self) -> np.ndarray:
        """Amplitude 4-vector in the computational basis |00>, |01>, |10>, |11>."""
        return np.array([np.sqrt(self.p), 0.0, 0.0, np.sqrt(1.0 - self.p)], dtype=complex)


@dataclass(frozen=True)
class CollapseData:
    """Alice's marginals and Bob's post-measurement states for one setting x.

    Invariants (checked by the test suite, not at construction):
    ``p_plus + p_minus = 1`` and
    ``p_plus*v_plus + p_minus*v_minus = (2p-1)*z`` (no-signalling identity).
    ``degenerate_plus/minus`` flag branches of probability zero where the
    post-measurement state is conventionally set to the z axis.
    """

    p_plus: float
    p_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray
    degenerate_plus: bool = False
    degenerate_minus: bool = False


def qubit_ket(vx: float, vy: float, vz: float) -> tuple:
    """Amplitudes (alpha, beta), as Python complex numbers, of the pure qubit
    state with Bloch vector (vx, vy, vz)."""
    if 1.0 + vz < 1e-15:
        return 0j, 1 + 0j  # south pole: |v> = |1> up to phase
    alpha = complex(math.sqrt((1.0 + vz) / 2.0))
    beta = (vx + 1j * vy) / math.sqrt(2.0 * (1.0 + vz))
    return alpha, beta


def projector(v) -> np.ndarray:
    """Rank-1 projector (I + v.sigma)/2 onto the +1 outcome along v; for an
    (..., 3) array of vectors, the (..., 2, 2) array of their projectors.
    Each product of a coordinate with a Pauli entry (0 or +-1) is exact, so
    a projector's bytes do not depend on the batch it is built in."""
    v = np.asarray(v)[..., None, None]
    return 0.5 * (
        IDENTITY_2 + v[..., 0, :, :] * PAULI_X + v[..., 1, :, :] * PAULI_Y + v[..., 2, :, :] * PAULI_Z
    )


def _check_unit_rows(vs, name: str) -> np.ndarray:
    """Validate an (m, 3) array of unit vectors in one pass; a row that fails
    is checked again by ``check_unit``, which raises its error."""
    vs = np.asarray(vs, dtype=float).reshape(-1, 3)
    norm = np.sqrt(vs[:, 0] ** 2 + vs[:, 1] ** 2 + vs[:, 2] ** 2)
    for row in vs[~(np.abs(norm - 1.0) <= UNIT_TOL)]:  # NaN and inf fail too
        check_unit(row, name)
    return vs


def _check_tables(probs: np.ndarray, tol: float = 1e-12) -> None:
    """Raise unless each (2, 2) table of ``probs`` is a distribution within ``tol`` (one pass)."""
    flat = probs.reshape(-1, 4)
    negative = flat[np.any(flat < -tol, axis=1)].reshape(-1, 2, 2)
    if len(negative):
        raise ValidationError(f"negative probability in joint distribution: {negative[0]}")
    sums = flat.sum(axis=1)
    off = sums[np.abs(sums - 1.0) > tol]
    if len(off):
        raise ValidationError(f"joint distribution does not sum to 1: {off[0]!r}")


def born_tables(state: State, xs, ys) -> np.ndarray:
    """The Born tables of the pairs (xs[k], ys[k]) as an (m, 2, 2) float64
    array (oracle path; ``born_joint`` is its one-pair case).  Entry [k, i, j]
    is the probability of outcomes (a, b) at pair k, index 0 standing for
    outcome +1 and index 1 for -1.

    Builds |psi><psi| as an explicit 4x4 density matrix and evaluates
    Tr[P_a(x) (x) P_b(y) rho] for the four outcome pairs of every pair.  Each
    projector is built once, and P_a (x) P_b is the one broadcast multiply
    that ``np.kron`` performs, so the bytes are those of ``np.kron``, and the
    product, the matrix product and the trace act on each 4x4 operator as
    they would on it alone.
    """
    xs = _check_unit_rows(xs, "x")
    ys = _check_unit_rows(ys, "y")
    psi = state.ket()
    rho = np.outer(psi, psi.conj())
    pa = projector(np.stack([xs, -xs], axis=1))  # (m, a, 2, 2), a = +1, -1
    pb = projector(np.stack([ys, -ys], axis=1))
    # (m, a, b, 2, 2, 2, 2) -> the (m, a, b) operators np.kron(P_a, P_b)
    op = (pa[:, :, None, :, None, :, None] * pb[:, None, :, None, :, None, :]).reshape(-1, 2, 2, 4, 4)
    probs = np.ascontiguousarray(np.trace(op @ rho, axis1=-2, axis2=-1).real)
    probs[probs < 0.0] = 0.0  # rounding can produce -1e-17 on deterministic outcomes
    _check_tables(probs)
    return probs


def born_joint(state: State, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (2, 2) Born table of local projective measurements x, y (oracle
    path): the one-pair case of ``born_tables``, indexed as there."""
    x = check_unit(x, "x")
    y = check_unit(y, "y")
    return born_tables(state, x[None], y[None])[0]


def correlation(state: State, x: np.ndarray, y: np.ndarray) -> float:
    """Closed-form correlation E(x, y) = <(x.sigma)(y.sigma)>."""
    x = check_unit(x, "x")
    y = check_unit(y, "y")
    k = 2.0 * np.sqrt(state.p * (1.0 - state.p))
    return float(x[2] * y[2] + k * (x[0] * y[0] - x[1] * y[1]))


def born_joint_closed(state: State, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (2, 2) table of ``born_joint`` via the closed form (must match it to 1e-12)."""
    x = check_unit(x, "x")
    y = check_unit(y, "y")
    c = state.c
    e = correlation(state, x, y)
    a, b = np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])  # the outcomes of [a, b]
    probs = 0.25 * (1.0 + a * c * x[2] + b * c * y[2] + a * b * e)
    probs[probs < 0.0] = 0.0
    _check_tables(probs)
    return probs


def collapse(state: State, x: np.ndarray) -> CollapseData:
    """Alice's marginals p_+- and Bob's post-measurement Bloch vectors v_+-.

    ``p_+- = (1 +- (2p-1) x_z) / 2``; each ``v`` is computed from the
    collapsed two-amplitude state <+-x|_A |psi>, not from Bloch algebra.
    A branch with p = 0 (only p = 1 with x_z = -+1) has no post-measurement
    state; it is returned as the z axis and flagged degenerate.  The
    amplitudes are Python complex numbers, whose products, quotients, moduli
    and powers do the IEEE operations of numpy's complex128 scalars, so the
    bytes are those of the numpy form without numpy's per-scalar cost.
    """
    xx, xy, xz = check_unit(x, "x").tolist()
    p_plus = 0.5 * (1.0 + state.c * xz)
    p_minus = 0.5 * (1.0 - state.c * xz)
    sp = complex(math.sqrt(state.p))
    sm = complex(math.sqrt(1.0 - state.p))

    vs = []
    degenerate = []
    for sign in (1.0, -1.0):
        alpha, beta = qubit_ket(sign * xx, sign * xy, sign * xz)
        g0, g1 = sp * alpha.conjugate(), sm * beta.conjugate()  # Bob's ket
        n0, n1 = abs(g0) ** 2, abs(g1) ** 2
        norm2 = n0 + n1
        if norm2 <= 1e-30:
            vs.append(Z_AXIS.copy())
            degenerate.append(True)
        else:  # the Bloch vector of Bob's ket, normalized
            cross = g0.conjugate() * g1
            vs.append(np.array([2.0 * cross.real / norm2, 2.0 * cross.imag / norm2, (n0 - n1) / norm2]))
            degenerate.append(False)
    return CollapseData(
        p_plus=p_plus,
        p_minus=p_minus,
        v_plus=vs[0],
        v_minus=vs[1],
        degenerate_plus=degenerate[0],
        degenerate_minus=degenerate[1],
    )


def chsh_value(state: State, x1, x2, y1, y2) -> float:
    """CHSH combination S = E(x1,y1) + E(x1,y2) + E(x2,y1) - E(x2,y2)."""
    return (
        correlation(state, x1, y1)
        + correlation(state, x1, y2)
        + correlation(state, x2, y1)
        - correlation(state, x2, y2)
    )


def tsirelson_settings():
    """CHSH settings (x1, x2, y1, y2) reaching 2*sqrt(2) on the maximally entangled state."""
    s = 1.0 / np.sqrt(2.0)
    return (
        Z_AXIS.copy(),
        X_AXIS.copy(),
        np.array([s, 0.0, s]),
        np.array([-s, 0.0, s]),
    )


# ---------------------------------------------------------------------------
# deterministic setting grids


def fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, roughly equidistributed unit vectors."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _grid_rotation() -> np.ndarray:
    # fixed rotation applied to the y grid so x and y settings never coincide
    a, b = 0.7, 0.4
    ry = np.array(
        [[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]]
    )
    rz = np.array(
        [[np.cos(b), -np.sin(b), 0.0], [np.sin(b), np.cos(b), 0.0], [0.0, 0.0, 1.0]]
    )
    return ry @ rz


def default_setting_pairs(n: int = 20):
    """The standard verification grid: n pairs subsampled from an n x n grid.

    Alice's settings are a Fibonacci sphere; Bob's are the same sphere under
    a fixed rotation; pair k combines x_k with y_((7k+3) mod n).
    """
    xs = fibonacci_sphere(n)
    ys = fibonacci_sphere(n) @ _grid_rotation().T
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    return [(xs[k], ys[(7 * k + 3) % n]) for k in range(n)]


def chsh_setting_pairs(settings=None):
    """The four CHSH correlation pairs [(x1,y1), (x1,y2), (x2,y1), (x2,y2)]."""
    if settings is None:
        settings = tsirelson_settings()
    x1, x2, y1, y2 = (check_unit(v) for v in settings)
    return [(x1, y1), (x1, y2), (x2, y1), (x2, y2)]
