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


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome distribution over (a, b) in {+1, -1}^2.

    ``probs[i, j]`` holds the probability of (a, b) with index 0 mapping to
    +1 and index 1 to -1.
    """

    probs: np.ndarray

    @staticmethod
    def index(outcome: int) -> int:
        return 0 if outcome == 1 else 1

    def prob(self, a: int, b: int) -> float:
        return float(self.probs[self.index(a), self.index(b)])

    @property
    def correlation(self) -> float:
        """E[a*b] under this distribution."""
        p = self.probs
        return float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])

    def validate(self, tol: float = 1e-12) -> "JointDistribution":
        if np.any(self.probs < -tol):
            raise ValidationError(f"negative probability in joint distribution: {self.probs}")
        if abs(float(self.probs.sum()) - 1.0) > tol:
            raise ValidationError(f"joint distribution does not sum to 1: {self.probs.sum()!r}")
        return self


def qubit_ket(v: np.ndarray) -> np.ndarray:
    """Amplitudes (alpha, beta) of the pure qubit state with Bloch vector v."""
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    if 1.0 + vz < 1e-15:
        # south pole: |v> = |1> up to phase
        return np.array([0.0, 1.0], dtype=complex)
    alpha = np.sqrt((1.0 + vz) / 2.0)
    beta = (vx + 1j * vy) / np.sqrt(2.0 * (1.0 + vz))
    return np.array([alpha, beta], dtype=complex)


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector (I + v.sigma)/2 onto the +1 outcome along v."""
    return 0.5 * (IDENTITY_2 + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)


def _bloch_of_ket(ket: np.ndarray) -> np.ndarray:
    """Bloch vector of a (not necessarily normalized) 2-amplitude ket."""
    g0, g1 = ket[0], ket[1]
    cross = np.conj(g0) * g1
    norm2 = abs(g0) ** 2 + abs(g1) ** 2
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(g0) ** 2 - abs(g1) ** 2]) / norm2


def born_joint(state: State, x: np.ndarray, y: np.ndarray) -> JointDistribution:
    """Joint distribution of local projective measurements x, y (oracle path).

    Builds |psi><psi| as an explicit 4x4 density matrix and evaluates
    Tr[P_a(x) (x) P_b(y) rho] for the four outcome pairs.  Each projector is
    built once, and P_a (x) P_b is the one broadcast multiply that
    ``np.kron`` performs, so the bytes are those of ``np.kron``.
    """
    x = check_unit(x, "x")
    y = check_unit(y, "y")
    psi = state.ket()
    rho = np.outer(psi, psi.conj())
    pbs = [projector(b * y)[None, :, None, :] for b in (1, -1)]
    probs = np.empty((2, 2))
    for i, a in enumerate((1, -1)):
        pa = projector(a * x)[:, None, :, None]
        for j, pb in enumerate(pbs):
            op = (pa * pb).reshape(4, 4)  # np.kron(P_a, P_b)
            probs[i, j] = np.trace(op @ rho).real
    probs[probs < 0.0] = 0.0  # rounding can produce -1e-17 on deterministic outcomes
    return JointDistribution(probs).validate()


def correlation(state: State, x: np.ndarray, y: np.ndarray) -> float:
    """Closed-form correlation E(x, y) = <(x.sigma)(y.sigma)>."""
    x = check_unit(x, "x")
    y = check_unit(y, "y")
    k = 2.0 * np.sqrt(state.p * (1.0 - state.p))
    return float(x[2] * y[2] + k * (x[0] * y[0] - x[1] * y[1]))


def born_joint_closed(state: State, x: np.ndarray, y: np.ndarray) -> JointDistribution:
    """Joint distribution via the closed form (must match ``born_joint`` to 1e-12)."""
    x = check_unit(x, "x")
    y = check_unit(y, "y")
    c = state.c
    e = correlation(state, x, y)
    probs = np.empty((2, 2))
    for i, a in enumerate((1, -1)):
        for j, b in enumerate((1, -1)):
            probs[i, j] = 0.25 * (1.0 + a * c * x[2] + b * c * y[2] + a * b * e)
    probs[probs < 0.0] = 0.0
    return JointDistribution(probs).validate()


def collapse(state: State, x: np.ndarray) -> CollapseData:
    """Alice's marginals p_+- and Bob's post-measurement Bloch vectors v_+-.

    ``p_+- = (1 +- (2p-1) x_z) / 2``; each ``v`` is computed from the
    collapsed two-amplitude state <+-x|_A |psi>, not from Bloch algebra.
    A branch with p = 0 (only p = 1 with x_z = -+1) has no post-measurement
    state; it is returned as the z axis and flagged degenerate.
    """
    x = check_unit(x, "x")
    p_plus = 0.5 * (1.0 + state.c * x[2])
    p_minus = 0.5 * (1.0 - state.c * x[2])
    sp = np.sqrt(state.p)
    sm = np.sqrt(1.0 - state.p)

    vs = []
    degenerate = []
    for sign in (1.0, -1.0):
        alpha, beta = qubit_ket(sign * x)
        bob = np.array([sp * np.conj(alpha), sm * np.conj(beta)])
        norm2 = float(abs(bob[0]) ** 2 + abs(bob[1]) ** 2)
        if norm2 <= 1e-30:
            vs.append(Z_AXIS.copy())
            degenerate.append(True)
        else:
            vs.append(_bloch_of_ket(bob))
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
