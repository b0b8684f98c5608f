"""Random streams and every spherical distribution the protocols draw from.

Streams are counter-based (Philox keyed through ``SeedSequence`` spawn keys),
so a given ``(seed, stream_id)`` yields one fixed draw sequence no matter how
the surrounding run is chunked or parallelized.

Distributions on the unit sphere S2, with z = (0, 0, 1):

* uniform, density 1/(4pi);
* hemisphere law about an axis v, density Theta(lam.v)/pi (the classical
  encoding of the qubit state v);
* the "choice of two" law, density |lam.v|/(2pi), which the protocols build
  from two uniform vectors;
* rho_x(lam)   = p_+ Theta(lam.v_+)/pi + p_- Theta(lam.v_-)/pi;
* rhot_x(lam)  = rho_x(lam) - (2p-1) Theta(lam.z)/pi   (area 2(1-p));
* rhot_max(lam), the x-independent pointwise envelope of rhot_x, with
  normalization n_of_p(p).

The sub-normalized densities have no closed-form inverse CDF; they are drawn
by rejection using their proven envelopes, so the samplers are exact.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize

from .bloch import State, Z_AXIS, X_AXIS, check_unit, collapse, dot3, theta
from .errors import DomainError, InternalConsistencyError

INV_PI = 1.0 / np.pi
TWO_PI = 2.0 * np.pi

# Densities that are >= 0 exactly in real arithmetic may round to tiny
# negatives in floats; clamp them to 0, and error beyond the limit.
NEGATIVE_LIMIT = 1e-9

# Absolute slack for a pointwise bound "f(lam) <= g(lam)" that holds in real
# arithmetic and is tight on whole regions (trit: 2pi rhot_x <= |lam.v|;
# envelope: pi rhot_x <= pi rhot_max).  Both sides are compared on a scale
# where every term is at most 1; with the unit roundoff u = 2^-53:
# * a computed unit vector (lam from sqrt/cos/sin, v_+- from a normalized
#   Bloch vector) is off by at most ~2u per component, so a dot product of
#   two of them is off by at most 3u (three products, two sums of terms
#   summing to <= 1) + 2 * 2 sqrt(3) u < 10u;
# * pi rhot_x = p_+ Theta(lam.v_+) + p_- Theta(lam.v_-) - c Theta(lam_z), with
#   p_+ + p_- = 1 and c <= 1: 10u from the dot products, 4u from the weights
#   and 10u from three products and two sums, so < 24u; the 1/pi and 2pi
#   factors add 3u, and 2pi rhot_x is off by < 51u;
# * |lam.v| adds 10u (trit), pi rhot_max adds < 6u (a square root, a
#   division and four products of terms <= 1).
# So a correct protocol misses a bound by < 61u.  2^-45 = 256u is 4x that,
# and a wrong bound misses by far more (an O(1) term).  A relative test is
# wrong here: where the bound tends to 0, e.g. |lam.v| ~ 1e-4, dividing by it
# turns the absolute error of a few u into a relative error near 1e-12.
BOUND_ATOL = 2.0**-45


def make_generator(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, *path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def generator_at(seed: int, path: tuple, offset: int) -> np.random.Generator:
    """Stream (seed, *path) positioned after its first ``offset`` 64-bit draws.

    Every float64 uniform takes one 64-bit draw, and one Philox counter step
    yields four, so the counter jumps to ``offset // 4`` and the remainder is
    drawn and dropped.  The next uniform equals the stream's ``offset``-th.
    """
    rng = make_generator(seed, *path)
    steps, rest = divmod(int(offset), 4)
    rng.bit_generator.advance(steps)
    rng.random(rest)
    return rng


def check_bound(value: np.ndarray, bound: np.ndarray, what: str) -> None:
    """Raise if ``value <= bound`` fails anywhere by more than ``BOUND_ATOL``."""
    excess = float(np.max(value - bound, initial=0.0))
    if excess > BOUND_ATOL:
        raise InternalConsistencyError(
            f"{what}: pointwise bound exceeded by {excess} (tolerance {BOUND_ATOL})"
        )


def _as_p(state) -> float:
    return state.p if isinstance(state, State) else float(state)


# ---------------------------------------------------------------------------
# samplers


def _frame(v: np.ndarray):
    """Deterministic right-handed orthonormal frame (e1, e2, v)."""
    helper = Z_AXIS if abs(v[2]) <= 0.9 else X_AXIS
    e1 = np.cross(helper, v)
    e1 = e1 / np.sqrt(e1 @ e1)
    e2 = np.cross(v, e1)
    return e1, e2


def sample_uniform_sphere(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform unit vectors; one (z, phi) pair of uniforms per vector."""
    m = 1 if n is None else int(n)
    u = rng.random((m, 2))
    out = _sphere_points(u[:, 0], u[:, 1])
    return out[0] if n is None else out


def _sphere_points(z_u: np.ndarray, phi_u: np.ndarray) -> np.ndarray:
    """Unit vectors with lam_z = 2 z_u - 1 and azimuth 2pi phi_u."""
    out = np.empty((z_u.shape[0], 3))
    z = out[:, 2]
    np.multiply(z_u, 2.0, out=z)
    z -= 1.0
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = TWO_PI * phi_u
    np.multiply(np.cos(phi), s, out=out[:, 0])
    np.multiply(np.sin(phi), s, out=out[:, 1])
    return out


def sample_theta_hemisphere(
    rng: np.random.Generator, v: np.ndarray, n: int | None = None
) -> np.ndarray:
    """Vectors with density Theta(lam.v)/pi.

    The cosine of the angle to v has density 2c on [0, 1] (drawn as sqrt of a
    uniform); the azimuth about v is uniform.
    """
    v = check_unit(v, "v")
    m = 1 if n is None else int(n)
    u = rng.random((m, 2))
    c = np.sqrt(u[:, 0])
    phi = TWO_PI * u[:, 1]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    e1, e2 = _frame(v)
    s_cos, s_sin = s * np.cos(phi), s * np.sin(phi)
    out = np.empty((m, 3))
    for j in range(3):  # column by column: no (m, 3) temporaries
        out[:, j] = c * v[j] + s_cos * e1[j] + s_sin * e2[j]
    return out[0] if n is None else out


# ---------------------------------------------------------------------------
# densities


def _rho_given(coll, lam) -> np.ndarray:
    """rho_x(lam) from a precomputed collapse."""
    lam = np.asarray(lam, dtype=float)
    return (
        coll.p_plus * theta(dot3(lam, coll.v_plus))
        + coll.p_minus * theta(dot3(lam, coll.v_minus))
    ) * INV_PI


def _rho_tilde_given(state: State, coll, lam, clamp: bool = True) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    raw = _rho_given(coll, lam) - state.c * theta(lam[..., 2]) * INV_PI
    low = float(np.min(raw, initial=0.0))
    if low < -NEGATIVE_LIMIT:
        raise InternalConsistencyError(
            f"rho_tilde evaluated to {low}, beyond the -{NEGATIVE_LIMIT} rounding limit"
        )
    if clamp:
        return np.maximum(raw, 0.0)
    return raw


def eval_rho(state: State, x: np.ndarray, lam) -> np.ndarray:
    """The mixture density rho_x(lam) Alice must hand to Bob."""
    return _rho_given(collapse(state, x), lam)


def eval_rho_tilde(state: State, x: np.ndarray, lam, clamp: bool = True) -> np.ndarray:
    """rho_x(lam) minus its constant part (2p-1) Theta(lam.z)/pi.

    Non-negative in exact arithmetic; float rounding within the guard band is
    clamped to 0 (pass ``clamp=False`` to inspect the raw value).
    """
    return _rho_tilde_given(state, collapse(state, x), lam, clamp=clamp)


def rho_tilde_max_cos(state, cos_theta) -> np.ndarray:
    """The envelope density as a function of cos(theta) = lam.z."""
    p = _as_p(state)
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


def eval_rho_tilde_max(state, lam) -> np.ndarray:
    """Pointwise envelope of rhot_x over all settings x; depends only on lam.z."""
    lam = np.asarray(lam, dtype=float)
    return rho_tilde_max_cos(state, lam[..., 2])


def rho_tilde_bound(state) -> float:
    """Constant bound sqrt(p(1-p))/pi, the maximum of the envelope (at the equator)."""
    p = _as_p(state)
    return np.sqrt(p * (1.0 - p)) * INV_PI


def n_of_p(state) -> float:
    """Normalization of the envelope: its integral over the sphere.

    Closed form ``2p(1-p)/(2p-1) * ln(p/(1-p)) + 2(1-p)`` (natural log,
    validated against sphere quadrature).  Returns the limit 0 at p = 1.
    At p = 1/2 the closed form is 0/0 and the quadrature limit is 2, so the
    value is not useful as a message fraction; that endpoint is rejected.
    """
    p = _as_p(state)
    if not (0.5 <= p <= 1.0):
        raise DomainError(f"n_of_p is defined on (1/2, 1], got p={p}")
    if p == 0.5:
        raise DomainError("n_of_p is singular at p = 1/2 (the limit is 2, not a valid fraction)")
    if p == 1.0:
        return 0.0
    return 2.0 * p * (1.0 - p) / (2.0 * p - 1.0) * np.log(p / (1.0 - p)) + 2.0 * (1.0 - p)


def n_of_p_quadrature(state, epsabs: float = 1e-10) -> float:
    """Independent oracle for n_of_p: adaptive quadrature of the envelope."""
    p = _as_p(state)
    val, _ = integrate.quad(
        lambda c: rho_tilde_max_cos(p, c), -1.0, 1.0, epsabs=epsabs, epsrel=1e-12, limit=200
    )
    return TWO_PI * val


def one_bit_threshold() -> float:
    """Smallest p for which 4*rhot_x <= 1/pi everywhere: 1/2 + sqrt(3)/4."""
    return 0.5 + np.sqrt(3.0) / 4.0


def improved_one_bit_threshold() -> float:
    """Smallest p with n_of_p(p) <= 1 (about 0.835), to full float precision."""
    return optimize.brentq(lambda p: n_of_p(p) - 1.0, 0.75, 0.95, xtol=1e-14, rtol=8.9e-16)


# ---------------------------------------------------------------------------
# rejection samplers

_BLOCK = 8192


class _BufferedSampler:
    """A rejection sampler that scans candidates in whole blocks (``_refill``)
    and buffers the accepted ones, so ``draw`` granularity does not matter."""

    def __init__(self, state, rng: np.random.Generator, block: int, empty: str):
        p = _as_p(state)
        if p >= 1.0:
            raise DomainError(empty)  # the density is identically zero at p = 1
        self.state = State(p)
        self.rng = rng
        self.block = int(block)
        self.proposed = 0
        self.accepted = 0
        self._buffer: list[np.ndarray] = []

    def draw(self, n: int) -> np.ndarray:
        """The next ``n`` accepted samples; the rest of the last block is kept."""
        n = int(n)
        have = sum(b.shape[0] for b in self._buffer)
        while have < n:
            self._refill()
            have = sum(b.shape[0] for b in self._buffer)
        if not self._buffer:
            return np.zeros((0, 3))
        stacked = self._buffer[0] if len(self._buffer) == 1 else np.concatenate(self._buffer)
        out, rest = stacked[:n], stacked[n:]
        self._buffer = [rest] if rest.shape[0] else []
        return out.copy()

    @property
    def acceptance_fraction(self) -> float:
        return self.accepted / self.proposed if self.proposed else float("nan")


class RhoTildeMaxSampler(_BufferedSampler):
    """Draws lam ~ rhot_max / n_of_p by rejection from the uniform sphere.

    Each candidate consumes exactly three uniforms (z, phi, accept) and is
    accepted with probability rhot_max(lam) / (sqrt(p(1-p))/pi).  Candidates
    are scanned in generator order and buffered, so the accepted sequence is
    the same whether it is consumed one sample at a time or in bulk.
    """

    def __init__(self, state: State, rng: np.random.Generator, block: int = _BLOCK):
        super().__init__(state, rng, block, "the envelope density is identically zero at p = 1")
        self.bound = rho_tilde_bound(self.state.p)

    def _keep(self, u: np.ndarray) -> np.ndarray:
        """The accept test of the candidates with uniforms ``u`` (rows z, phi, accept)."""
        z = 2.0 * u[:, 0] - 1.0
        return u[:, 2] < rho_tilde_max_cos(self.state, z) / self.bound

    def _refill(self):
        u = self.rng.random((self.block, 3))
        keep = self._keep(u)
        self.proposed += self.block
        self.accepted += int(keep.sum())
        rows = np.flatnonzero(keep)
        self._buffer.append(_sphere_points(u[rows, 0], u[rows, 1]))


class EnvelopeScan:
    """Samples [lo, hi) of ``RhoTildeMaxSampler(state, rng).draw(n)``, by position.

    ``rng`` is stream (seed, *path) after its first ``offset`` draws.  The
    constructor reads the candidate blocks that ``draw(n)`` scans, with the
    same uniforms and the same accept test, but keeps only each block's
    accept bits (one bit per candidate) and the running count of samples.
    ``samples(lo, hi)`` re-reads just the blocks that hold samples lo..hi-1
    and builds only their vectors, so pieces of the draw can be made in any
    order, in parallel.  ``end`` is the stream position after the last block,
    where the stream's next draw begins.
    """

    def __init__(self, state: State, seed: int, path: tuple, offset: int, n: int):
        sampler = RhoTildeMaxSampler(state, generator_at(seed, path, offset))
        self.seed, self.path, self.offset, self.n = seed, tuple(path), int(offset), int(n)
        self.block = sampler.block
        bits, counts, total = [], [], 0
        while total < self.n:
            keep = sampler._keep(sampler.rng.random((self.block, 3)))
            total += int(keep.sum())
            bits.append(np.packbits(keep))
            counts.append(total)
        self.bits = bits  # packed, one array per block
        # counts[b]: samples in blocks 0..b
        self.counts = np.array(counts, dtype=np.int64)
        self.end = self.offset + 3 * self.block * len(counts)

    def samples(self, lo: int, hi: int) -> np.ndarray:
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(f"samples [{lo}, {hi}) lie outside [0, {self.n})")
        if lo == hi:
            return np.zeros((0, 3))
        b = int(np.searchsorted(self.counts, lo, side="right"))  # holds sample lo
        done = int(self.counts[b - 1]) if b else 0
        rng = generator_at(self.seed, self.path, self.offset + 3 * self.block * b)
        out = []
        while done < hi:
            u = rng.random((self.block, 3))
            rows = np.flatnonzero(np.unpackbits(self.bits[b], count=self.block))
            rows = rows[max(lo - done, 0) : hi - done]
            out.append(_sphere_points(u[rows, 0], u[rows, 1]))
            done = int(self.counts[b])
            b += 1
        return out[0] if len(out) == 1 else np.concatenate(out)


class RhoTildeSampler(_BufferedSampler):
    """Draws lam ~ rhot_x / (2(1-p)) by thinning RhoTildeMaxSampler output.

    A candidate from the envelope sampler is kept with probability
    rhot_x(lam) / rhot_max(lam) <= 1.  Buffered the same way, so per-round
    and bulk consumption coincide draw for draw.
    """

    def __init__(self, state: State, x: np.ndarray, rng: np.random.Generator, block: int = _BLOCK):
        super().__init__(state, rng, block, "rhot_x is identically zero at p = 1")
        self.x = check_unit(x, "x")
        self._coll = collapse(self.state, self.x)
        self._inner = RhoTildeMaxSampler(self.state, rng, block=block)

    def _refill(self):
        cand = self._inner.draw(self.block)
        u = self.rng.random(self.block)
        rt = _rho_tilde_given(self.state, self._coll, cand)
        rmax = eval_rho_tilde_max(self.state, cand)
        check_bound(rt * np.pi, rmax * np.pi, "rhot_x against its envelope")
        keep = u < rt / rmax
        self.proposed += self.block
        self.accepted += int(keep.sum())
        self._buffer.append(cand[keep])
