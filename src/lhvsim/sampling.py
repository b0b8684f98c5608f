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
by rejection using their proven envelopes, so the samplers are exact.  The
rejection samplers read their streams in fixed blocks, buffer the uniforms
of their candidates, and build and test vectors only as a draw needs them,
in stream order; ``proposed`` and ``accepted`` count the candidates tested.

A draw of n vectors is an (n, 3) array stored column-major, so that each
coordinate is one contiguous array for the dot products that read it.  The
protocols' hemisphere fields are ``ZHemisphere``s instead: they keep the
uniforms of the draw and build such an array of just the rows that are read.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .bloch import State, Z_AXIS, X_AXIS, check_unit, collapse, dot3, theta, unwrap_0d
from .errors import DomainError, InternalConsistencyError, ValidationError

INV_PI = 1.0 / np.pi
TWO_PI = 2.0 * np.pi

# rhot_x >= 0 in real arithmetic, but may round to a tiny negative in floats;
# clamp such values to 0, and raise beyond this limit.  BOUND_ATOL's argument
# below shows that the computed 2pi rhot_x is off by < 51u, so rhot_x itself
# is off by < 51u / 2pi < 9u.  2^-48 = 32u is over 3x that bound, so a value
# below -2^-48 is no rounding error.
NEGATIVE_LIMIT = 2.0**-48

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


def check_seed(seed) -> int:
    """``seed`` as an int; raises ValidationError unless it is an integer in
    [0, 2**64), the range of the u64 seed field of the wire's SETTING frame."""
    if isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64:
        return int(seed)
    raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")


_WORD = (1 << 64) - 1


def make_generator(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, *path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def stream_key(seed: int, *path: int) -> tuple:
    """The Philox key of stream (seed, *path) as two 64-bit words; it alone
    rebuilds the stream that ``make_generator(seed, *path)`` draws."""
    words = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


@cache
def _no_entropy():
    """A seed sequence that reads no OS entropy, for bit generators whose
    state is then set whole.  ``Philox(key=...)`` builds a ``SeedSequence()``
    from ``secrets`` on every call, for a seed it never uses.  It is made on
    first use, so that importing this module loads no ``numpy.random``."""

    class NoEntropy(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return NoEntropy()


def generator_at(key: tuple, offset: int) -> np.random.Generator:
    """Stream ``key`` positioned after its first ``offset`` 64-bit draws.

    Every float64 uniform takes one 64-bit draw, and one Philox counter step
    yields four, so the 256-bit counter is set to ``offset // 4``, with an
    empty buffer, and the remainder is drawn and dropped.  The next uniform
    equals the stream's ``offset``-th.
    """
    steps, rest = divmod(int(offset), 4)
    bits = np.random.Philox(_no_entropy())
    bits.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(steps >> s) & _WORD for s in (0, 64, 128, 192)], dtype=np.uint64),
            "key": np.array(key, dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # empty: the next draw steps the counter first
        "has_uint32": 0,
        "uinteger": 0,
    }
    rng = np.random.Generator(bits)
    if rest:
        rng.random(rest)
    return rng


def check_bound(value: np.ndarray, bound: np.ndarray, what: str) -> None:
    """Raise if ``value <= bound`` fails anywhere by more than ``BOUND_ATOL``.

    ``value`` must be a float array made for the check, as every caller's
    scaled temporary is: it is overwritten with ``value - bound``, so the
    check makes no array of its own.
    """
    excess = float(np.max(np.subtract(value, bound, out=value), initial=0.0))
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


def sample_uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform unit vectors; one (z, phi) pair of uniforms per vector."""
    u = rng.random((int(n), 2))
    return _sphere_points(u[:, 0], u[:, 1])


def _sphere_points(z_u: np.ndarray, phi_u: np.ndarray) -> np.ndarray:
    """Unit vectors with lam_z = 2 z_u - 1 and azimuth 2pi phi_u (column-major)."""
    out = np.empty((z_u.shape[0], 3), order="F")
    x, y, z = out.T
    np.multiply(z_u, 2.0, out=z)
    z -= 1.0
    # s = sqrt(max(1 - z^2, 0)) in x, phi = 2pi phi_u in y, then x = s cos phi
    # and y = s sin phi, with the operations of the plain expressions
    np.multiply(z, z, out=x)
    np.subtract(1.0, x, out=x)
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    np.multiply(TWO_PI, phi_u, out=y)
    cos = np.cos(y)
    np.sin(y, out=y)
    y *= x
    x *= cos
    return out


def _polar(c_u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Write c = sqrt(c_u), the cosine to the axis with density 2c on [0, 1],
    into ``c``; return s = sqrt(max(1 - c^2, 0)) as a new array."""
    np.sqrt(c_u, out=c)
    s = c * c  # then s = sqrt(max(1 - c^2, 0)), in place
    np.subtract(1.0, s, out=s)
    np.maximum(s, 0.0, out=s)
    np.sqrt(s, out=s)
    return s


def _hemisphere_points(c_u: np.ndarray, phi_u: np.ndarray) -> np.ndarray:
    """Vectors of density Theta(lam_z)/pi from their uniforms (column-major).

    lam_z = c = sqrt(c_u) and the azimuth is phi = 2pi phi_u.  The frame that
    ``_frame`` gives about ``Z_AXIS`` is e1 = (0, -1, 0), e2 = (1, 0, 0), so a
    row is (s sin phi, -s cos phi, c), written directly; ``+ 0.0`` and
    ``0.0 -`` turn -0.0 into +0.0 as the general sum does, so the bytes are
    those of the frame formula.  Every operation is elementwise, so a row's
    bytes do not depend on which other rows are built with it.
    """
    out = np.empty((c_u.shape[0], 3), order="F")
    x, y, c = out.T
    s = _polar(c_u, c)
    np.multiply(TWO_PI, phi_u, out=y)  # phi
    np.sin(y, out=x)
    x *= s
    x += 0.0
    np.cos(y, out=y)
    y *= s
    np.subtract(0.0, y, out=y)
    return out


def sample_theta_hemisphere(rng: np.random.Generator, v: np.ndarray, n: int) -> np.ndarray:
    """n vectors with density Theta(lam.v)/pi.

    The cosine of the angle to v has density 2c on [0, 1] (drawn as sqrt of a
    uniform); the azimuth about v is uniform.  Each vector reads one (c, phi)
    pair of uniforms; about ``Z_AXIS`` the rows are those of
    ``_hemisphere_points``, signed zeros included.
    """
    v = check_unit(v, "v")
    m = int(n)
    u = rng.random((m, 2))
    out = np.empty((m, 3), order="F")
    x, y, c = out.T
    s = _polar(u[:, 0], c)
    np.multiply(TWO_PI, u[:, 1], out=y)  # phi
    e1, e2 = _frame(v)
    s_cos = np.cos(y)
    s_cos *= s
    s *= np.sin(y)  # now s sin phi
    for j in range(3):  # column by column, c (column 2) last
        col = out[:, j]
        np.multiply(c, v[j], out=col)
        col += s_cos * e1[j]
        col += s * e2[j]
    return out


class ZHemisphere:
    """m vectors of density Theta(lam_z)/pi, kept as the (c, phi) uniforms
    that ``sample_theta_hemisphere(rng, Z_AXIS, m)`` reads, in its layout.

    Vectors are built only when read, by ``_hemisphere_points``, so a round
    whose vector is never read costs two uniforms and no sqrt, sin or cos.
    ``lam[rows]`` gives the vectors of ``rows``, an increasing array of row
    numbers (``np.flatnonzero`` of a mask), and a row slice builds its rows.
    ``lam.all()``, which ``np.asarray(lam)`` returns, is the (m, 3)
    column-major array of ``sample_theta_hemisphere``, built in one pass.
    The last rows read and every row are each built once and kept, read-only,
    so readers that ask for the same rows share them.
    """

    def __init__(self, u: np.ndarray):
        self.u = u  # (m, 2): each row's c and phi uniforms
        self.shape = (u.shape[0], 3)
        self._read = None  # the last rows read, and their vectors
        self._lam = None
        self._all = None

    def __getitem__(self, key):
        if isinstance(key, slice):
            u = self.u[key]
            return _hemisphere_points(u[:, 0], u[:, 1])
        if key.dtype.kind not in "iu":
            raise TypeError(f"rows must be row numbers, not {key.dtype}")
        if key.size == self.shape[0]:  # increasing, as many as there are rows
            return self.all()
        if self._read is None or not np.array_equal(key, self._read):
            u = np.take(self.u, key, axis=0)
            self._read, self._lam = key.copy(), _frozen(u)
        return self._lam

    def __array__(self, dtype=None, copy=None):
        return np.array(self.all(), dtype=dtype, copy=copy)

    def all(self) -> np.ndarray:
        if self._all is None:
            self._all = _frozen(self.u)
        return self._all


def _frozen(u: np.ndarray) -> np.ndarray:
    """The read-only vectors of the (c, phi) uniform rows ``u``."""
    lam = _hemisphere_points(u[:, 0], u[:, 1])
    lam.flags.writeable = False
    return lam


# ---------------------------------------------------------------------------
# densities


def _rho_tilde_given(state: State, coll, lam, clamp: bool = True) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    dp, dm = dot3(lam, coll.v_plus), dot3(lam, coll.v_minus)
    return _rho_tilde_dots(state, coll, dp, dm, lam[..., 2], clamp)


def _rho_tilde_dots(state: State, coll, dp, dm, lz, clamp: bool = True) -> np.ndarray:
    """rhot_x from dp = lam.v_+, dm = lam.v_- and lz = lam_z, with its
    rounding guard: rho_x minus its constant part, (p_+ Theta(dp) + p_-
    Theta(dm)) / pi - c Theta(lz) / pi, with the operations of that
    expression in its order, accumulated in two arrays.
    """
    raw = theta(dp, out=np.empty_like(dp, dtype=float))
    raw *= coll.p_plus
    term = theta(dm, out=np.empty_like(dm, dtype=float))
    term *= coll.p_minus
    raw += term
    raw *= INV_PI
    theta(lz, out=term)
    term *= state.c
    term *= INV_PI
    raw -= term
    low = float(np.min(raw, initial=0.0))
    if low < -NEGATIVE_LIMIT:
        raise InternalConsistencyError(
            f"rho_tilde evaluated to {low}, beyond the -{NEGATIVE_LIMIT} rounding limit"
        )
    if clamp:
        np.maximum(raw, 0.0, out=raw)
    return unwrap_0d(raw)


def eval_rho_tilde(state: State, x: np.ndarray, lam, clamp: bool = True) -> np.ndarray:
    """rho_x(lam) minus its constant part (2p-1) Theta(lam.z)/pi.

    Non-negative in exact arithmetic; float rounding within the guard band is
    clamped to 0 (pass ``clamp=False`` to inspect the raw value).
    """
    return _rho_tilde_given(state, collapse(state, x), lam, clamp=clamp)


def rho_tilde_max_cos(state, cos_theta) -> np.ndarray:
    """The envelope density as a function of cos(theta) = lam.z.

    (1 - C^2) / (sqrt(1 - C^2 (1 - c^2)) + C |c|) / 2pi with C = 2p - 1,
    operation for operation, accumulated in two arrays.
    """
    p = _as_p(state)
    c = np.asarray(cos_theta, dtype=float)
    big_c = 2.0 * p - 1.0
    if p >= 1.0:
        return np.zeros_like(c)
    out = np.multiply(c, c, out=np.empty_like(c))
    np.subtract(1.0, out, out=out)  # sin^2
    out *= big_c * big_c
    np.subtract(1.0, out, out=out)
    np.sqrt(out, out=out)
    term = np.abs(c, out=np.empty_like(c))
    term *= big_c
    out += term
    np.divide(1.0 - big_c * big_c, out, out=out)
    out /= TWO_PI
    return unwrap_0d(out)


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


def one_bit_threshold() -> float:
    """Smallest p for which 4*rhot_x <= 1/pi everywhere: 1/2 + sqrt(3)/4."""
    return 0.5 + np.sqrt(3.0) / 4.0


def improved_one_bit_threshold() -> float:
    """Smallest p with n_of_p(p) <= 1, about 0.835: the float that
    ``scipy.optimize.brentq`` returns for n_of_p(p) = 1, as the tests check."""
    return 0.834261756691355


# ---------------------------------------------------------------------------
# rejection samplers

_BLOCK = 8192


def _rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows of ``a`` where ``keep`` holds, as a column-major array."""
    return np.compress(keep, a.T, axis=1).T


class _BufferedSampler:
    """A rejection sampler that buffers its accepted candidates in stream
    order, so ``draw`` granularity does not matter.  ``_refill(need)``
    returns the accepted rows of the next candidates it tests, which replace
    the used-up buffer; ``proposed`` and ``accepted`` count the candidates
    it tested and kept."""

    def __init__(self, state, rng: np.random.Generator, empty: str, width: int):
        p = _as_p(state)
        if p >= 1.0:
            raise DomainError(empty)  # the density is identically zero at p = 1
        self.state = State(p)
        self.rng = rng
        self.block = _BLOCK  # candidates read per stream access
        self.proposed = 0
        self.accepted = 0
        self._buffer = np.zeros((0, width))  # accepted rows, column-major
        self._used = 0  # the buffer's rows already taken

    def _take(self, n: int) -> np.ndarray:
        """The next ``n`` buffered rows, refilling as needed, copied once into
        one column-major array; the rest is kept."""
        n = int(n)
        pieces, have = [], 0
        while have < n:
            if self._used == self._buffer.shape[0]:
                self._buffer, self._used = self._refill(n - have), 0
                continue
            k = min(self._buffer.shape[0] - self._used, n - have)
            pieces.append(self._buffer[self._used : self._used + k])
            have += k
            self._used += k
        # made after the refills, not among their temporaries: made first, it
        # read 8 % slower for the thinning sampler at p = 1/2
        out = np.empty((n, self._buffer.shape[1]), order="F")
        return np.concatenate(pieces, out=out) if pieces else out

    def draw(self, n: int) -> np.ndarray:
        """The next ``n`` samples; the rest of the buffer is kept."""
        return self._take(n)

    @property
    def acceptance_fraction(self) -> float:
        return self.accepted / self.proposed if self.proposed else float("nan")


class RhoTildeMaxSampler(_BufferedSampler):
    """Draws lam ~ rhot_max / n_of_p by rejection from the uniform sphere.

    Each candidate consumes exactly three uniforms (z, phi, accept) and is
    accepted with probability rhot_max(lam) / (sqrt(p(1-p))/pi).  Candidates
    are tested a whole block at a time, in generator order, and the (z, phi)
    uniforms of the accepted ones are buffered; ``draw`` turns into vectors
    only the rows it returns.  So the accepted sequence is the same whether
    it is consumed one sample at a time or in bulk, and a sampler opened at
    any block's start (``EnvelopeScan.sampler``) reads on as one from the
    start would.
    """

    def __init__(self, state: State, rng: np.random.Generator):
        super().__init__(state, rng, "the envelope density is identically zero at p = 1", width=2)
        self.bound = rho_tilde_bound(self.state.p)

    def draw(self, n: int) -> np.ndarray:
        """The next ``n`` accepted samples; the rest of the last block is kept."""
        u = self._take(n)
        return _sphere_points(u[:, 0], u[:, 1])

    def _keep(self, u: np.ndarray) -> np.ndarray:
        """The accept test of the candidates with uniforms ``u`` (rows z, phi, accept)."""
        z = np.multiply(2.0, u[:, 0])
        z -= 1.0
        ratio = rho_tilde_max_cos(self.state, z)
        ratio /= self.bound
        return u[:, 2] < ratio

    def _refill(self, need: int) -> np.ndarray:
        u = self.rng.random((self.block, 3))
        keep = self._keep(u)
        self.proposed += self.block
        self.accepted += int(np.count_nonzero(keep))
        return _rows(u[:, :2], keep)


# candidate blocks per unit of work of the envelope's counting pass
SCAN_BLOCKS = 16


def envelope_blocks(p: float, n: int) -> int:
    """The blocks that a draw of n envelope samples is expected to read,
    n / (block * N(p) / (4 sqrt(p(1-p)))), plus one; 0 for n = 0."""
    if n <= 0:
        return 0
    # accepted per candidate; N -> 2 as p -> 1/2
    rate = (2.0 if p == 0.5 else n_of_p(p)) / (4.0 * math.sqrt(p * (1.0 - p)))
    return int(math.ceil(n / (_BLOCK * rate))) + 1


class EnvelopeScan:
    """Where the samples of ``RhoTildeMaxSampler(state, rng).draw(n)`` lie.

    ``rng`` is stream ``key`` after its first ``offset`` draws.  The counting
    pass, ``scan_envelopes``, reads the candidate blocks that ``draw(n)``
    scans, with the same uniforms and the same accept test, and keeps only
    ``counts``, the running count of samples per block: 8 bytes per block
    of ``block`` candidates.  Block b starts at stream position ``offset +
    3 * block * b``, so the pass runs in ranges of ``SCAN_BLOCKS`` blocks,
    each from its own position.  ``sampler(lo)`` then reads the samples from
    any position on, in order, testing each block again, so pieces of the
    draw can be made in any order, in parallel.  ``end`` is the stream
    position after the last block, where the stream's next draw begins.
    """

    def __init__(self, state: State, key: tuple, offset: int, n: int):
        self.state = State(_as_p(state))
        if self.state.p >= 1.0:
            raise DomainError("the envelope density is identically zero at p = 1")
        self.key, self.offset, self.n = key, int(offset), int(n)
        self.block = _BLOCK
        self.counts = np.zeros(0, dtype=np.int64)  # counts[b]: samples in blocks 0..b
        self.end = self.offset

    def sampler(self, lo: int) -> RhoTildeMaxSampler:
        """A sampler of the scanned draw from sample ``lo`` on.  It opens the
        stream once, at the block that holds sample lo, drops that block's
        samples before lo, and reads on block after block."""
        b = int(np.searchsorted(self.counts, int(lo), side="right"))
        rng = generator_at(self.key, self.offset + 3 * self.block * b)
        sampler = RhoTildeMaxSampler(self.state, rng)
        sampler._take(int(lo) - (int(self.counts[b - 1]) if b else 0))
        return sampler


def _scan_range(unit) -> list:
    """The accepted counts of candidate blocks [b_lo, b_hi) of ``scan``,
    for ``unit = (scan, b_lo, b_hi)``."""
    scan, b_lo, b_hi = unit
    rng = generator_at(scan.key, scan.offset + 3 * scan.block * b_lo)
    keep = RhoTildeMaxSampler(scan.state, rng)._keep
    return [int(np.count_nonzero(keep(rng.random((scan.block, 3))))) for _ in range(b_lo, b_hi)]


def scan_envelopes(scans: list, map_fn=map) -> None:
    """Run the counting pass of every ``EnvelopeScan`` in ``scans``.

    The block ranges of all the scans are mapped with ``map_fn`` in one flat
    list.  The first wave covers ``envelope_blocks`` of each draw; a scan
    whose count falls short gets another wave for the samples it still
    needs.  Each scan is then cut at the first block where its running count
    reaches n, so its counts and end are those of one pass in order.
    ``map_fn`` must not run on a pool that one of its own tasks waits on.
    """
    counts = [[] for _ in scans]  # the blocks read so far
    pending = [i for i, scan in enumerate(scans) if scan.n > 0]
    while pending:
        units, owners = [], []
        for i in pending:
            lo = len(counts[i])
            hi = lo + envelope_blocks(scans[i].state.p, scans[i].n - sum(counts[i]))
            for b in range(lo, hi, SCAN_BLOCKS):
                units.append((scans[i], b, min(b + SCAN_BLOCKS, hi)))
                owners.append(i)
        for i, more in zip(owners, map_fn(_scan_range, units)):
            counts[i] += more
        pending = [i for i in pending if sum(counts[i]) < scans[i].n]
    for scan, scan_counts in zip(scans, counts):
        running = np.cumsum(np.array(scan_counts, dtype=np.int64))
        used = int(np.searchsorted(running, scan.n)) + 1 if scan.n > 0 else 0
        scan.counts = running[:used]
        scan.end = scan.offset + 3 * scan.block * used


class RhoTildeSampler(_BufferedSampler):
    """Draws lam ~ rhot_x / (2(1-p)) by thinning RhoTildeMaxSampler output.

    A candidate from the envelope sampler is kept with probability
    rhot_x(lam) / rhot_max(lam) <= 1.  The stream is read in whole blocks:
    the (z, phi) uniforms of ``block`` envelope samples, then ``block``
    thinning uniforms.  The pending candidates of the last block are tested
    in stream order, in pieces sized to what ``draw`` still needs, and each
    piece's vectors are built and checked against the envelope before its
    accept test.  Untested candidates wait for the next ``draw``, so
    per-round and bulk consumption coincide draw for draw.
    """

    def __init__(self, state: State, x: np.ndarray, rng: np.random.Generator, coll=None):
        super().__init__(state, rng, "rhot_x is identically zero at p = 1", width=3)
        self.x = check_unit(x, "x")
        # ``coll`` is collapse(state, x) if the caller has it already
        self._coll = collapse(self.state, self.x) if coll is None else coll
        self._inner = RhoTildeMaxSampler(self.state, rng)
        p = self.state.p
        # a candidate is kept with probability 2(1-p) / N(p), and N -> 2 as p -> 1/2
        self._rate = 2.0 * (1.0 - p) / (2.0 if p == 0.5 else n_of_p(p))
        self._cand = np.zeros((0, 2))  # (z, phi) uniforms of the pending candidates
        self._thin = np.zeros(0)  # their thinning uniforms
        self._next = 0  # the first untested candidate

    def _refill(self, need: int) -> np.ndarray:
        if self._next == self._thin.shape[0]:
            self._cand = self._inner._take(self.block)
            self._thin = self.rng.random(self.block)
            self._next = 0
        lo = self._next
        # about 10 % more candidates than ``need`` takes on average
        hi = self._next = min(lo + int(1.1 * need / self._rate) + 16, self.block)
        cand = _sphere_points(self._cand[lo:hi, 0], self._cand[lo:hi, 1])
        rt = _rho_tilde_given(self.state, self._coll, cand)
        rmax = eval_rho_tilde_max(self.state, cand)
        check_bound(rt * np.pi, rmax * np.pi, "rhot_x against its envelope")
        keep = self._thin[lo:hi] < rt / rmax
        self.proposed += hi - lo
        self.accepted += int(keep.sum())
        return _rows(cand, keep)
