"""The classical simulation protocols behind one common two-party interface.

Every protocol follows the same round shape:

1. shared randomness (vectors on S2, sometimes a shared bit) is drawn from
   distributions that depend only on the protocol and the state, never on
   the measurement settings;
2. Alice, knowing her setting x, picks which shared vector to use, possibly
   tells Bob through a bounded message, and outputs a;
3. Bob, knowing his setting y and the message, uses the agreed vector lam
   and outputs b = sgn(y . lam).

Each protocol is one ``PROTOCOLS`` entry, a ``ProtocolInfo`` holding its
domain in p, its shared and private layouts, its alphabet with the cost of
each symbol, and Alice's and Bob's rules.  The drawing, decision and
accounting code here and the wire mode read that entry and never branch on
the protocol, so the two cannot drift apart.

Alice and Bob are separate evaluators: ``alice_decide`` never receives y and
``bob_decide`` never receives x, so no-cross-talk is structural.  Their rules
never build the agreed vector: they take the dot products of the shared
fields' vectors (lam.v_+- and lam_z for Alice, y.lam for Bob) and select
among those per-round numbers, which are bit for bit the dot products of the
selected vectors.  A uniform or envelope field's dot products are taken for
every round of a tile.  A hemisphere field (``sampling.ZHemisphere``) serves
the constant part (2p-1) Theta(lam.z)/pi of Alice's density; it builds its
vectors, and the rules take their dot products, only in the rounds that
agree on it, a 2p-1 share on average.  Alice's committed vectors are Bob's rule
run on the shared fields' coordinates in place of their dot products with
y, so they are by construction the vectors Bob uses; they are built only
when ``AliceResult.lam`` is read.  The networked mode plays the same chunks
as ``simulate``, drawn by the same reader, so it produces bit-identical
results from the same streams.

Stream layout per setting pair k of a run with seed s and n rounds:

* shared randomness comes from stream (s, k, CH_SHARED), one block per
  field of the protocol's shared layout, in its order;
* Alice's private coins come from (s, k, CH_ALICE), whole arrays per block
  in the order of the protocol's private layout;
* Alice's rejection sampler (vector-message protocol only) for the pair's
  chunk j owns stream (s, k, CH_SAMPLER) if j = 0, else (s, k, CH_SAMPLER,
  j), and consumes it sample by sample from its start.

The shared and private layout is that of one n-round draw, and ``simulate``
and both parties of the networked mode read it through one reader,
``_play_tiles``, in chunks of ``CHUNK`` rounds.  It names a stream by its
Philox key, ``sampling.stream_key(s, k, channel)``, which alone rebuilds the
stream, so the networked mode hands Bob the shared key and never the seed.
A chunk of rounds [lo, hi) opens each stream block (``_Chunk``) at the
position where the n-round draw would reach round lo of it (Philox is
counter-based, so the jump is free) and reads only its own rows; a pair's
only chunk (n <= CHUNK) opens one generator per stream and reads every block
on from it, as the n-round draw does.  The envelope sampler of the improved
one-bit protocol consumes a data-dependent number of candidate blocks; for a
pair of more than one chunk, a counting pass over those blocks
(``sampling.EnvelopeScan``) keeps the running count of samples per block,
from which a chunk's envelope sampler finds the block that holds its first
sample and tests the candidates from there again.  Each candidate block has
a fixed stream position, so the pass runs in ranges of blocks, which
``simulate`` maps on its workers before the chunks.  Every chunk is thus one
independent unit of work, and outcomes and counts do not depend on the
number of workers or on the order chunks run in.

A chunk of a longer pair is played in tiles of ``TILE`` rounds, each drawn
inside the call that plays it: each block is opened once, at the chunk's
first round, and read on tile by tile, as are the envelope sampler, which
keeps the current candidate block's accepted uniforms, and the vector
sampler.  A worker or a party thus holds the arrays of at most one tile of a
long pair's chunk, or of one pair of at most ``CHUNK`` rounds, plus the
chunk's outcomes (a few bytes per round).  Each pair's scan holds 8 bytes
per block of 8192 candidates, about 3.4 KiB per 10^6 rounds at p = 0.99;
nothing else grows with n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .bloch import State, Z_AXIS, check_unit, collapse, dot3, pm, sign_pm, theta, unwrap_0d
from .errors import DomainError, InternalConsistencyError, ValidationError
from .sampling import (
    EnvelopeScan,
    RhoTildeMaxSampler,
    RhoTildeSampler,
    ZHemisphere,
    _is_integer,
    _rho_tilde_dots,
    check_bound,
    check_seed,
    envelope_ratio,
    generator_at,
    improved_one_bit_threshold,
    make_generator,
    n_of_p,
    one_bit_threshold,
    sample_uniform_sphere,
    scan_envelopes,
    stream_key,
)

CH_SHARED = 0
CH_ALICE = 1
CH_SAMPLER = 3

# Slack for one-bit's acceptance 4pi rhot_x <= 1, which holds in real
# arithmetic for p >= 1/2 + sqrt(3)/4 and is tight at the argmax (x and lam on
# the equator, lam.v_+ = 2 sqrt(p(1-p))), where it is 4 sqrt(p(1-p)).  With u = 2^-53:
# * the computed 4pi rhot_x is exactly twice the computed 2pi rhot_x (scaling by
#   a power of 2 commutes with rounding), so off by < 2 * 51u (see sampling.BOUND_ATOL);
# * the float one_bit_threshold() is off by < u, and the peak's slope there is
#   |d/dp 4 sqrt(p(1-p))| = 2 (2p - 1) / sqrt(p(1-p)) = 4 sqrt(3) < 6.93, so at
#   the smallest admitted p the real peak is < 1 + 7u.
# So an admitted p misses the bound by < 109u.  2^-44 = 512u is over 4x that.
RATIO_GUARD = 2.0**-44
# rounds per unit of work in ``simulate`` and per wire frame set
CHUNK = 1 << 16
# rounds that ``simulate`` plays at once in a chunk of a longer pair; bounds
# its memory per worker
TILE = 1 << 14
TRIT_BITS = float(np.log2(3.0))
# vector messages are sent as three raw float64 coordinates
VECTOR_MESSAGE_BITS = 3 * 64.0


class ProtocolId(enum.Enum):
    ONE_BIT = "one-bit"
    TRIT = "trit"
    DEGORRE = "degorre"
    TELEPORTATION = "teleportation"
    IMPROVED_ONE_BIT = "improved-one-bit"
    LOCAL_CONTENT = "local-content"


# ---------------------------------------------------------------------------
# shared randomness and private coins


@dataclass
class SharedDraw:
    """Per-round shared randomness; drawn without knowledge of any setting."""

    lam1: np.ndarray
    lam2: Optional[np.ndarray] = None
    lam3: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None  # shared bit, uint8

    @property
    def rounds(self) -> int:
        return self.lam1.shape[0]


@dataclass
class AlicePrivate:
    """Alice's private uniforms, pre-drawn as whole blocks for a tile."""

    u_msg: Optional[np.ndarray] = None
    u_out: Optional[np.ndarray] = None


class _Chunk:
    """Rounds [lo, hi) of a stream laid out for n rounds; ``at(offset)``
    opens the stream at position ``offset``.

    ``block(width)`` opens the stream where the n-round draw reaches round lo
    of its next block of ``width`` uniforms per round.  ``envelope`` reads
    the ``EnvelopeScan`` of the stream's envelope draw through one sampler
    from the chunk's first sample.  ``tile(a, b)`` narrows the reads to the
    chunk's next rounds [a, b): the first tile opens each block and the
    sampler, and later tiles read on from them, as a block's rows and the
    envelope's samples are contiguous.  A pair's only chunk with no scan
    reads the n-round draw in order: it opens one generator, at the start,
    reads every block on from it, and draws the envelope whole.
    """

    def __init__(self, at: Callable, n: int, lo: int, hi: int, scan=None):
        if scan is None and (lo, hi) == (0, n):
            rng = at(0)
            at = lambda offset: rng
        self.at, self.n, self.lo = at, n, lo
        self.rounds = hi - lo
        self.scan = scan
        self.sampler = None  # the envelope's, opened by the first tile
        self.start = 0  # stream position where the next block begins
        self.opened = []  # the blocks' generators, in layout order
        self.read = 0  # the blocks the current tile has read

    def tile(self, lo: int, hi: int) -> "_Chunk":
        self.lo, self.rounds, self.read = lo, hi - lo, 0
        return self

    def block(self, width: int) -> np.random.Generator:
        if self.read == len(self.opened):
            self.opened.append(self.at(self.start + self.lo * width))
            self.start += self.n * width
        self.read += 1
        return self.opened[self.read - 1]

    def envelope(self, state: State) -> np.ndarray:
        if self.sampler is None:  # the first tile's
            if self.scan is None:  # a pair's only chunk: drawn whole, on from its generator
                self.sampler = RhoTildeMaxSampler(state, self.at(self.start))
            else:
                self.sampler = self.scan.sampler(self.lo)
                self.start = self.scan.end
        return self.sampler.draw(self.rounds)


# The laws of the shared layouts.  Each reads its own blocks from ``src``,
# a ``_Chunk``, one bulk call per block.


def _uniform(state: State, src) -> np.ndarray:
    return sample_uniform_sphere(src.block(2), src.rounds)


def _hemisphere(state: State, src):
    # the (c, phi) uniforms of the rounds' z-hemisphere vectors; vectors are
    # built only for the rounds that read them, 2p-1 of them on average.  At
    # p = 1 every round reads them: the (n, 3) array is built here, while the
    # uniforms are in cache, and they are dropped
    lam = ZHemisphere(src.block(2).random((src.rounds, 2)))
    return lam.all() if state.p == 1.0 else lam


def _envelope(state: State, src) -> np.ndarray:
    if state.p < 1.0:
        return src.envelope(state)
    lam = np.empty((src.rounds, 3), order="F")
    lam[:] = Z_AXIS  # never used: r == 0 in every round
    return lam


def _bit_below_n_of_p(state: State, src) -> np.ndarray:
    fraction = 0.0 if state.p == 1.0 else n_of_p(state)
    return (src.block(1).random(src.rounds) < fraction).view(np.uint8)


def _bit_above_c(state: State, src) -> np.ndarray:
    return (src.block(1).random(src.rounds) >= state.c).view(np.uint8)  # P(r=0) = 2p-1


def draw_shared(
    protocol: ProtocolId, state: State, rng: np.random.Generator, n: int
) -> SharedDraw:
    """Draw the shared randomness of ``n`` rounds from ``rng`` in one pass.

    Draw order is the protocol's shared layout: one bulk call per field.
    This whole-n draw is the layout that ``_play_tiles`` reads in tiles,
    and the reference that tests and the benchmark's traced run read.
    """
    return _draw_shared(protocol, state, _Chunk(lambda offset: rng, n, 0, n))


def _draw_shared(protocol: ProtocolId, state: State, src) -> SharedDraw:
    return SharedDraw(**{name: law(state, src) for name, law in PROTOCOLS[protocol].shared})


def draw_alice_private(protocol: ProtocolId, rng: np.random.Generator, n: int) -> AlicePrivate:
    """Alice's private uniforms: message-decision block first, output block second."""
    return _draw_alice_private(protocol, _Chunk(lambda offset: rng, n, 0, n))


def _draw_alice_private(protocol: ProtocolId, src) -> AlicePrivate:
    blocks = PROTOCOLS[protocol].private
    return AlicePrivate(**{name: src.block(1).random(src.rounds) for name in blocks})


def _play_tiles(protocol, state, n, lo, hi, key, scan, priv_key, play) -> list:
    """``play(t_lo, t_hi, shared, priv)`` of each tile [t_lo, t_hi) of chunk
    [lo, hi) of pair k's n-round draws, in order: the whole chunk if it is the
    pair's only one, else ``TILE`` rounds each.  ``key`` is ``stream_key(seed,
    k, CH_SHARED)``, ``scan`` its ``envelope_scans`` entry, and ``priv_key``
    ``stream_key(seed, k, CH_ALICE)``, or None to draw no private coins.  Each
    stream is opened once and read on tile by tile, and each tile is drawn in
    the call that plays it, so its draws are dropped before the next tile's.
    """
    src = _Chunk(partial(generator_at, key), n, lo, hi, scan)
    priv_src = None if priv_key is None else _Chunk(partial(generator_at, priv_key), n, lo, hi)

    def private(a, b):
        if priv_src is None:
            return AlicePrivate()
        return _draw_alice_private(protocol, priv_src.tile(a, b))

    whole = (lo, hi) == (0, n)
    tiles = [(lo, hi)] if whole else [(a, min(a + TILE, hi)) for a in range(lo, hi, TILE)]
    return [
        play(a, b, _draw_shared(protocol, state, src.tile(a, b)), private(a, b)) for a, b in tiles
    ]


class _NoStream:
    """The stream of a chunk of no rounds, whose laws ask it for no uniforms."""

    random = staticmethod(np.empty)


def _field_start(info, state, n, k) -> int:
    """The stream position where field k of the n-round shared layout begins:
    the fields before it are drawn for no rounds, from no stream.  None of
    them may be the envelope, whose length only its draw tells."""
    before = _Chunk(lambda offset: _NoStream, n, 0, 0)
    for _, law in info.shared[:k]:
        law(state, before)
    return before.start


def talk_chunk(protocol, state, key, n, lo, hi) -> np.ndarray:
    """The rounds of [lo, hi) of the n-round shared draw of Philox key ``key``
    in which Alice talks: those with shared bit r = 1, or all with no r.  Only
    r's block is opened, at ``_field_start``.  It is read ``TILE`` rounds at a
    time, so no uniforms of the whole chunk are held.  A protocol without r
    opens no stream."""
    info = PROTOCOLS[protocol]
    names = [name for name, _ in info.shared]
    talk = np.ones(hi - lo, dtype=bool)
    if "r" not in names:
        return talk
    k = names.index("r")
    start = _field_start(info, state, n, k)
    src = _Chunk(lambda offset: generator_at(key, start + offset), n, lo, hi)
    for a in range(lo, hi, TILE):
        b = min(a + TILE, hi)
        np.equal(info.shared[k][1](state, src.tile(a, b)), 1, out=talk[a - lo : b - lo])
    return talk


def envelope_scans(protocol, state, keys, n, map_fn=map) -> list:
    """The counting pass over the envelope candidates of the n-round shared
    draw of each Philox key in ``keys``, its block ranges mapped with
    ``map_fn`` (``sampling.scan_envelopes``).

    None for each key if the pairs draw no envelope, or have at most
    ``CHUNK`` rounds: a pair's only chunk draws the envelope whole, testing
    each candidate.  The candidates start at the envelope's ``_field_start``.
    """
    info = PROTOCOLS[protocol]
    if n <= CHUNK or not info.draws_envelope(state):
        return [None] * len(keys)
    k = [law for _, law in info.shared].index(_envelope)
    start = _field_start(info, state, n, k)
    scans = [EnvelopeScan(state, key, start, n) for key in keys]
    scan_envelopes(scans, map_fn)
    return scans


# ---------------------------------------------------------------------------
# the two parties


def _dots(lam: np.ndarray, coll) -> tuple:
    """lam.v_+ and lam.v_- per round."""
    return dot3(lam, coll.v_plus), dot3(lam, coll.v_minus)


def _weight_given(coll, dp, dm) -> np.ndarray:
    """The +1 share of rho_x, from dp = lam.v_+ and dm = lam.v_-.

    clip(num / (num + p_- Theta(dm)), 0, 1) with num = p_+ Theta(dp),
    accumulated in two arrays.
    """
    num = theta(dp, out=np.empty_like(dp, dtype=float))
    num *= coll.p_plus
    den = theta(dm, out=np.empty_like(dm, dtype=float))
    den *= coll.p_minus
    den += num
    if np.any(den <= 0.0):
        raise InternalConsistencyError(
            "rho_x(lam) = 0: this lam cannot come from a correct sampling step"
        )
    np.divide(num, den, out=num)
    return unwrap_0d(np.clip(num, 0.0, 1.0, out=num))


def _output(coll, dp, dm, priv: AlicePrivate) -> np.ndarray:
    """Alice's a for the committed lam, given its dot products dp, dm with v_+-."""
    return pm(priv.u_out < _weight_given(coll, dp, dm))


def _one_or_two(first: np.ndarray) -> np.ndarray:
    """Symbol 1 where ``first`` holds, else 2 (uint8)."""
    return np.uint8(2) - first.view(np.uint8)


def _select(mask: np.ndarray, if_true: tuple, if_false: tuple) -> tuple:
    """Per round, the arrays of ``if_true`` where ``mask`` holds, else those of
    ``if_false``, as new arrays (``np.where`` beats a masked copy at any density)."""
    return tuple(np.where(mask, a, b) for a, b in zip(if_true, if_false))


def _dots_where(mask: np.ndarray, d: tuple, lam, coll) -> tuple:
    """d, the (lam.v_+, lam.v_-) of each round, with the rounds where ``mask``
    holds taking those of ``lam``'s vectors there; written over d's arrays.
    Only those rows of ``lam`` are built."""
    if mask.all():
        return _dots(np.asarray(lam), coll)
    rows = np.flatnonzero(mask)  # row numbers gather and scatter faster than masks
    if rows.size:
        for a, b in zip(d, _dots(lam[rows], coll)):
            a[rows] = b
    return d


# Alice's rules: (state, collapse(state, x), shared, private, sampler) ->
# (a, msg, payload).  msg is a uint8 symbol, 0 for a silent round; payload
# holds the vector messages, or is None.  ``simulate`` collapses x once per
# pair and hands the result to every tile.  The rules never build the
# vectors they commit to: they select among the dot products of each shared
# field with v_+ and v_-, which give the same bytes as the dot products of
# the selected vectors.  The hemisphere field serves the constant part of
# rho_x, so its dot products are taken only in the rounds that commit to it.
# Each step does the IEEE operations of its plain expression, in its order,
# in fewer passes: arithmetic accumulates in place (``out=``), a choice
# between two arrays is ``np.where`` or ``np.maximum``, never a masked copy,
# and a subset of rounds is read and written by row number (``flatnonzero``)
# or through a ufunc's ``where=``, never by a boolean gather.  Each array is
# dropped (``del``) once read for the last time, so that a chunk holds no
# more round-length arrays at once than selecting (n, 3) vectors did.


def _alice_one_bit(state, coll, shared, priv, sampler):
    d1 = _dots(shared.lam1, coll)
    accept = _rho_tilde_dots(state, coll, *d1, shared.lam1[:, 2])
    accept *= 4.0 * np.pi
    top = float(np.max(accept, initial=0.0))
    if top > 1.0 + RATIO_GUARD:
        raise DomainError(
            f"one-bit acceptance probability reached {top}: p is below the threshold"
        )
    use1 = priv.u_msg < np.minimum(accept, 1.0, out=accept)
    del accept
    msg = _one_or_two(use1)
    d = _dots_where(~use1, d1, shared.lam2, coll)
    del d1
    return _output(coll, *d, priv), msg, None


def _alice_trit(state, coll, shared, priv, sampler):
    d1, d2 = _dots(shared.lam1, coll), _dots(shared.lam2, coll)
    k = 0 if coll.p_plus <= 0.5 else 1  # |lam.v| for v, the less likely of v_+-
    abs1, d_c = np.abs(d1[k]), np.abs(d2[k])
    first = abs1 >= d_c
    c = _one_or_two(first)
    # |lam_c.v| of the chosen lam_c; abs gives no -0.0, so ties are one value
    np.maximum(abs1, d_c, out=d_c)
    del abs1
    d = _select(first, d1, d2)  # lam_c.v_+-
    del d1, d2
    rt = _rho_tilde_dots(
        state, coll, *d, np.where(first, shared.lam1[:, 2], shared.lam2[:, 2])
    )
    # the pointwise bound rhot_x <= |lam.v| / 2pi, checked with an
    # absolute tolerance (see sampling.BOUND_ATOL), never on the ratio
    check_bound(rt * (2.0 * np.pi), d_c, "trit choice density")
    pos = d_c > 0.0
    d_c /= 2.0 * np.pi
    ratio = np.divide(rt, d_c, out=np.zeros(shared.rounds), where=pos)  # 0 where d_c = 0
    del rt, d_c, pos
    keep = priv.u_msg < np.minimum(ratio, 1.0, out=ratio)
    del ratio
    msg = np.where(keep, c, np.uint8(3))
    d = _dots_where(~keep, d, shared.lam3, coll)
    return _output(coll, *d, priv), msg, None


def _alice_degorre(state, coll, shared, priv, sampler):
    v = coll.v_plus
    c1, c2 = _choice_and_flip(dot3(shared.lam1, v), dot3(shared.lam2, v))
    # a = sgn(lam.v) of the chosen lam, which is the flip c2
    return c2, c1, None


def _alice_teleportation(state, coll, shared, priv, sampler):
    plus = priv.u_out < coll.p_plus  # lam.v for Bob's state v: v_+ where plus, else v_-
    a = pm(plus)
    d1, d2 = (np.where(plus, *_dots(lam, coll)) for lam in (shared.lam1, shared.lam2))
    c1, c2 = _choice_and_flip(d1, d2)
    msg = 2 * (c1 - 1) + (c2 == -1) + 1  # uint8, as c1 is
    return a, msg, None


def _alice_improved_one_bit(state, coll, shared, priv, sampler):
    talk = shared.r == 1
    d1 = _dots(shared.lam1, coll)
    use1 = np.zeros(shared.rounds, dtype=bool)  # no silent round uses lam1
    rows = np.flatnonzero(talk)
    if rows.size:
        lz = shared.lam1[:, 2][rows]
        ratio = envelope_ratio(state, coll, d1[0][rows], d1[1][rows], lz, "improved one-bit envelope")
        use1[rows] = priv.u_msg[rows] < np.minimum(ratio, 1.0, out=ratio)
        del lz, ratio
    d = _dots_where(~use1, d1, shared.lam2, coll)
    del d1
    msg = talk.view(np.uint8) * _one_or_two(use1)  # 0 in silent rounds
    return _output(coll, *d, priv), msg, None


def _alice_local_content(state, coll, shared, priv, sampler):
    talk = shared.r == 1
    m = shared.rounds
    d = _dots_where(~talk, (np.empty(m), np.empty(m)), shared.lam1, coll)
    payload = None
    rows = np.flatnonzero(talk)
    if rows.size:
        if sampler is None:
            raise ValidationError("local-content protocol needs Alice's vector sampler")
        payload = sampler.draw(rows.size)
        for a, b in zip(d, _dots(payload, coll)):
            a[rows] = b
    return _output(coll, *d, priv), talk.view(np.uint8), payload


def _choice_and_flip(d1: np.ndarray, d2: np.ndarray):
    """Choice-of-two plus sign flip: the two-bit encoding of the hemisphere law.

    From the signed dot products d1 = lam1.v and d2 = lam2.v: c1 picks the
    vector with the larger |lam.v|, and c2 = sgn(lam_c1.v) flips it into the
    v hemisphere, so c2 * lam_c1 is the encoded vector.
    """
    first = np.abs(d1) >= np.abs(d2)
    c1 = _one_or_two(first)
    c2 = sign_pm(np.where(first, d1, d2))
    return c1, c2


# Bob's rules: (shared, msg, payload, f) -> f(lam) for the agreed vector lam,
# selected per round (last axis) among f of the shared fields.  f maps (n, 3)
# vectors to a new array: y . lam for Bob (``partial(dot3, b=y)``), and for
# Alice's commit the (3, n) coordinates (``_coordinates``), so the vectors
# she commits to are by construction those Bob uses.  A hemisphere field is
# read only in the rounds that agree on it, the rounds whose vectors Alice's
# rule built.


def _coordinates(lam: np.ndarray) -> np.ndarray:
    """The (3, n) coordinates of (n, 3) vectors, as a new array."""
    return lam.T.copy()


def _put(d: np.ndarray, mask: np.ndarray, lam, f) -> np.ndarray:
    """d with f of ``lam``'s vectors in the rounds where ``mask`` holds, written
    over d.  Only those rows of ``lam`` are read, so a ``ZHemisphere`` builds
    no other."""
    if mask.all():
        return f(np.asarray(lam))
    rows = np.flatnonzero(mask)
    if rows.size:
        d[..., rows] = f(lam[rows])
    return d


def _bob_first_or_second(shared, msg, payload, f):
    return _put(f(shared.lam1), msg != 1, shared.lam2, f)


def _bob_trit(shared, msg, payload, f):
    d = np.where(msg == 1, f(shared.lam1), f(shared.lam2))
    return _put(d, msg == 3, shared.lam3, f)


def _bob_teleportation(shared, msg, payload, f):
    # symbols 1, 2 name lam1 and 3, 4 lam2; the even ones flip its sign.
    # c2 (lam.y) equals (c2 lam).y up to the sign of a zero, which sgn ignores
    d = _bob_first_or_second(shared, (msg + 1) // 2, payload, f)
    return np.negative(d, out=d, where=msg % 2 == 0)


def _bob_local_content(shared, msg, payload, f):
    got = msg == 1
    if not np.any(got):
        return f(np.asarray(shared.lam1))
    if payload is None:
        raise ValidationError("vector message rounds present but no payload given")
    sent = f(payload)
    d = np.empty(sent.shape[:-1] + got.shape)
    d[..., np.flatnonzero(got)] = sent
    return _put(d, ~got, shared.lam1, f)


# ---------------------------------------------------------------------------
# the protocol table


@dataclass(frozen=True)
class ProtocolInfo:
    """One protocol, whole: what the rest of the package knows of it.

    ``shared`` lists (SharedDraw field, law) in draw order; ``private`` lists
    the AlicePrivate fields in draw order.  ``cost[s]`` is the bits charged
    for a round with symbol s, where symbol 0 is a silent round, so the
    alphabet is symbols 1..len(cost)-1.
    """

    shared: tuple
    private: tuple
    cost: tuple
    alice: Callable
    bob: Callable
    p_range: str = "1/2 <= p <= 1"  # the domain, as check_applicable states it
    applies: Callable[[float], bool] = lambda p: True  # the domain
    vector_message: bool = False  # Alice samples a vector and sends it as the message

    @property
    def alphabet_size(self) -> int:
        return len(self.cost) - 1

    def draws_envelope(self, state: State) -> bool:
        return state.p < 1.0 and any(law is _envelope for _, law in self.shared)


_TWO_UNIFORM = (("lam1", _uniform), ("lam2", _uniform))

PROTOCOLS = {
    ProtocolId.ONE_BIT: ProtocolInfo(
        shared=(("lam1", _uniform), ("lam2", _hemisphere)),
        private=("u_msg", "u_out"),
        cost=(0.0, 1.0, 1.0),
        alice=_alice_one_bit,
        bob=_bob_first_or_second,
        p_range="1/2 + sqrt(3)/4 <= p <= 1 (>= 0.9330127)",
        applies=lambda p: p >= one_bit_threshold(),
    ),
    ProtocolId.TRIT: ProtocolInfo(
        shared=_TWO_UNIFORM + (("lam3", _hemisphere),),
        private=("u_msg", "u_out"),
        cost=(0.0, TRIT_BITS, TRIT_BITS, TRIT_BITS),
        alice=_alice_trit,
        bob=_bob_trit,
    ),
    ProtocolId.DEGORRE: ProtocolInfo(
        shared=_TWO_UNIFORM,
        private=(),
        cost=(0.0, 1.0, 1.0),
        alice=_alice_degorre,
        bob=_bob_first_or_second,
        p_range="p = 1/2",
        applies=lambda p: p == 0.5,  # the choice method is the exact model only there
    ),
    ProtocolId.TELEPORTATION: ProtocolInfo(
        shared=_TWO_UNIFORM,
        private=("u_out",),
        cost=(0.0, 2.0, 2.0, 2.0, 2.0),
        alice=_alice_teleportation,
        bob=_bob_teleportation,
    ),
    ProtocolId.IMPROVED_ONE_BIT: ProtocolInfo(
        # the bit comes first: the envelope reads a data-dependent number of uniforms
        shared=(("r", _bit_below_n_of_p), ("lam1", _envelope), ("lam2", _hemisphere)),
        private=("u_msg", "u_out"),
        cost=(0.0, 1.0, 1.0),
        alice=_alice_improved_one_bit,
        bob=_bob_first_or_second,
        p_range="n_of_p(p) <= 1 (>= 0.8342618)",
        applies=lambda p: p >= improved_one_bit_threshold(),
    ),
    ProtocolId.LOCAL_CONTENT: ProtocolInfo(
        shared=(("lam1", _hemisphere), ("r", _bit_above_c)),
        private=("u_out",),
        cost=(0.0, VECTOR_MESSAGE_BITS),
        alice=_alice_local_content,
        bob=_bob_local_content,
        vector_message=True,
    ),
}


def check_applicable(protocol: ProtocolId, state: State) -> None:
    """Raise DomainError (naming the valid range) if the state is out of range."""
    info = PROTOCOLS[protocol]
    if not info.applies(state.p):
        raise DomainError(
            f"protocol '{protocol.value}' requires {info.p_range}, got p={state.p}"
        )


def _checked_run(protocol: ProtocolId, state: State, settings, rounds, seed) -> tuple:
    """A run's validated (x, y) pairs, rounds per pair and seed; raises
    DomainError or ValidationError."""
    check_applicable(protocol, state)
    pairs = [(check_unit(x, "x"), check_unit(y, "y")) for x, y in settings]
    if not _is_integer(rounds):
        raise ValidationError(f"rounds_per_setting must be an integer >= 0, got {rounds!r}")
    if rounds < 0:
        raise ValidationError("rounds_per_setting must be >= 0")
    return pairs, int(rounds), check_seed(seed)


@dataclass
class AliceResult:
    a: np.ndarray  # int8, +-1
    msg: np.ndarray  # uint8 symbol in {1..d}; 0 = no message this round
    cost: tuple = field(repr=False)  # bits charged per symbol
    commit: Callable[[], np.ndarray] = field(repr=False)  # Bob's rule on coordinates
    payload: Optional[np.ndarray] = None  # vector messages, in msg!=0 row order

    @cached_property
    def bits(self) -> np.ndarray:
        """float64 bits charged per round, the cost of msg, built on first read."""
        return np.take(self.cost, self.msg)

    @cached_property
    def lam(self) -> np.ndarray:
        """The (n, 3) vectors Alice committed to (for diagnostics), built on first read."""
        return self.commit().T


def alice_decide(
    protocol: ProtocolId,
    state: State,
    x: np.ndarray,
    shared: SharedDraw,
    priv: AlicePrivate,
    sampler: Optional[RhoTildeSampler] = None,
) -> AliceResult:
    """Alice's whole round: commit to a vector, message Bob, output a."""
    coll = collapse(state, x)  # validates x
    return _alice(PROTOCOLS[protocol], state, coll, shared, priv, sampler)


def _alice(info: ProtocolInfo, state, coll, shared, priv, sampler) -> AliceResult:
    """``alice_decide`` given ``coll = collapse(state, x)``."""
    a, msg, payload = info.alice(state, coll, shared, priv, sampler)
    commit = partial(info.bob, shared, msg, payload, _coordinates)
    return AliceResult(a=a, msg=msg, cost=info.cost, payload=payload, commit=commit)


def bob_decide(
    protocol: ProtocolId,
    y: np.ndarray,
    shared: SharedDraw,
    msg: np.ndarray,
    payload: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bob's whole round: y . lam for the vector the message agrees on, and b = its sign."""
    y = check_unit(y, "y")
    return _bob(PROTOCOLS[protocol], partial(dot3, b=y), shared, msg, payload)


def _bob(info: ProtocolInfo, y_dot, shared, msg, payload) -> np.ndarray:
    """``bob_decide`` given ``y_dot = partial(dot3, b=y)``."""
    return sign_pm(info.bob(shared, msg, payload, y_dot))


# ---------------------------------------------------------------------------
# one chunk of play


@dataclass
class BatchResult:
    a: np.ndarray
    b: np.ndarray
    msg: np.ndarray
    bits: np.ndarray
    lam: Optional[np.ndarray]  # Alice's committed vectors, or None if not kept


def _vector_sampler(protocol, state, x, seed, k, lo, coll=None) -> Optional[RhoTildeSampler]:
    """Alice's sampler for pair k's chunk j = lo // CHUNK, on stream (seed, k,
    CH_SAMPLER) if j = 0, else (seed, k, CH_SAMPLER, j); None, with no
    stream opened, if the pair sends no vectors.  ``coll`` is collapse(state,
    x) if the caller has it already."""
    if not PROTOCOLS[protocol].vector_message or state.p >= 1.0:
        return None
    chunk = lo // CHUNK
    path = (k, CH_SAMPLER, chunk) if chunk else (k, CH_SAMPLER)
    return RhoTildeSampler(state, x, make_generator(seed, *path), coll)


# ---------------------------------------------------------------------------
# aggregation over setting pairs


@dataclass
class SettingResult:
    """Counts and communication totals for one (x, y) pair."""

    x: np.ndarray
    y: np.ndarray
    rounds: int
    counts: np.ndarray  # (2, 2) int64, index 0 -> outcome +1
    bits_sum: float
    symbol_counts: np.ndarray  # histogram over symbols 0..d (0 = silent)
    a_seq: Optional[np.ndarray] = None
    b_seq: Optional[np.ndarray] = None
    msg_seq: Optional[np.ndarray] = None
    lam_seq: Optional[np.ndarray] = None

    @property
    def message_rounds(self) -> int:
        return int(self.rounds - self.symbol_counts[0])


def _aggregate(
    protocol: ProtocolId,
    x: np.ndarray,
    y: np.ndarray,
    res: BatchResult,
    keep_outcomes: bool,
    keep_lambdas: bool,
) -> SettingResult:
    n = res.a.shape[0]
    ia = (res.a == -1).view(np.uint8)
    ib = (res.b == -1).view(np.uint8)
    counts = np.bincount(ia * np.uint8(2) + ib, minlength=4).reshape(2, 2)
    d = PROTOCOLS[protocol].alphabet_size
    symbol_counts = np.bincount(res.msg, minlength=d + 1)
    return SettingResult(
        x=x,
        y=y,
        rounds=n,
        counts=counts,
        bits_sum=float(res.bits.sum()),
        symbol_counts=symbol_counts,
        a_seq=res.a if keep_outcomes else None,
        b_seq=res.b if keep_outcomes else None,
        msg_seq=res.msg if keep_outcomes else None,
        lam_seq=res.lam if keep_lambdas else None,
    )


@dataclass
class SimulationResult:
    protocol: ProtocolId
    state: State
    rounds_per_setting: int
    seed: int
    settings: list = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return sum(s.rounds for s in self.settings)

    @property
    def mean_bits(self) -> float:
        n = self.total_rounds
        return sum(s.bits_sum for s in self.settings) / n if n else 0.0

    def _cost_and_counts(self) -> tuple:
        """Bits per symbol, and the rounds of each symbol over all pairs."""
        cost = np.asarray(PROTOCOLS[self.protocol].cost)
        counts = sum((s.symbol_counts for s in self.settings), np.zeros(cost.shape, np.int64))
        return cost, counts

    @property
    def bits_stderr(self) -> float:
        """Standard error of ``mean_bits``, from the symbol counts.

        Costs are taken relative to the commonest symbol's, so the variance
        does not cancel, and a run whose symbols all cost the same gets 0.
        """
        n = self.total_rounds
        if n < 2:
            return 0.0
        cost, counts = self._cost_and_counts()
        dev = cost - cost[np.argmax(counts)]
        mean = float(counts @ dev) / n
        var = max(float(counts @ (dev * dev)) / n - mean * mean, 0.0)
        return float(np.sqrt(var / n))

    @property
    def worst_bits(self) -> float:
        cost, counts = self._cost_and_counts()
        return float(cost[counts > 0].max(initial=0.0))

    @property
    def no_message_fraction(self) -> float:
        n = self.total_rounds
        if n == 0:
            return 0.0
        return 1.0 - sum(s.message_rounds for s in self.settings) / n


def _merge(parts: list) -> SettingResult:
    """One pair's chunk results, in chunk order, as one result."""
    if len(parts) == 1:
        return parts[0]

    def joined(name):
        seqs = [getattr(part, name) for part in parts]
        return None if seqs[0] is None else np.concatenate(seqs)

    return SettingResult(
        x=parts[0].x,
        y=parts[0].y,
        rounds=sum(part.rounds for part in parts),
        counts=sum(part.counts for part in parts),
        bits_sum=sum(part.bits_sum for part in parts),
        symbol_counts=sum(part.symbol_counts for part in parts),
        a_seq=joined("a_seq"),
        b_seq=joined("b_seq"),
        msg_seq=joined("msg_seq"),
        lam_seq=joined("lam_seq"),
    )


def _chunks(n: int) -> list:
    """The chunks [lo, hi) of n rounds; zero rounds are one empty chunk."""
    return [(lo, min(lo + CHUNK, n)) for lo in range(0, max(n, 1), CHUNK)]


def simulate(
    protocol: ProtocolId,
    state: State,
    settings,
    rounds_per_setting: int,
    seed: int,
    workers: int = 1,
    keep_outcomes: bool = False,
    keep_lambdas: bool = False,
) -> SimulationResult:
    """Run ``rounds_per_setting`` rounds for every (x, y) pair in ``settings``.

    Setting pair k draws from streams (seed, k, channel) in chunks of at most
    ``CHUNK`` rounds, each read from its position in those streams or, for
    the vector sampler, from a stream of its own, so results are independent
    of worker count and of the order chunks are executed in.  ``workers``
    threads, an integer >= 1, run the envelope's counting pass in block
    ranges and then the chunks of all pairs.  Each chunk of a pair longer than
    ``CHUNK`` rounds is played ``TILE`` rounds at a time (``_play_tiles``), so
    a worker holds one tile's arrays, or those of a pair's only chunk, plus
    the chunk's outcomes.  The counts and the cost are summed over each
    chunk's whole outcome arrays, so the tiles change no output byte.
    """
    pairs, n, seed = _checked_run(protocol, state, settings, rounds_per_setting, seed)
    if not _is_integer(workers) or workers < 1:
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")
    info = PROTOCOLS[protocol]
    cost = np.asarray(info.cost)  # bits per symbol, for np.take
    chunks = _chunks(n)
    keys = [stream_key(seed, k, CH_SHARED) for k in range(len(pairs))]
    priv_keys = [stream_key(seed, k, CH_ALICE) if info.private else None for k in range(len(pairs))]
    # the setting set-up of both rules, made once per pair for all its chunks
    setups = [(collapse(state, x), partial(dot3, b=y)) for x, y in pairs]

    def play(unit):
        """One chunk, tile by tile; a tile's arrays are dropped once it is played."""
        k, (lo, hi), scan = unit
        x, y = pairs[k]
        coll, y_dot = setups[k]
        sampler = _vector_sampler(protocol, state, x, seed, k, lo, coll)

        def tile(t_lo, t_hi, shared, priv):
            """Rounds [t_lo, t_hi) as (a, b, msg, lam); lam is built only if kept."""
            ares = _alice(info, state, coll, shared, priv, sampler)
            b = _bob(info, y_dot, shared, ares.msg, ares.payload)
            return ares.a, b, ares.msg, ares.lam if keep_lambdas else None

        tiles = _play_tiles(protocol, state, n, lo, hi, keys[k], scan, priv_keys[k], tile)
        a, b, msg, lam = (
            seqs[0] if len(seqs) == 1 or seqs[0] is None else np.concatenate(seqs)
            for seqs in zip(*tiles)
        )
        # bits_sum is one pairwise sum over the whole chunk, whatever its tiles
        res = BatchResult(a=a, b=b, msg=msg, bits=np.take(cost, msg), lam=lam)
        return _aggregate(protocol, x, y, res, keep_outcomes, keep_lambdas)

    def run(map_fn):
        """Every pair's envelope scan, then every (pair, chunk) unit, merged per
        pair.  Only this thread calls ``map_fn``: a task that waited on the
        pool could starve it."""
        scans = envelope_scans(protocol, state, keys, n, map_fn)
        parts = list(map_fn(play, [(k, c, scans[k]) for k in range(len(pairs)) for c in chunks]))
        return [_merge(parts[i : i + len(chunks)]) for i in range(0, len(parts), len(chunks))]

    out = SimulationResult(protocol, state, n, seed)
    if workers > 1 and len(pairs) * len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                out.settings = run(pool.map)
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        out.settings = run(map)
    return out
