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
``bob_decide`` never receives x, so no-cross-talk is structural.  The
networked mode plays the same chunks as ``simulate``, drawn by the same
functions, so it produces bit-identical results from the same streams.

Stream layout per setting pair k of a run with seed s and n rounds:

* shared randomness comes from stream (s, k, CH_SHARED), one block per
  field of the protocol's shared layout, in its order;
* Alice's private coins come from (s, k, CH_ALICE), whole arrays per block
  in the order of the protocol's private layout;
* Alice's rejection sampler (vector-message protocol only) owns stream
  (s, k, CH_SAMPLER) and is consumed sample by sample.

The layout is that of one n-round draw, and ``simulate`` and the networked
mode both read it in chunks of ``CHUNK`` rounds, through ``shared_chunk``
and ``private_chunk``.  A pair's only chunk (n <= CHUNK) reads its streams
straight through, block after block.  Any other chunk of rounds [lo, hi)
opens each stream at the position where the n-round draw would reach round
lo of each block (Philox is counter-based, so the jump is free) and reads
only its own rows.  The envelope sampler of the improved one-bit protocol
consumes a data-dependent number of candidate blocks; for a pair of more
than one chunk, one counting pass over those blocks
(``sampling.EnvelopeScan``) keeps each block's accept bits, from which a
chunk finds and builds its own samples.  The vector-message sampler is
consumed in order, so its chunks run one after another.  Outcomes and
counts thus equal those of one n-round draw, whatever the chunking or the
number of workers, and memory is O(CHUNK x workers), not O(n), apart from
the accept bits: one bit per envelope candidate, under 3 bits per round for
p <= 0.98.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Optional

import numpy as np

from .bloch import State, Z_AXIS, check_unit, collapse, dot3, sign_pm, theta
from .errors import DomainError, InternalConsistencyError, ValidationError
from .sampling import (
    EnvelopeScan,
    RhoTildeMaxSampler,
    RhoTildeSampler,
    _rho_tilde_given,
    check_bound,
    eval_rho_tilde_max,
    generator_at,
    make_generator,
    n_of_p,
    one_bit_threshold,
    sample_theta_hemisphere,
    sample_uniform_sphere,
)

CH_SHARED = 0
CH_ALICE = 1
CH_SAMPLER = 3

RATIO_GUARD = 1e-12
# rounds per unit of work in ``simulate``; bounds its memory per worker
CHUNK = 1 << 16
TRIT_BITS = float(np.log2(3.0))
# vector messages are sent as three raw float64 coordinates
VECTOR_MESSAGE_BITS = 192.0


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
    """Alice's private uniforms, pre-drawn as whole blocks for a segment."""

    u_msg: Optional[np.ndarray] = None
    u_out: Optional[np.ndarray] = None


class _Whole:
    """All n rounds of a stream, read in order from one generator.

    A pair's only chunk reads through it: rounds [0, n) read straight
    through give the bytes of the one-draw layout, and the envelope is drawn
    directly, with no counting pass.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng = rng
        self.rounds = int(n)

    def block(self, width: int) -> np.random.Generator:
        return self.rng

    def envelope(self, state: State) -> np.ndarray:
        return RhoTildeMaxSampler(state, self.rng).draw(self.rounds)


class _Chunk:
    """Rounds [lo, hi) of a stream laid out for n rounds.

    ``block(width)`` opens the stream where the n-round draw reaches round lo
    of its next block of ``width`` uniforms per round.  ``envelope`` needs
    the ``EnvelopeScan`` of the stream's envelope draw.
    """

    def __init__(self, seed: int, path: tuple, n: int, lo: int, hi: int, scan=None):
        self.seed, self.path, self.n, self.lo = seed, path, n, lo
        self.rounds = hi - lo
        self.scan = scan
        self.start = 0  # stream position where the next block begins

    def block(self, width: int) -> np.random.Generator:
        rng = generator_at(self.seed, self.path, self.start + self.lo * width)
        self.start += self.n * width
        return rng

    def envelope(self, state: State) -> np.ndarray:
        self.start = self.scan.end
        return self.scan.samples(self.lo, self.lo + self.rounds)


# The laws of the shared layouts.  Each reads its own blocks from ``src``
# (a ``_Whole`` or a ``_Chunk``), one bulk call per block.


def _uniform(state: State, src) -> np.ndarray:
    return sample_uniform_sphere(src.block(2), src.rounds)


def _hemisphere(state: State, src) -> np.ndarray:
    return sample_theta_hemisphere(src.block(2), Z_AXIS, src.rounds)


def _envelope(state: State, src) -> np.ndarray:
    if state.p < 1.0:
        return src.envelope(state)
    return np.tile(Z_AXIS, (src.rounds, 1))  # never used: r == 0 in every round


def _bit_below_n_of_p(state: State, src) -> np.ndarray:
    fraction = 0.0 if state.p == 1.0 else n_of_p(state)
    return (src.block(1).random(src.rounds) < fraction).astype(np.uint8)


def _bit_above_c(state: State, src) -> np.ndarray:
    return (src.block(1).random(src.rounds) >= state.c).astype(np.uint8)  # P(r=0) = 2p-1


def draw_shared(
    protocol: ProtocolId, state: State, rng: np.random.Generator, n: int
) -> SharedDraw:
    """Draw the shared randomness block for ``n`` rounds.

    Draw order (fixed; the wire referee relies on it) is the protocol's
    shared layout: one bulk call per field.
    """
    return _draw_shared(protocol, state, _Whole(rng, n))


def _draw_shared(protocol: ProtocolId, state: State, src) -> SharedDraw:
    return SharedDraw(**{name: law(state, src) for name, law in PROTOCOLS[protocol].shared})


def draw_alice_private(protocol: ProtocolId, rng: np.random.Generator, n: int) -> AlicePrivate:
    """Alice's private uniforms: message-decision block first, output block second."""
    return _draw_alice_private(protocol, _Whole(rng, n))


def _draw_alice_private(protocol: ProtocolId, src) -> AlicePrivate:
    blocks = PROTOCOLS[protocol].private
    return AlicePrivate(**{name: src.block(1).random(src.rounds) for name in blocks})


def _source(seed, path, n, lo, hi, scan=None):
    """Where rounds [lo, hi) of stream (seed, *path) of an n-round pair are read."""
    if (lo, hi) == (0, n):
        return _Whole(make_generator(seed, *path), n)
    return _Chunk(seed, path, n, lo, hi, scan)


def shared_chunk(protocol, state, seed, k, n, lo, hi, scan=None) -> SharedDraw:
    """Rounds [lo, hi) of pair k's n-round shared draw; ``scan`` is its ``envelope_scan``."""
    return _draw_shared(protocol, state, _source(seed, (k, CH_SHARED), n, lo, hi, scan))


def private_chunk(protocol, seed, k, n, lo, hi) -> AlicePrivate:
    """Rounds [lo, hi) of Alice's private coins for pair k of n rounds."""
    return _draw_alice_private(protocol, _source(seed, (k, CH_ALICE), n, lo, hi))


def envelope_scan(protocol, state, seed, k, n) -> Optional[EnvelopeScan]:
    """The counting pass over pair k's envelope candidates.

    None if the pair draws no envelope, or has at most ``CHUNK`` rounds: its
    only chunk draws the envelope straight through.  The candidates follow
    the n shared-bit uniforms that the shared layout reads first.
    """
    if n <= CHUNK or not PROTOCOLS[protocol].draws_envelope(state):
        return None
    return EnvelopeScan(state, seed, (k, CH_SHARED), n, n)


# ---------------------------------------------------------------------------
# the two parties


def _weight_given(coll, lam) -> np.ndarray:
    num = coll.p_plus * theta(dot3(lam, coll.v_plus))
    den = num + coll.p_minus * theta(dot3(lam, coll.v_minus))
    if np.any(den <= 0.0):
        raise InternalConsistencyError(
            "rho_x(lam) = 0: this lam cannot come from a correct sampling step"
        )
    return np.clip(num / den, 0.0, 1.0)


def alice_output_weight(state: State, x: np.ndarray, lam) -> np.ndarray:
    """Probability that Alice outputs +1 given the chosen vector lam.

    The ratio of the +1 summand of rho_x(lam) to the whole mixture (the 1/pi
    factors cancel).  At p = 1/2 this degenerates to the indicator
    H(lam . v_plus).  Raises if rho_x(lam) = 0, which no correct sampling
    step can produce.
    """
    lam = np.asarray(lam, dtype=float)
    return _weight_given(collapse(state, x), lam)


def _output(coll, lam: np.ndarray, priv: AlicePrivate) -> np.ndarray:
    """Alice's a for the committed lam: +1 with probability rho's +1 share."""
    return np.where(priv.u_out < _weight_given(coll, lam), 1, -1).astype(np.int8)


# Alice's rules: (state, collapse(state, x), shared, private, sampler) ->
# (a, msg, lam, payload).  msg is a uint8 symbol, 0 for a silent round.


def _alice_one_bit(state, coll, shared, priv, sampler):
    accept = (4.0 * np.pi) * _rho_tilde_given(state, coll, shared.lam1)
    top = float(np.max(accept, initial=0.0))
    if top > 1.0 + RATIO_GUARD:
        raise DomainError(
            f"one-bit acceptance probability reached {top}: p is below the threshold"
        )
    use1 = priv.u_msg < np.minimum(accept, 1.0)
    msg = np.where(use1, 1, 2).astype(np.uint8)
    lam = np.where(use1[:, None], shared.lam1, shared.lam2)
    return _output(coll, lam, priv), msg, lam, None


def _alice_trit(state, coll, shared, priv, sampler):
    v = coll.v_plus if coll.p_plus <= 0.5 else coll.v_minus
    d1 = np.abs(dot3(shared.lam1, v))
    d2 = np.abs(dot3(shared.lam2, v))
    first = d1 >= d2
    c = np.where(first, 1, 2).astype(np.uint8)
    lam_c = np.where(first[:, None], shared.lam1, shared.lam2)
    d_c = np.where(first, d1, d2)
    rt = _rho_tilde_given(state, coll, lam_c)
    # the pointwise bound rhot_x <= |lam.v| / 2pi, checked with an
    # absolute tolerance (see sampling.BOUND_ATOL), never on the ratio
    check_bound(rt * (2.0 * np.pi), d_c, "trit choice density")
    ratio = np.zeros(shared.rounds)
    pos = d_c > 0.0
    ratio[pos] = rt[pos] / (d_c[pos] / (2.0 * np.pi))
    keep = priv.u_msg < np.minimum(ratio, 1.0)
    msg = np.where(keep, c, 3).astype(np.uint8)
    lam = np.where(keep[:, None], lam_c, shared.lam3)
    return _output(coll, lam, priv), msg, lam, None


def _alice_degorre(state, coll, shared, priv, sampler):
    v = coll.v_plus
    first = np.abs(dot3(shared.lam1, v)) >= np.abs(dot3(shared.lam2, v))
    msg = np.where(first, 1, 2).astype(np.uint8)
    lam = np.where(first[:, None], shared.lam1, shared.lam2)
    return sign_pm(dot3(lam, v)), msg, lam, None


def _alice_teleportation(state, coll, shared, priv, sampler):
    a = np.where(priv.u_out < coll.p_plus, 1, -1).astype(np.int8)
    v = np.where((a == 1)[:, None], coll.v_plus[None, :], coll.v_minus[None, :])
    c1, c2, lam = _choice_and_flip(shared.lam1, shared.lam2, v)
    msg = (2 * (c1 - 1) + (c2 == -1) + 1).astype(np.uint8)
    return a, msg, lam, None


def _alice_improved_one_bit(state, coll, shared, priv, sampler):
    talk = shared.r == 1
    ratio = np.zeros(shared.rounds)
    if np.any(talk):
        rt = _rho_tilde_given(state, coll, shared.lam1[talk])
        rmax = eval_rho_tilde_max(state, shared.lam1[talk])
        check_bound(rt * np.pi, rmax * np.pi, "improved one-bit envelope")
        ratio[talk] = rt / rmax
    use1 = talk & (priv.u_msg < np.minimum(ratio, 1.0))
    lam = np.where(use1[:, None], shared.lam1, shared.lam2)
    msg = np.where(talk, np.where(use1, 1, 2), 0).astype(np.uint8)
    return _output(coll, lam, priv), msg, lam, None


def _alice_local_content(state, coll, shared, priv, sampler):
    talk = shared.r == 1
    lam = shared.lam1.copy()
    payload = None
    if np.any(talk):
        if sampler is None:
            raise ValidationError("local-content protocol needs Alice's vector sampler")
        payload = sampler.draw(int(talk.sum()))
        lam[talk] = payload
    return _output(coll, lam, priv), talk.astype(np.uint8), lam, payload


def _choice_and_flip(lam1: np.ndarray, lam2: np.ndarray, v: np.ndarray):
    """Choice-of-two plus sign flip: the two-bit encoding of the hemisphere law.

    c1 picks the vector with the larger |lam . v|, c2 = sgn(lam_c1 . v) flips
    it into the v hemisphere.  Works with per-row v (shape (n, 3)) or one v.
    """
    d1 = np.abs(dot3(lam1, v))
    d2 = np.abs(dot3(lam2, v))
    first = d1 >= d2
    c1 = np.where(first, 1, 2).astype(np.uint8)
    lam_c1 = np.where(first[:, None], lam1, lam2)
    c2 = sign_pm(dot3(lam_c1, v))
    lam = c2[:, None] * lam_c1
    return c1, c2, lam


def bob_output(y: np.ndarray, lam) -> np.ndarray:
    """Bob's deterministic response b = sgn(y . lam), with sgn(0) = +1."""
    y = check_unit(y, "y")
    return sign_pm(dot3(np.asarray(lam, dtype=float), y))


# Bob's rules: (shared, msg, payload) -> the agreed vector lam.


def _bob_first_or_second(shared, msg, payload):
    return np.where((msg == 1)[:, None], shared.lam1, shared.lam2)


def _bob_trit(shared, msg, payload):
    return np.where(
        (msg == 1)[:, None],
        shared.lam1,
        np.where((msg == 2)[:, None], shared.lam2, shared.lam3),
    )


def _bob_teleportation(shared, msg, payload):
    c1_first = ((msg - 1) // 2) == 0
    c2 = np.where((msg - 1) % 2 == 0, 1.0, -1.0)
    return c2[:, None] * np.where(c1_first[:, None], shared.lam1, shared.lam2)


def _bob_local_content(shared, msg, payload):
    lam = shared.lam1.copy()
    got = msg == 1
    if np.any(got):
        if payload is None:
            raise ValidationError("vector message rounds present but no payload given")
        lam[got] = payload
    return lam


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

    @property
    def shared_fields(self) -> tuple:
        """The drawn SharedDraw fields, in field order (the wire row order)."""
        drawn = {name for name, _ in self.shared}
        return tuple(f.name for f in fields(SharedDraw) if f.name in drawn)

    def talks(self, shared: SharedDraw) -> np.ndarray:
        """The rounds in which Alice sends a symbol: all, or those with r = 1."""
        return np.ones(shared.rounds, dtype=bool) if shared.r is None else shared.r == 1

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
        applies=lambda p: p >= one_bit_threshold() - 1e-12,
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
        applies=lambda p: abs(p - 0.5) <= 1e-12,
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
        applies=lambda p: p > 0.5 and (p >= 1.0 or n_of_p(p) <= 1.0 + 1e-12),
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


@dataclass
class AliceResult:
    a: np.ndarray  # int8, +-1
    msg: np.ndarray  # uint8 symbol in {1..d}; 0 = no message this round
    bits: np.ndarray  # float64 bits charged per round: the cost of msg
    lam: np.ndarray  # the vector Alice committed to (for diagnostics)
    payload: Optional[np.ndarray] = None  # vector messages, in msg!=0 row order


def alice_decide(
    protocol: ProtocolId,
    state: State,
    x: np.ndarray,
    shared: SharedDraw,
    priv: AlicePrivate,
    sampler: Optional[RhoTildeSampler] = None,
) -> AliceResult:
    """Alice's whole round: commit to a vector, message Bob, output a."""
    info = PROTOCOLS[protocol]
    coll = collapse(state, x)  # validates x
    a, msg, lam, payload = info.alice(state, coll, shared, priv, sampler)
    return AliceResult(a=a, msg=msg, bits=np.take(info.cost, msg), lam=lam, payload=payload)


def bob_decide(
    protocol: ProtocolId,
    y: np.ndarray,
    shared: SharedDraw,
    msg: np.ndarray,
    payload: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bob's whole round: reconstruct the agreed vector from the message, output b."""
    return bob_output(y, PROTOCOLS[protocol].bob(shared, msg, payload))


# ---------------------------------------------------------------------------
# one chunk of play


@dataclass
class BatchResult:
    a: np.ndarray
    b: np.ndarray
    msg: np.ndarray
    bits: np.ndarray
    lam: np.ndarray


def _vector_sampler(protocol, state, x, rng) -> Optional[RhoTildeSampler]:
    """Alice's sampler for vector messages, on its own stream; None if unused."""
    if not PROTOCOLS[protocol].vector_message or state.p >= 1.0:
        return None
    return RhoTildeSampler(state, x, rng)


def _play(protocol, state, x, y, shared, priv, sampler) -> BatchResult:
    ares = alice_decide(protocol, state, x, shared, priv, sampler)
    b = bob_decide(protocol, y, shared, ares.msg, ares.payload)
    return BatchResult(a=ares.a, b=b, msg=ares.msg, bits=ares.bits, lam=ares.lam)


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
    bits_seq: Optional[np.ndarray] = None
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
    ia = (res.a == -1).astype(np.int64)
    ib = (res.b == -1).astype(np.int64)
    counts = np.bincount(ia * 2 + ib, minlength=4).reshape(2, 2)
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
        bits_seq=res.bits if keep_outcomes else None,
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
        bits_seq=joined("bits_seq"),
        lam_seq=joined("lam_seq"),
    )


def _chunks(n: int) -> list:
    """The chunks [lo, hi) of n rounds; zero rounds are one empty chunk."""
    return [(lo, min(lo + CHUNK, n)) for lo in range(0, max(n, 1), CHUNK)]


@dataclass(frozen=True)
class _PairRun:
    """Setting pair ``index`` of a ``simulate`` call and its units of work."""

    protocol: ProtocolId
    state: State
    x: np.ndarray
    y: np.ndarray
    n: int
    seed: int
    index: int
    keep_outcomes: bool
    keep_lambdas: bool

    def _aggregate(self, res: BatchResult) -> SettingResult:
        return _aggregate(
            self.protocol, self.x, self.y, res, self.keep_outcomes, self.keep_lambdas
        )

    def chunk(self, lo: int, hi: int, envelope=None, sampler=None) -> SettingResult:
        """Rounds [lo, hi), read from their positions in the n-round streams."""
        pid, k, n = self.protocol, self.index, self.n
        shared = shared_chunk(pid, self.state, self.seed, k, n, lo, hi, envelope)
        priv = private_chunk(pid, self.seed, k, n, lo, hi)
        return self._aggregate(_play(pid, self.state, self.x, self.y, shared, priv, sampler))

    def in_order(self) -> SettingResult:
        """Every chunk in turn, with one vector sampler carried across them."""
        rng = make_generator(self.seed, self.index, CH_SAMPLER)
        sampler = _vector_sampler(self.protocol, self.state, self.x, rng)
        return _merge([self.chunk(lo, hi, sampler=sampler) for lo, hi in _chunks(self.n)])

    def envelope_scan(self) -> Optional[EnvelopeScan]:
        return envelope_scan(self.protocol, self.state, self.seed, self.index, self.n)

    @property
    def unit_count(self) -> int:
        return 1 if PROTOCOLS[self.protocol].vector_message else len(_chunks(self.n))


def _run_pairs(runs: list, map_fn) -> list:
    """Every pair's units through ``map_fn``, summed per pair in chunk order."""
    scans = list(map_fn(_PairRun.envelope_scan, runs))
    units = []  # (pair index, unit), in pair order, then chunk order
    for k, (run, scan) in enumerate(zip(runs, scans)):
        if run.unit_count == 1:
            units.append((k, run.in_order))
        else:
            units.extend((k, partial(run.chunk, lo, hi, scan)) for lo, hi in _chunks(run.n))
    parts = [[] for _ in runs]
    for (k, _), part in zip(units, map_fn(lambda unit: unit[1](), units)):
        parts[k].append(part)
    return [_merge(p) for p in parts]


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
    ``CHUNK`` rounds, each read from its position in those streams, so
    results are independent of worker count and of the order chunks are
    executed in.  ``workers`` threads run the chunks of all pairs.
    """
    check_applicable(protocol, state)
    pairs = [(check_unit(x, "x"), check_unit(y, "y")) for x, y in settings]
    n = int(rounds_per_setting)
    if n < 0:
        raise ValidationError("rounds_per_setting must be >= 0")
    out = SimulationResult(protocol, state, n, int(seed))
    runs = [
        _PairRun(protocol, state, x, y, n, int(seed), k, keep_outcomes, keep_lambdas)
        for k, (x, y) in enumerate(pairs)
    ]
    if workers and workers > 1 and sum(run.unit_count for run in runs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                out.settings = _run_pairs(runs, pool.map)
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        out.settings = _run_pairs(runs, map)
    return out
