"""Physically enforced communication bound: Alice and Bob as processes.

The in-process simulator keeps the parties apart by interface shape; this
module keeps them apart with OS processes and sockets.  A referee process
(the caller) sends each party its own setting, Alice talks to Bob over a
dedicated one-way channel that may only carry symbols from the declared
alphabet (Bob rejects anything else and the run aborts), and everything the
referee sees goes into a transcript for offline audit, each byte once.

Before it forks the parties, the referee wires them with three socket
pairs: referee-Alice, referee-Bob and Alice-to-Bob, whose Bob end is shut
for writing, so that channel is one-way at the OS level.  Each party keeps
only its own ends, and the referee only its two, so a party that exits is
an end of file to everyone it talked to.

The parties get the shared randomness in advance, as a key: Bob's SETTING
carries the pair's shared key ``stream_key(seed, k, CH_SHARED)``, 16 bytes
of Philox key that rebuild the pair's shared stream bit for bit, and never
the seed.  Alice's SETTING carries the seed, from which she derives the same
key and her private streams.  After its SETTING each party plays the pair's
chunks [lo, hi), those ``protocols.simulate`` runs, in order, drawing each
chunk's shared rows with ``shared_chunk``; no referee frame paces them.

Frame format, little-endian, identical on every channel:

    [u64 round] [u8 kind] [u32 len] [payload]

Kinds: SETTING (per-recipient setup, round = 2**64-1), MESSAGE (Alice to Bob
only), OUTPUT (party to referee).  Every frame of a chunk names lo as its
round.  Per chunk:

* Alice sends Bob exactly one MESSAGE, possibly empty, with one entry per
  round in which she talks: a byte (symbol - 1) or a 24-byte raw vector;
* Alice's OUTPUT holds hi-lo bytes of a;
* Bob's OUTPUT holds a status byte, hi-lo bytes of b, then the echo of the
  message.  The referee decodes each round's symbol from the echo, as Bob
  does, and charges the round the cost of that symbol.

The parties draw each chunk with the functions ``protocols.simulate`` uses
and decide it in one call, so for a fixed seed a networked run reproduces
the in-process outcome sequence bit for bit.  The referee reads the same
stream only as far as the shared bit r, which names the rounds in which
Alice talks (``protocols.talk_chunk``), to check each chunk's two OUTPUTs
with ``_chunk_fault`` as they arrive.

The log (format ``LHV3``) is the frames in the order the referee writes
them: per pair, Alice's SETTING and Bob's; per chunk, Alice's OUTPUT and
Bob's.  A valid log has that order, and every chunk passes ``_chunk_fault``
on the talking rounds replayed from the key in Bob's SETTING.
"""

from __future__ import annotations

from collections import Counter
import enum
import json
import multiprocessing
import socket
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bloch import State
from .errors import DomainError, ProtocolViolationError, TransportError, ValidationError
from .protocols import (
    CH_ALICE,
    CH_SHARED,
    CHUNK,
    PROTOCOLS,
    BatchResult,
    ProtocolId,
    VECTOR_MESSAGE_BITS,
    SimulationResult,
    _aggregate,
    _checked_run,
    _chunks,
    _merge,
    _vector_sampler,
    alice_decide,
    bob_decide,
    check_applicable,
    check_unit,
    envelope_scans,
    private_chunk,
    shared_chunk,
    talk_chunk,
)
from .sampling import stream_key

SETUP_ROUND = 2**64 - 1
_HEADER = struct.Struct("<QBI")
_SOCKET_TIMEOUT = 60.0
VECTOR_PAYLOAD_BYTES = int(VECTOR_MESSAGE_BITS) // 8  # three float64 coordinates


class FrameKind(enum.IntEnum):
    SETTING = 1
    MESSAGE = 3
    OUTPUT = 4


_KINDS = frozenset(int(kind) for kind in FrameKind)


@dataclass(frozen=True)
class Frame:
    round: int
    kind: FrameKind
    payload: bytes

    def encode(self) -> bytes:
        return _HEADER.pack(self.round, int(self.kind), len(self.payload)) + self.payload


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        part = sock.recv(n - got)
        if not part:
            raise EOFError("peer closed the connection")
        chunks.append(part)
        got += len(part)
    return b"".join(chunks)


def send_frame(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(frame.encode())


def recv_frame(sock: socket.socket) -> Frame:
    head = _recv_exact(sock, _HEADER.size)
    rnd, kind, length = _HEADER.unpack(head)
    payload = _recv_exact(sock, length) if length else b""
    return Frame(rnd, FrameKind(kind), payload)


# ---------------------------------------------------------------------------
# payload codecs

_PROTO_CODE = {pid: i + 1 for i, pid in enumerate(ProtocolId)}
_CODE_PROTO = {v: k for k, v in _PROTO_CODE.items()}

# pair, protocol code, p, the setting vector, rounds, then Alice's seed or
# the two words of Bob's shared key
_ALICE_SETTING = struct.Struct("<QBdddd QQ".replace(" ", ""))
_BOB_SETTING = struct.Struct("<QBdddd QQQ".replace(" ", ""))


def pack_alice_setting(pair, protocol, p, x, rounds, seed) -> bytes:
    return _ALICE_SETTING.pack(pair, _PROTO_CODE[protocol], p, x[0], x[1], x[2], rounds, seed)


def _unpack_setting(layout: struct.Struct, data: bytes, party: str) -> tuple:
    """The fields of a SETTING payload, its protocol code decoded; raises
    ValidationError on a payload of the wrong size or an unknown code."""
    if len(data) != layout.size:
        raise ValidationError(f"{party}'s setting has {len(data)} bytes, want {layout.size}")
    pair, code, *rest = layout.unpack(data)
    if code not in _CODE_PROTO:
        raise ValidationError(f"{party}'s setting names unknown protocol code {code}")
    return (pair, _CODE_PROTO[code], *rest)


def unpack_alice_setting(data: bytes):
    pair, protocol, p, x0, x1, x2, rounds, seed = _unpack_setting(_ALICE_SETTING, data, "alice")
    return pair, protocol, p, np.array([x0, x1, x2]), rounds, seed


def pack_bob_setting(pair, protocol, p, y, rounds, key) -> bytes:
    return _BOB_SETTING.pack(pair, _PROTO_CODE[protocol], p, y[0], y[1], y[2], rounds, *key)


def unpack_bob_setting(data: bytes):
    pair, protocol, p, y0, y1, y2, rounds, *key = _unpack_setting(_BOB_SETTING, data, "bob")
    return pair, protocol, p, np.array([y0, y1, y2]), rounds, tuple(key)


def _shared_rows(protocol: ProtocolId, state: State, key: tuple, n: int):
    """(lo, hi, shared rows) of each chunk of the n-round shared draw of
    Philox key ``key``, in chunk order."""
    (scan,) = envelope_scans(protocol, state, [key], n)
    for lo, hi in _chunks(n):
        yield lo, hi, shared_chunk(protocol, state, key, n, lo, hi, scan)


def _message_fault(info, payload: bytes, talking: int) -> Optional[str]:
    """Why a chunk's Alice-to-Bob payload breaks the declared alphabet, or None.

    It must hold exactly one entry per round in which Alice talks.
    """
    want = talking * (VECTOR_PAYLOAD_BYTES if info.vector_message else 1)
    if len(payload) != want:
        return f"message has {len(payload)} bytes, want {want}"
    if not info.vector_message and payload and max(payload) >= info.alphabet_size:
        return f"symbol {max(payload)} outside alphabet of {info.alphabet_size}"
    return None


def _chunk_fault(info, lo: int, talk: np.ndarray, aout: Frame, bout: Frame) -> Optional[str]:
    """Why the two OUTPUT frames of the chunk at round lo, whose rounds are
    those of ``talk``, true where Alice talks, are not a valid reply, or None."""
    m = talk.shape[0]
    for party, frame in (("alice", aout), ("bob", bout)):
        if frame.kind != FrameKind.OUTPUT or frame.round != lo:
            return f"{party} sent {frame.kind.name} of round {frame.round}, want OUTPUT"
    if len(aout.payload) != m:
        return f"alice's OUTPUT has {len(aout.payload)} bytes, want {m}"
    if len(bout.payload) < 1 + m:
        return f"bob's OUTPUT has {len(bout.payload)} bytes, want at least {1 + m}"
    if bout.payload[0] != 0:
        return f"bob rejected the message (status {bout.payload[0]})"
    outputs = np.frombuffer(aout.payload + bout.payload[1 : 1 + m], dtype=np.int8)
    if np.any(np.abs(outputs) != 1):
        return "an a or b byte is not +-1"
    return _message_fault(info, bout.payload[1 + m :], int(talk.sum()))


def _decode_message(info, talk: np.ndarray, payload: bytes):
    """(each round's symbol, the sent vectors or None) of a fault-free message."""
    msg = talk.astype(np.uint8)  # symbol 1, or 1 + the byte sent
    if info.vector_message:
        return msg, np.frombuffer(payload, dtype=np.float64).reshape(-1, 3)
    msg[talk] += np.frombuffer(payload, dtype=np.uint8)
    return msg, None


# ---------------------------------------------------------------------------
# transcript

_CHANNELS = ("referee->alice", "referee->bob", "alice->referee", "bob->referee")
_MAGIC = b"LHV3"
_LOG_HEAD = struct.Struct("<BdQ")  # protocol code, p, rounds per setting


@dataclass
class FrameRecord:
    channel: str
    frame: Frame


@dataclass
class Transcript:
    """Everything the referee saw, in order, each byte once.

    A pair starts with two records, Alice's SETTING and Bob's, and a chunk is
    two, Alice's OUTPUT and Bob's.  The referee never sits on the
    Alice-to-Bob channel; the chunk's message is Bob's byte-exact echo,
    ``payload[1 + m:]`` of his OUTPUT for a chunk of m rounds.
    """

    protocol: ProtocolId
    state_p: float
    rounds_per_setting: int
    records: list = field(default_factory=list)

    def add(self, channel: str, frame: Frame) -> None:
        self.records.append(FrameRecord(channel, frame))

    def frames(self, channel: Optional[str] = None, kind: Optional[FrameKind] = None):
        for rec in self.records:
            if channel is not None and rec.channel != channel:
                continue
            if kind is not None and rec.frame.kind != kind:
                continue
            yield rec

    def to_binary(self) -> bytes:
        head = _LOG_HEAD.pack(_PROTO_CODE[self.protocol], self.state_p, self.rounds_per_setting)
        parts = [_MAGIC, head]
        for rec in self.records:
            parts.append(bytes([_CHANNELS.index(rec.channel)]))
            parts.append(rec.frame.encode())
        return b"".join(parts)

    @classmethod
    def from_binary(cls, data: bytes) -> "Transcript":
        """Parse a ``to_binary`` log; raise ValidationError if it is malformed."""
        if data[:4] != _MAGIC:
            raise ValidationError(f"not an {_MAGIC.decode()} transcript log (bad magic)")
        off = 4 + _LOG_HEAD.size
        if len(data) < off:
            raise ValidationError("transcript header is truncated")
        code, p, rounds = _LOG_HEAD.unpack_from(data, 4)
        if code not in _CODE_PROTO:
            raise ValidationError(f"transcript names unknown protocol code {code}")
        out = cls(_CODE_PROTO[code], p, rounds)
        while off < len(data):
            where = f"transcript frame at byte {off}"
            if off + 1 + _HEADER.size > len(data):
                raise ValidationError(f"{where}: header is truncated")
            channel = data[off]
            rnd, kind, length = _HEADER.unpack_from(data, off + 1)
            off += 1 + _HEADER.size
            if channel >= len(_CHANNELS):
                raise ValidationError(f"{where}: unknown channel {channel}")
            if kind not in _KINDS:
                raise ValidationError(f"{where}: unknown frame kind {kind}")
            if off + length > len(data):
                raise ValidationError(f"{where}: payload runs past the end of the log")
            payload = bytes(data[off : off + length])
            off += length
            out.add(_CHANNELS[channel], Frame(rnd, FrameKind(kind), payload))
        return out

    def summary(self, audit: AuditReport) -> dict:
        """The log's totals; ``audit`` is ``audit_transcript`` of this log."""
        return {
            "protocol": self.protocol.value,
            "p": self.state_p,
            "rounds_per_setting": self.rounds_per_setting,
            "rounds": audit.rounds,
            "messages": audit.messages,
            "message_fraction": audit.message_fraction,
            "message_histogram": audit.symbol_histogram,
            "frames": len(self.records),
        }

    def summary_json(self, audit: AuditReport) -> str:
        return json.dumps(self.summary(audit), sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# the two party processes


def alice_main(ref: socket.socket, bob: socket.socket) -> None:
    """Alice's process: settings in, message and a out."""
    try:
        while True:
            setting = recv_frame(ref)
            if setting.kind != FrameKind.SETTING:
                raise TransportError(f"alice expected SETTING, got {setting.kind}")
            pair, protocol, p, x, rounds, seed = unpack_alice_setting(setting.payload)
            state = State(p)
            key, priv_key = stream_key(seed, pair, CH_SHARED), stream_key(seed, pair, CH_ALICE)
            for lo, hi, shared in _shared_rows(protocol, state, key, rounds):
                priv = private_chunk(protocol, priv_key, rounds, lo, hi)
                sampler = _vector_sampler(protocol, state, x, seed, pair, lo)
                res = alice_decide(protocol, state, x, shared, priv, sampler)
                if res.payload is not None:
                    body = res.payload.tobytes()
                else:
                    body = (res.msg[res.msg != 0] - 1).tobytes()
                send_frame(bob, Frame(lo, FrameKind.MESSAGE, body))
                send_frame(ref, Frame(lo, FrameKind.OUTPUT, res.a.tobytes()))
    except (EOFError, ConnectionError, socket.timeout):
        pass  # referee finished or aborted the run
    finally:
        ref.close()
        bob.close()


def bob_main(ref: socket.socket, alice: socket.socket) -> None:
    """Bob's process: enforces the message alphabet, outputs b."""
    try:
        while True:
            setting = recv_frame(ref)
            if setting.kind != FrameKind.SETTING:
                raise TransportError(f"bob expected SETTING, got {setting.kind}")
            pair, protocol, p, y, rounds, key = unpack_bob_setting(setting.payload)
            y = check_unit(y, "y")
            info = PROTOCOLS[protocol]
            for lo, hi, shared in _shared_rows(protocol, State(p), key, rounds):
                talk = info.talks(shared.r, hi - lo)
                mframe = recv_frame(alice)
                status = 0
                if mframe.kind != FrameKind.MESSAGE or mframe.round != lo:
                    status = 2  # desync / wrong kind
                elif _message_fault(info, mframe.payload, int(talk.sum())):
                    status = 1  # oversized or out-of-alphabet message
                if status != 0:
                    out = bytes([status]) + bytes(hi - lo) + mframe.payload
                    send_frame(ref, Frame(lo, FrameKind.OUTPUT, out))
                    raise ProtocolViolationError("message rejected; aborting")
                msg, vectors = _decode_message(info, talk, mframe.payload)
                b = bob_decide(protocol, y, shared, msg, vectors)
                send_frame(ref, Frame(lo, FrameKind.OUTPUT, b"\x00" + b.tobytes() + mframe.payload))
    except ProtocolViolationError:
        pass  # already reported to the referee
    except (EOFError, ConnectionError, socket.timeout):
        pass  # referee finished or aborted the run
    finally:
        ref.close()
        alice.close()


def _party(main, own: tuple, inherited: tuple) -> None:
    """A forked party: close every inherited socket end but its own, then run."""
    for sock in inherited:
        if sock not in own:
            sock.close()
    main(*own)


# ---------------------------------------------------------------------------
# referee


def run_networked(
    protocol: ProtocolId,
    state: State,
    settings,
    rounds: int,
    seed: int,
    keep_outcomes: bool = True,
):
    """Run the protocol across three processes; returns (result, transcript).

    Statistically and bit-exactly identical to ``simulate`` with the same
    seed: each party draws each chunk's shared rows, and Alice her private
    coins, with the functions ``simulate`` uses, and decides a whole chunk in
    one call; the referee reads the shared stream only up to r.  A party that
    exits, or does not answer within ``_SOCKET_TIMEOUT``, ends the run with
    TransportError.
    """
    pairs, rounds, seed = _checked_run(protocol, state, settings, rounds, seed)
    info = PROTOCOLS[protocol]
    transcript = Transcript(protocol, state.p, rounds)

    alice_sock, alice_ref = socket.socketpair()
    bob_sock, bob_ref = socket.socketpair()
    alice_bob, bob_alice = socket.socketpair()
    bob_alice.shutdown(socket.SHUT_WR)  # Bob cannot write to Alice
    ends = (alice_sock, alice_ref, bob_sock, bob_ref, alice_bob, bob_alice)
    for sock in ends:
        sock.settimeout(_SOCKET_TIMEOUT)

    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_party, args=(bob_main, (bob_ref, bob_alice), ends), daemon=True),
        ctx.Process(target=_party, args=(alice_main, (alice_ref, alice_bob), ends), daemon=True),
    ]
    for proc in procs:
        proc.start()
    for sock in (alice_ref, bob_ref, alice_bob, bob_alice):
        sock.close()  # the parties' ends: a party that exits is EOF here

    result = SimulationResult(protocol, state, rounds, seed)
    try:
        for k, (x, y) in enumerate(pairs):
            key = stream_key(seed, k, CH_SHARED)
            fa = Frame(
                SETUP_ROUND,
                FrameKind.SETTING,
                pack_alice_setting(k, protocol, state.p, x, rounds, seed),
            )
            fb = Frame(
                SETUP_ROUND,
                FrameKind.SETTING,
                pack_bob_setting(k, protocol, state.p, y, rounds, key),
            )
            send_frame(alice_sock, fa)
            transcript.add("referee->alice", fa)
            send_frame(bob_sock, fb)
            transcript.add("referee->bob", fb)

            parts = []
            for lo, hi in _chunks(rounds):
                talk = talk_chunk(protocol, state, key, rounds, lo, hi)
                aout = recv_frame(alice_sock)
                bout = recv_frame(bob_sock)
                transcript.add("alice->referee", aout)
                transcript.add("bob->referee", bout)
                fault = _chunk_fault(info, lo, talk, aout, bout)
                if fault:
                    raise ProtocolViolationError(f"round {lo}: {fault}")
                m = hi - lo
                msg, _ = _decode_message(info, talk, bout.payload[1 + m :])
                a = np.frombuffer(aout.payload, dtype=np.int8)
                b = np.frombuffer(bout.payload[1 : 1 + m], dtype=np.int8)
                bits = np.take(info.cost, msg)  # each round costs its symbol's bits
                batch = BatchResult(a=a, b=b, msg=msg, bits=bits, lam=None)
                parts.append(_aggregate(protocol, x, y, batch, keep_outcomes, keep_lambdas=False))
            result.settings.append(_merge(parts))
    except (EOFError, ConnectionError, socket.timeout) as exc:
        raise TransportError(f"lost a party: {exc}") from exc
    finally:
        alice_sock.close()
        bob_sock.close()
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
    return result, transcript


# ---------------------------------------------------------------------------
# audit


@dataclass
class AuditReport:
    findings: list
    rounds: int
    messages: int
    message_fraction: float
    symbol_histogram: dict

    @property
    def passed(self) -> bool:
        return not self.findings


def audit_transcript(transcript: Transcript) -> AuditReport:
    """Offline validation of a networked run's frame log.

    A valid log is what the referee writes: per setting pair, Alice's
    SETTING and Bob's SETTING, then per chunk [lo, hi) of the log's rounds
    per pair Alice's OUTPUT and Bob's OUTPUT, both of round lo.  Bob's
    SETTING names the pair, the log's protocol, p and rounds per pair, and
    each chunk passes ``_chunk_fault``, the referee's own check, on the
    talking rounds replayed from the key in that SETTING.  A header p that is
    no valid state for the protocol is the log's only finding.  A pair whose
    frames break that order is one finding, and is not replayed: "missing
    message" if it has fewer Bob OUTPUTs than chunks, "more than one
    message" if more, else "frames out of order".  The histogram counts the
    sent bytes (symbol - 1).
    """
    protocol, n = transcript.protocol, transcript.rounds_per_setting
    info = PROTOCOLS[protocol]
    try:
        state = State(transcript.state_p)
        check_applicable(protocol, state)
    except (ValidationError, DomainError) as exc:
        return AuditReport([f"log header: {exc}"], 0, 0, 0.0, {})
    # no pair can hold more chunks than the log has records, so a corrupt
    # header's huge n gives every pair "missing message" at bounded cost
    chunks = _chunks(min(n, CHUNK * len(transcript.records)))
    start = ("referee->alice", FrameKind.SETTING)
    per_chunk = (("alice->referee", FrameKind.OUTPUT), ("bob->referee", FrameKind.OUTPUT))
    order = [(*start, SETUP_ROUND), ("referee->bob", FrameKind.SETTING, SETUP_ROUND)]
    order += [(*frame, lo) for lo, _ in chunks for frame in per_chunk]
    pairs: list = []  # each Alice SETTING starts a pair; frames before the first form one
    for rec in transcript.records:
        if not pairs or (rec.channel, rec.frame.kind) == start:
            pairs.append([])
        pairs[-1].append(rec)

    findings: list = []
    hist: Counter = Counter()
    total_rounds = 0
    total_messages = 0
    for k, recs in enumerate(pairs):
        if [(r.channel, r.frame.kind, r.frame.round) for r in recs] != order:
            outputs = sum(r.channel == "bob->referee" for r in recs)
            if outputs < len(chunks):
                findings.append(f"pair {k}: missing message")
            elif outputs > len(chunks):
                findings.append(f"pair {k}: more than one message")
            else:
                findings.append(f"pair {k}: frames out of order")
            continue
        try:
            pair, proto, p, _, rounds, key = unpack_bob_setting(recs[1].frame.payload)
        except ValidationError as exc:
            findings.append(f"pair {k}: {exc}")
            continue
        if (pair, proto, p, rounds) != (k, protocol, state.p, n):
            findings.append(f"pair {k}: bob's setting does not match the log header")
            continue
        # the order matched, so the pair's chunks are those of ``chunks``
        for (lo, hi), arec, brec in zip(chunks, recs[2::2], recs[3::2]):
            total_rounds += hi - lo
            talk = talk_chunk(protocol, state, key, n, lo, hi)
            fault = _chunk_fault(info, lo, talk, arec.frame, brec.frame)
            if fault:
                findings.append(f"pair {k} round {lo}: {fault}")
                continue
            talking = int(talk.sum())
            total_messages += talking
            if info.vector_message:
                hist["vector"] += talking
                continue
            sent = np.frombuffer(brec.frame.payload[1 + hi - lo :], dtype=np.uint8)
            counts = np.bincount(sent)
            # symbols new to ``hist`` join it in the order of their first byte
            for s in sorted(np.flatnonzero(counts), key=lambda s: np.argmax(sent == s)):
                hist[str(s)] += int(counts[s])

    return AuditReport(
        findings=findings,
        rounds=total_rounds,
        messages=total_messages,
        message_fraction=total_messages / total_rounds if total_rounds else 0.0,
        symbol_histogram=dict(+hist),  # without zero counts
    )
