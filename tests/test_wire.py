"""Tests for the networked referee/Alice/Bob execution and transcript audit."""

from collections import Counter
from functools import lru_cache
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhvsim import wire
from lhvsim.bloch import State, X_AXIS, Z_AXIS
from lhvsim.cli import main as cli_main
from lhvsim.errors import ProtocolViolationError, TransportError, ValidationError
from lhvsim.protocols import (
    CH_SHARED,
    CHUNK,
    PROTOCOLS,
    ProtocolId,
    _play_tiles,
    draw_shared,
    simulate,
)
from lhvsim.sampling import make_generator, n_of_p, stream_key
from lhvsim.wire import (
    SETUP_ROUND,
    AuditReport,
    Frame,
    FrameKind,
    FrameRecord,
    Transcript,
    audit_transcript,
    pack_alice_setting,
    pack_bob_setting,
    recv_frame,
    run_networked,
    send_frame,
    unpack_alice_setting,
    unpack_bob_setting,
)

PAIR = [(np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8]))]

CASES = [
    (ProtocolId.ONE_BIT, 0.95),
    (ProtocolId.TRIT, 0.7),
    (ProtocolId.DEGORRE, 0.5),
    (ProtocolId.TELEPORTATION, 0.7),
    (ProtocolId.IMPROVED_ONE_BIT, 0.9),
    (ProtocolId.LOCAL_CONTENT, 0.7),
]


class TestFraming:
    @given(
        rnd=st.integers(0, 2**64 - 1),
        kind=st.sampled_from(list(FrameKind)),
        payload=st.binary(max_size=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_frame_roundtrip(self, rnd, kind, payload):
        import socket

        a, b = socket.socketpair()
        try:
            send_frame(a, Frame(rnd, kind, payload))
            got = recv_frame(b)
            assert got == Frame(rnd, kind, payload)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("pid,p", CASES)
    def test_shared_row_roundtrip(self, pid, p):
        # the key in Bob's setting rebuilds the rows that the seed draws
        shared = draw_shared(pid, State(p), make_generator(1, 0, CH_SHARED), 16)
        payload = pack_bob_setting(0, pid, p, Z_AXIS, 16, stream_key(1, 0, CH_SHARED))
        *_, key = unpack_bob_setting(payload)
        (back,) = _play_tiles(pid, State(p), 16, 0, 16, key, None, None, lambda *tile: tile[2])
        for name in ("lam1", "lam2", "lam3", "r"):
            want = getattr(shared, name)
            got = getattr(back, name)
            assert (got is None) if want is None else np.array_equal(got, want)


class TestEquivalence:
    @pytest.mark.parametrize("pid,p", CASES)
    def test_networked_equals_in_process(self, pid, p):
        rounds = 1500
        net, transcript = run_networked(pid, State(p), PAIR, rounds, seed=11)
        ref = simulate(pid, State(p), PAIR, rounds, seed=11, keep_outcomes=True)
        for sn, si in zip(net.settings, ref.settings):
            assert np.array_equal(sn.a_seq, si.a_seq)
            assert np.array_equal(sn.b_seq, si.b_seq)
            assert np.array_equal(sn.msg_seq, si.msg_seq)
            cost = PROTOCOLS[pid].cost
            assert np.array_equal(np.take(cost, sn.msg_seq), np.take(cost, si.msg_seq))
        assert audit_transcript(transcript).passed

    def test_multi_segment_run(self):
        pairs = [(X_AXIS, Z_AXIS), (Z_AXIS, X_AXIS), (Z_AXIS, Z_AXIS)]
        net, transcript = run_networked(ProtocolId.TRIT, State(0.7), pairs, 400, seed=12)
        ref = simulate(ProtocolId.TRIT, State(0.7), pairs, 400, seed=12, keep_outcomes=True)
        for sn, si in zip(net.settings, ref.settings):
            assert np.array_equal(sn.a_seq, si.a_seq)
            assert np.array_equal(sn.b_seq, si.b_seq)
        rep = audit_transcript(transcript)
        assert rep.passed and rep.rounds == 1200


class TestChunks:
    @pytest.mark.parametrize(
        "pid,p",
        [(ProtocolId.IMPROVED_ONE_BIT, 0.9), (ProtocolId.LOCAL_CONTENT, 0.7)],
    )
    def test_two_chunks_equal_in_process(self, pid, p):
        # the envelope scan carries across chunks; the vector sampler is per chunk
        self._equal_in_process(pid, p, CHUNK + 3)

    def test_three_chunks_of_vector_messages_equal_in_process(self):
        # chunks 1 and 2 each key their own vector sampler stream
        self._equal_in_process(ProtocolId.LOCAL_CONTENT, 0.7, 2 * CHUNK + 3)

    @staticmethod
    def _equal_in_process(pid, p, rounds):
        net, transcript = run_networked(pid, State(p), PAIR, rounds, seed=21)
        ref = simulate(pid, State(p), PAIR, rounds, seed=21, keep_outcomes=True)
        for seq in ("a_seq", "b_seq", "msg_seq"):
            assert np.array_equal(getattr(net.settings[0], seq), getattr(ref.settings[0], seq))
        cost = PROTOCOLS[pid].cost
        got, want = net.settings[0].msg_seq, ref.settings[0].msg_seq
        assert np.array_equal(np.take(cost, got), np.take(cost, want))
        # two settings, then two frames per chunk
        assert len(transcript.records) == 2 + 2 * -(-rounds // CHUNK)
        rep = audit_transcript(transcript)
        assert rep.passed and rep.rounds == rounds

    def test_zero_rounds_is_one_empty_chunk(self):
        net, transcript = run_networked(ProtocolId.TRIT, State(0.7), PAIR, 0, seed=22)
        got = net.settings[0]
        assert got.rounds == 0 and got.a_seq.size == got.b_seq.size == got.msg_seq.size == 0
        assert len(transcript.records) == 2 + 2
        rep = audit_transcript(transcript)
        assert rep.passed and rep.rounds == 0


@lru_cache(maxsize=None)
def _valid_log(pid: ProtocolId, p: float) -> bytes:
    _, transcript = run_networked(pid, State(p), PAIR * 2, 40, seed=23)
    return transcript.to_binary()


class TestParserFuzz:
    @given(
        case=st.sampled_from(
            [(ProtocolId.LOCAL_CONTENT, 0.7), (ProtocolId.IMPROVED_ONE_BIT, 0.9)]
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_corrupt_log_parses_or_fails_cleanly(self, case, data):
        # splice bytes inside frames, keeping the framing, so that payloads of
        # any length reach the audit; then corrupt the log byte by byte
        transcript = Transcript.from_binary(_valid_log(*case))
        for _ in range(data.draw(st.integers(0, 2))):
            rec = data.draw(st.sampled_from(transcript.records))
            body = bytearray(rec.frame.payload)
            i = data.draw(st.integers(0, len(body)))
            body[i : i + data.draw(st.integers(0, 30))] = data.draw(st.binary(max_size=30))
            rec.frame = Frame(rec.frame.round, rec.frame.kind, bytes(body))
        blob = bytearray(transcript.to_binary())
        for _ in range(data.draw(st.integers(0, 3))):
            op = data.draw(st.sampled_from(["flip", "truncate", "splice"]))
            i = data.draw(st.integers(0, max(len(blob) - 1, 0)))
            if op == "flip" and blob:
                blob[i] ^= data.draw(st.integers(1, 255))
            elif op == "truncate":
                del blob[i:]
            else:
                j = data.draw(st.integers(0, len(blob)))
                blob[i:i] = blob[j : j + data.draw(st.integers(0, 64))]
        try:
            transcript = Transcript.from_binary(bytes(blob))
        except ValidationError:
            return
        audit = audit_transcript(transcript)
        assert isinstance(audit, AuditReport)
        transcript.summary(audit)

    @given(
        data=st.one_of(
            st.binary(max_size=80),
            st.binary(min_size=57, max_size=57),  # an Alice setting's size
            st.binary(min_size=65, max_size=65),  # a Bob setting's size
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_setting_payload_parses_or_fails_cleanly(self, data):
        for unpack in (unpack_alice_setting, unpack_bob_setting):
            try:
                fields = unpack(data)
            except ValidationError:
                continue
            assert isinstance(fields[1], ProtocolId)

    def test_malformed_setting_is_validation_error(self):
        x, y = PAIR[0]
        alice = pack_alice_setting(3, ProtocolId.TRIT, 0.7, x, 100, 5)
        bob = pack_bob_setting(3, ProtocolId.TRIT, 0.7, y, 100, (5, 6))
        assert unpack_alice_setting(alice)[1] is ProtocolId.TRIT
        assert unpack_bob_setting(bob)[1] is ProtocolId.TRIT
        for unpack, payload in ((unpack_alice_setting, alice), (unpack_bob_setting, bob)):
            for bad in (payload[:-1], payload + b"\x00", b"", payload[:8] + b"\x00" + payload[9:],
                        payload[:8] + b"\xff" + payload[9:]):
                with pytest.raises(ValidationError):
                    unpack(bad)


class TestEnforcement:
    def test_oversized_message_aborts(self, oversize_messages):
        oversize_messages()
        with pytest.raises(ProtocolViolationError, match="rejected"):
            run_networked(ProtocolId.TRIT, State(0.7), PAIR, 200, seed=13)

    def test_improved_one_bit_message_fraction(self):
        rounds = 20000
        _, transcript = run_networked(ProtocolId.IMPROVED_ONE_BIT, State(0.9), PAIR, rounds, seed=14)
        rep = audit_transcript(transcript)
        assert rep.passed
        assert abs(rep.message_fraction - n_of_p(0.9)) < 0.02

    def test_local_content_messages_only_when_shared_bit_set(self):
        _, transcript = run_networked(ProtocolId.LOCAL_CONTENT, State(0.7), PAIR, 2000, seed=15)
        rep = audit_transcript(transcript)
        assert rep.passed
        assert abs(rep.message_fraction - 0.6) < 0.05
        assert set(rep.symbol_histogram) == {"vector"}


    @pytest.mark.parametrize(
        "tamper",
        [
            lambda frame: Frame(frame.round + 1, frame.kind, frame.payload),
            lambda frame: Frame(frame.round, frame.kind, b"\x07" + frame.payload[1:]),
        ],
        ids=["wrong-round", "a-byte-7"],
    )
    def test_malformed_alice_output_aborts(self, monkeypatch, tamper):
        # the forked Alice sends each chunk's OUTPUT tampered; nothing else changes
        real_alice, real_send = wire.alice_main, wire.send_frame

        def send(sock, frame):
            if frame.kind == FrameKind.OUTPUT and frame.round != SETUP_ROUND:
                frame = tamper(frame)
            real_send(sock, frame)

        def alice(ref, bob):
            wire.send_frame = send  # in Alice's process only
            real_alice(ref, bob)

        monkeypatch.setattr(wire, "alice_main", alice)
        with pytest.raises(ProtocolViolationError, match="round 0: "):
            run_networked(ProtocolId.TRIT, State(0.7), PAIR, 200, seed=13)


class TestWiring:
    def test_opens_no_listening_socket(self, monkeypatch):
        # the referee wires its forked parties with socket pairs; nothing listens
        def refuse(*args):
            raise AssertionError("wire mode opened a listening socket")

        monkeypatch.setattr(socket.socket, "listen", refuse)
        net, transcript = run_networked(ProtocolId.TRIT, State(0.7), PAIR, 10, seed=25)
        assert net.total_rounds == 10
        assert audit_transcript(transcript).passed

    def test_alice_to_bob_channel_is_one_way(self, monkeypatch):
        # Bob's end of the Alice-to-Bob pair is shut for writing, so his first
        # write raises EPIPE, his process dies and the referee loses him
        real_bob = wire.bob_main

        def bob(ref, alice):
            alice.sendall(b"\x00")
            real_bob(ref, alice)

        monkeypatch.setattr(wire, "bob_main", bob)
        with pytest.raises(TransportError):
            run_networked(ProtocolId.TRIT, State(0.7), PAIR, 10, seed=25)


class TestIsolation:
    def test_settings_are_per_recipient(self):
        x, y = PAIR[0]
        _, transcript = run_networked(ProtocolId.DEGORRE, State(0.5), PAIR, 50, seed=16)
        alice_settings = list(transcript.frames("referee->alice", FrameKind.SETTING))
        bob_settings = list(transcript.frames("referee->bob", FrameKind.SETTING))
        assert len(alice_settings) == 1 and len(bob_settings) == 1
        _, _, _, ax, _, _ = unpack_alice_setting(alice_settings[0].frame.payload)
        _, _, _, by, _, _ = unpack_bob_setting(bob_settings[0].frame.payload)
        np.testing.assert_array_equal(ax, x)
        np.testing.assert_array_equal(by, y)
        # the fixed-size setting structs physically cannot carry the other
        # party's vector, and nothing else flows toward the parties
        assert {rec.channel for rec in transcript.records} == {
            "referee->alice", "referee->bob", "alice->referee", "bob->referee"
        }


    def test_bob_never_receives_the_seed(self, tmp_path):
        # Bob's setting carries the pair's shared key, never the seed it came from
        seed = 2**63 + 12345
        out = tmp_path / "run"
        argv = ["wire-run", "--protocol", "improved-one-bit", "--p", "0.9", "--rounds", "50",
                "--settings", "grid:3", "--seed", str(seed), "--out-dir", str(out)]
        assert cli_main(argv) == 0
        transcript = Transcript.from_binary((out / "transcript.bin").read_bytes())
        settings = list(transcript.frames("referee->bob", FrameKind.SETTING))
        assert len(settings) == 3
        for k, rec in enumerate(settings):
            pair, protocol, p, _, rounds, key = unpack_bob_setting(rec.frame.payload)
            assert (pair, protocol, p, rounds) == (k, ProtocolId.IMPROVED_ONE_BIT, 0.9, 50)
            assert key == stream_key(seed, k, CH_SHARED)
            assert seed.to_bytes(8, "little") not in rec.frame.payload


class TestTranscript:
    def _clean(self):
        _, transcript = run_networked(ProtocolId.TRIT, State(0.7), PAIR, 300, seed=17)
        return transcript

    def test_binary_roundtrip(self):
        transcript = self._clean()
        back = Transcript.from_binary(transcript.to_binary())
        assert back.protocol == transcript.protocol
        assert back.state_p == transcript.state_p
        assert len(back.records) == len(transcript.records)
        assert all(
            a.channel == b.channel and a.frame == b.frame
            for a, b in zip(back.records, transcript.records)
        )
        assert audit_transcript(back).passed

    def test_alice_output_carries_no_cost(self):
        # a alone; the referee charges the cost of the symbol that Bob echoes
        transcript = self._clean()
        outputs = list(transcript.frames("alice->referee", FrameKind.OUTPUT))
        assert sum(len(rec.frame.payload) for rec in outputs) == 300

    def test_summary_deterministic(self):
        t1 = self._clean()
        t2 = self._clean()
        assert t1.summary_json(audit_transcript(t1)) == t2.summary_json(audit_transcript(t2))

    def test_setting_payloads_are_not_audited(self):
        # the audit reads no field of Alice's setting, so bytes after it still pass
        transcript = self._clean()
        for rec in transcript.frames("referee->alice", FrameKind.SETTING):
            rec.frame = Frame(rec.frame.round, FrameKind.SETTING, rec.frame.payload + b"\x10\x27")
        assert audit_transcript(Transcript.from_binary(transcript.to_binary())).passed

    def test_tampered_symbol_detected(self):
        transcript = self._clean()
        rec = next(transcript.frames("bob->referee", FrameKind.OUTPUT))
        body = bytearray(rec.frame.payload)
        body[1 + 300 + 5] = 9  # after the status byte and b, the echoed message
        rec.frame = Frame(rec.frame.round, FrameKind.OUTPUT, bytes(body))
        rep = audit_transcript(transcript)
        assert not rep.passed
        assert any("outside alphabet" in f for f in rep.findings)

    def test_entry_for_a_silent_round_detected(self):
        # one entry more than the talking rounds, as a message in a silent round gives
        _, transcript = run_networked(ProtocolId.IMPROVED_ONE_BIT, State(0.9), PAIR, 300, seed=17)
        for rec in transcript.frames("bob->referee", FrameKind.OUTPUT):
            rec.frame = Frame(rec.frame.round, FrameKind.OUTPUT, rec.frame.payload + b"\x00")
        rep = audit_transcript(transcript)
        assert any("message has" in f for f in rep.findings)

    def test_tampered_shared_randomness_detected(self):
        # a zeroed key in Bob's setting replays other shared bits r, so the
        # message has entries for rounds in which Alice is silent
        _, transcript = run_networked(ProtocolId.IMPROVED_ONE_BIT, State(0.9), PAIR, 300, seed=17)
        (rec,) = transcript.frames("referee->bob", FrameKind.SETTING)
        rec.frame = Frame(rec.frame.round, FrameKind.SETTING, rec.frame.payload[:-16] + bytes(16))
        rep = audit_transcript(transcript)
        assert any("message has" in f for f in rep.findings)

    def test_injected_duplicate_message_detected(self):
        transcript = self._clean()
        transcript.records.append(
            FrameRecord("bob->referee", Frame(0, FrameKind.OUTPUT, bytes(1 + 300 + 300)))
        )
        rep = audit_transcript(transcript)
        assert any("more than one message" in f for f in rep.findings)

    def test_dropped_message_detected(self):
        transcript = self._clean()
        for i, rec in enumerate(transcript.records):
            if rec.channel == "bob->referee":
                del transcript.records[i]
                break
        rep = audit_transcript(transcript)
        assert any("missing message" in f for f in rep.findings)


def _drop(channel):
    return lambda recs: [r for r in recs if r.channel != channel]


def _alice_outputs_0x07(recs):
    for rec in recs:
        if rec.channel == "alice->referee":
            rec.frame = Frame(rec.frame.round, rec.frame.kind, b"\x07")
    return recs


def _bob_status_2(recs):
    rec = next(r for r in recs if r.channel == "bob->referee")
    rec.frame = Frame(rec.frame.round, rec.frame.kind, b"\x02" + rec.frame.payload[1:])
    return recs


# each edit of a two-chunk trit log's records gives an invalid log
TAMPERINGS = {
    "alice-outputs-removed": _drop("alice->referee"),
    "alice-outputs-0x07": _alice_outputs_0x07,
    "bob-status-2": _bob_status_2,
    "chunk-frames-reversed": lambda recs: recs[:2] + recs[2:4][::-1] + recs[4:],
    "settings-removed": lambda recs: [r for r in recs if r.frame.kind != FrameKind.SETTING],
    "last-chunk-dropped": lambda recs: recs[:-2],
}


@lru_cache(maxsize=None)
def _two_chunk_log() -> bytes:
    _, transcript = run_networked(ProtocolId.TRIT, State(0.7), PAIR, CHUNK + 3, seed=24)
    assert len(transcript.records) == 2 + 2 * 2
    return transcript.to_binary()


class TestAuditCatches:
    def test_untampered_log_passes(self):
        assert audit_transcript(Transcript.from_binary(_two_chunk_log())).passed

    @pytest.mark.parametrize("case", sorted(TAMPERINGS))
    def test_tampered_log_has_findings(self, case):
        transcript = Transcript.from_binary(_two_chunk_log())
        transcript.records = TAMPERINGS[case](transcript.records)
        assert audit_transcript(transcript).findings

    def test_histogram_counts_each_sent_byte_in_order(self):
        # the symbols as a byte-by-byte count over the echoes gives them,
        # keys in order of first appearance included, as ``lhvsim audit`` prints
        transcript = Transcript.from_binary(_two_chunk_log())
        want = Counter()
        for rec in transcript.frames("bob->referee", FrameKind.OUTPUT):
            m = (len(rec.frame.payload) - 1) // 2  # trit talks in every round
            want.update(str(s) for s in rec.frame.payload[1 + m :])
        got = audit_transcript(transcript).symbol_histogram
        assert list(got.items()) == list(want.items())
        assert sum(got.values()) == CHUNK + 3

    def test_audit_command_fails_on_a_tampered_log(self, tmp_path, capsys):
        transcript = Transcript.from_binary(_two_chunk_log())
        transcript.records = TAMPERINGS["chunk-frames-reversed"](transcript.records)
        path = tmp_path / "bad.bin"
        path.write_bytes(transcript.to_binary())
        assert cli_main(["audit", str(path)]) == 1
        assert "frames out of order" in capsys.readouterr().out
