"""Fixtures shared by the test modules."""

import pytest

from lhvsim import wire


@pytest.fixture
def oversize_messages(monkeypatch):
    """Calling it makes Alice send every MESSAGE frame one entry too long.

    The party processes are forked, so they inherit the patched ``send_frame``.
    """
    send = wire.send_frame

    def send_long(sock, frame):
        if frame.kind == wire.FrameKind.MESSAGE:
            frame = wire.Frame(frame.round, frame.kind, frame.payload + b"\x00")
        send(sock, frame)

    return lambda: monkeypatch.setattr(wire, "send_frame", send_long)
