"""Whole sessions with one fault in one frame (ROADMAP item 12).

Every frame of a seeded M=3 session, under both back ends, is delivered
cut in half, extended by 8 bytes, emptied, or with one bit flipped; and one
frame per (phase, message type) is dropped.  The faults are injected where
every frame passes, ``SimulatedNetwork.deliver``.  Whatever the fault, only
a ``ProtocolAbort`` may escape, and it names a party and the phase.  A bit
flip may also change the result silently, which the semi-honest model
accepts.
"""

import re
import time
from dataclasses import replace

import numpy as np
import pytest

from pppca.errors import FrameFormatError, ProtocolAbort
from pppca.protocol import SessionConfig, run_session
from pppca.transport import SimulatedNetwork

WINDOW = 0.1  # this file's stall window: a stalled drop waits out one or two
BLOCKS = np.array_split(np.random.default_rng(12).normal(size=(36, 4)), 3)

CONFIGS = {
    "ss": SessionConfig(method="ss", parties=3, k=2, seed=5, timeout=WINDOW),
    "he": SessionConfig(
        method="he", parties=3, k=2, seed=5, key_bits=512, allow_test_key=True, timeout=WINDOW
    ),
}

MALFORMING = {  # each of these must be caught by the payload's decoder
    "cut": lambda p: p[: len(p) // 2],
    "extended": lambda p: p + bytes(8),
    "emptied": lambda p: b"",
}
FLIPPING = {
    "first-byte-flip": lambda p: bytes([p[0] ^ 0x01]) + p[1:],
    "last-top-bit-flip": lambda p: p[:-1] + bytes([p[-1] ^ 0x80]),
}


def _frames(method):
    """Every frame of the fault-free session, in canonical order."""
    return run_session(CONFIGS[method], BLOCKS).transcript.entries()


def _run_with(monkeypatch, method, frame, fault):
    """Run a session that delivers ``frame`` as ``fault`` makes it, or drops
    it if ``fault`` is None.  Returns the abort (None if the session ended)
    and the seconds from the drop to the end (None if nothing was dropped)."""
    real = SimulatedNetwork.deliver
    dropped = []

    def deliver(network, msg):
        if (msg.sender, msg.receiver, msg.step) == (frame.sender, frame.receiver, frame.step):
            if fault is None:
                dropped.append(time.perf_counter())
                return
            msg = replace(msg, payload=fault(msg.payload))
        real(network, msg)

    monkeypatch.setattr(SimulatedNetwork, "deliver", deliver)
    abort = None
    try:
        run_session(CONFIGS[method], BLOCKS)
    except ProtocolAbort as exc:
        abort = exc
    except Exception as exc:  # noqa: BLE001 - the assertion names it
        pytest.fail(f"{frame.msg_type.name} {frame.sender}->{frame.receiver}: {exc!r} escaped")
    finally:
        monkeypatch.undo()
    return abort, (time.perf_counter() - dropped[0] if dropped else None)


def _assert_names_a_party_and_the_phase(abort, frame):
    message = str(abort)
    assert message.startswith(f"protocol aborted in phase {abort.phase}: "), message
    assert abort.phase >= frame.phase, message
    if abort.reason.startswith("session stalled"):
        waiting = re.findall(r"party \d+ in phase (\d+)", abort.reason)
        assert waiting and abort.phase == min(map(int, waiting)), message
        return
    party = re.match(r"party (\d+): ", abort.reason)
    assert party, message
    assert message.count(f"party {party[1]}") == 1, message


@pytest.mark.parametrize("method", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(MALFORMING))
def test_a_malformed_payload_aborts_naming_receiver_type_and_sender(monkeypatch, method, name):
    for frame in _frames(method):
        abort, _ = _run_with(monkeypatch, method, frame, MALFORMING[name])
        assert abort is not None, f"{name} {frame.msg_type.name} went unnoticed"
        _assert_names_a_party_and_the_phase(abort, frame)
        assert isinstance(abort.cause, FrameFormatError), str(abort)
        assert abort.phase == frame.phase
        assert abort.reason.startswith(
            f"party {frame.receiver}: malformed {frame.msg_type.name} from party {frame.sender}: "
        ), str(abort)


@pytest.mark.parametrize("method", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(FLIPPING))
def test_a_flipped_bit_aborts_naming_a_party_or_passes(monkeypatch, method, name):
    for frame in _frames(method):
        abort, _ = _run_with(monkeypatch, method, frame, FLIPPING[name])
        if abort is not None:
            _assert_names_a_party_and_the_phase(abort, frame)


@pytest.mark.parametrize("method", sorted(CONFIGS))
def test_a_dropped_frame_aborts_within_three_windows(monkeypatch, method):
    first = {}  # one frame per (phase, message type)
    for frame in _frames(method):
        first.setdefault((frame.phase, frame.msg_type), frame)
    for frame in first.values():
        abort, waited = _run_with(monkeypatch, method, frame, None)
        assert abort is not None, f"dropping {frame.msg_type.name} went unnoticed"
        _assert_names_a_party_and_the_phase(abort, frame)
        # The receiver either waits for the frame in its phase, which the
        # stall names, or takes the sender's next frame in its place.
        assert (
            f"party {frame.receiver} in phase {frame.phase}" in abort.reason
            if abort.reason.startswith("session stalled")
            else abort.reason.startswith(
                f"party {frame.receiver}: expected {frame.msg_type.name} in phase "
                f"{frame.phase} from party {frame.sender}, got "
            )
        ), str(abort)
        assert waited < 3 * WINDOW, (frame.msg_type.name, waited)
