"""Typed protocol messages, their binary wire format, and transcripts.

Wire format (all integers big-endian):

    magic   4 bytes  b"PPCA"
    version 1 byte   0x01
    type    1 byte   message type enum
    sender  2 bytes  party index
    receiver 2 bytes party index
    step    4 bytes  (protocol phase << 16) | receiver
    length  4 bytes  payload byte count, capped at 256 MiB
    payload

Matrix payloads carry rows (4 bytes) and cols (4 bytes) followed by entries
in row-major order: real entries as IEEE-754 binary64, ring entries as
16-byte unsigned values (covering ring widths up to 128 bits), ciphertexts
as fixed-width unsigned values of ceil(bitlen(n^2) / 8) bytes for the
session key's modulus n.

The step field packs the protocol phase in its upper 16 bits; the receiver
index in the lower 16 bits makes steps unique and strictly increasing per
sender when each phase sends to receivers in index order.
"""

from __future__ import annotations

import enum
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FrameFormatError
from .paillier import Ciphertext, PublicKey
from .sharing import ShareMatrix

MAGIC = b"PPCA"
VERSION = 1
MAX_PAYLOAD = 256 * 1024 * 1024
_HEADER = struct.Struct(">4sBBHHII")
RING_ELEMENT_BYTES = 16
_LOW_LIMB = (1 << 64) - 1


class MsgType(enum.IntEnum):
    PUBLIC_KEY = 1
    ENCRYPTED_SUMS = 2
    ENCRYPTED_SUM_AGGREGATE = 3
    PLAIN_MEAN = 4
    ENCRYPTED_COV = 5
    ENCRYPTED_COV_AGGREGATE = 6
    SHARE_BUNDLE = 7
    LOCAL_SHARE_SUM = 8
    TRANSFER_MATRIX = 9
    REDUCED_ROWS = 10
    SAMPLE_COUNT = 11


ENCRYPTED_TYPES = frozenset(
    {
        MsgType.ENCRYPTED_SUMS,
        MsgType.ENCRYPTED_SUM_AGGREGATE,
        MsgType.ENCRYPTED_COV,
        MsgType.ENCRYPTED_COV_AGGREGATE,
    }
)
REAL_MATRIX_TYPES = frozenset(
    {MsgType.PLAIN_MEAN, MsgType.TRANSFER_MATRIX, MsgType.REDUCED_ROWS}
)
SHARE_TYPES = frozenset({MsgType.SHARE_BUNDLE, MsgType.LOCAL_SHARE_SUM})


def make_step(phase: int, receiver: int) -> int:
    if not 0 <= phase < 1 << 16 or not 0 <= receiver < 1 << 16:
        raise ValueError("phase and receiver must fit in 16 bits")
    return (phase << 16) | receiver


def phase_of(step: int) -> int:
    return step >> 16


@dataclass(frozen=True)
class ProtocolMessage:
    msg_type: MsgType
    sender: int
    receiver: int
    step: int
    payload: bytes

    @property
    def phase(self) -> int:
        return phase_of(self.step)


def serialize(msg: ProtocolMessage) -> bytes:
    if len(msg.payload) > MAX_PAYLOAD:
        raise FrameFormatError(
            f"payload of {len(msg.payload)} bytes exceeds the 256 MiB cap"
        )
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        int(msg.msg_type),
        msg.sender,
        msg.receiver,
        msg.step,
        len(msg.payload),
    )
    return header + msg.payload


def parse_header(header: bytes) -> tuple[MsgType, int, int, int, int]:
    """Returns (msg_type, sender, receiver, step, payload_length)."""
    if len(header) < _HEADER.size:
        raise FrameFormatError(
            f"truncated frame header: {len(header)} of {_HEADER.size} bytes"
        )
    magic, version, raw_type, sender, receiver, step, length = _HEADER.unpack(
        header[: _HEADER.size]
    )
    if magic != MAGIC:
        raise FrameFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameFormatError(f"unsupported frame version {version}")
    try:
        msg_type = MsgType(raw_type)
    except ValueError as exc:
        raise FrameFormatError(f"unknown message type {raw_type}") from exc
    if length > MAX_PAYLOAD:
        raise FrameFormatError(f"payload length {length} exceeds the 256 MiB cap")
    return msg_type, sender, receiver, step, length


def deserialize(data: bytes) -> ProtocolMessage:
    """Decode exactly one frame; trailing or missing bytes are an error."""
    msg_type, sender, receiver, step, length = parse_header(data)
    expected = _HEADER.size + length
    if len(data) < expected:
        raise FrameFormatError(
            f"truncated frame: {len(data)} of {expected} bytes"
        )
    if len(data) > expected:
        raise FrameFormatError(
            f"trailing bytes after frame: {len(data) - expected}"
        )
    return ProtocolMessage(
        msg_type=msg_type,
        sender=sender,
        receiver=receiver,
        step=step,
        payload=data[_HEADER.size :],
    )


def header_size() -> int:
    return _HEADER.size


# --- payload codecs -------------------------------------------------------


def _pack_bigint(v: int) -> bytes:
    raw = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
    return struct.pack(">I", len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FrameFormatError("payload ended early")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def bigint(self) -> int:
        return int.from_bytes(self.take(self.u32()), "big")

    def done(self):
        if self.pos != len(self.data):
            raise FrameFormatError(
                f"{len(self.data) - self.pos} unconsumed payload bytes"
            )


def encode_public_key(pk: PublicKey) -> bytes:
    return _pack_bigint(pk.n)


def decode_public_key(payload: bytes) -> PublicKey:
    r = _Reader(payload)
    n = r.bigint()
    r.done()
    if n < 3 or n % 2 == 0:
        raise FrameFormatError("public key modulus is not an odd integer above 1")
    return PublicKey.from_modulus(n)


def encode_real_matrix(x) -> bytes:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    rows, cols = a.shape
    return struct.pack(">II", rows, cols) + a.astype(">f8").tobytes()


def decode_real_matrix(payload: bytes) -> np.ndarray:
    if len(payload) < 8:
        raise FrameFormatError("payload ended early")
    rows, cols = struct.unpack_from(">II", payload)
    if rows * cols * 8 != len(payload) - 8:
        raise FrameFormatError(
            f"real matrix {rows}x{cols} does not fit a {len(payload)}-byte payload"
        )
    entries = np.frombuffer(payload, ">f8", count=rows * cols, offset=8)
    return entries.reshape(rows, cols).astype(np.float64)


def _cipher_bytes(pk: PublicKey) -> int:
    return (pk.n_squared.bit_length() + 7) // 8


def encode_encrypted_matrix(matrix: np.ndarray) -> bytes:
    rows, cols = matrix.shape
    width = _cipher_bytes(matrix[0, 0].public_key)
    cells = (c.value.to_bytes(width, "big") for c in matrix.flat)
    return struct.pack(">II", rows, cols) + b"".join(cells)


def decode_encrypted_matrix(payload: bytes, pk: PublicKey) -> np.ndarray:
    if len(payload) < 8:
        raise FrameFormatError("payload ended early")
    rows, cols = struct.unpack_from(">II", payload)
    width = _cipher_bytes(pk)
    if rows == 0 or cols == 0:
        raise FrameFormatError(f"encrypted matrix {rows}x{cols} has no entries")
    if rows * cols * width != len(payload) - 8:
        raise FrameFormatError(
            f"encrypted matrix {rows}x{cols} does not fit a {len(payload)}-byte payload"
        )
    try:  # each value outside [0, n^2) or not a unit raises
        cells = [
            Ciphertext(int.from_bytes(payload[at : at + width], "big"), pk)
            for at in range(8, len(payload), width)
        ]
    except ValueError as exc:
        raise FrameFormatError(f"malformed ciphertext: {exc}") from exc
    return np.array(cells, dtype=object).reshape(rows, cols)


def encode_share_matrix(m: ShareMatrix) -> bytes:
    sid = m.secret_id.encode()
    rows, cols = m.shape
    # Each 16-byte element as two big-endian 64-bit limbs, high limb first.
    limbs = np.stack([m.values >> 64, m.values & _LOW_LIMB], axis=-1)
    parts = [
        struct.pack(">HH", m.owner, m.l),
        struct.pack(">H", len(sid)),
        sid,
        struct.pack(">II", rows, cols),
        limbs.astype(">u8").tobytes(),
    ]
    return b"".join(parts)


def decode_share_matrix(payload: bytes) -> ShareMatrix:
    r = _Reader(payload)
    owner, l = r.u16(), r.u16()
    raw_sid = r.take(r.u16())
    rows, cols = r.u32(), r.u32()
    if not 1 <= l <= 8 * RING_ELEMENT_BYTES:
        raise FrameFormatError(f"share matrix ring width {l} outside [1, 128]")
    if rows == 0 or cols == 0:
        raise FrameFormatError(f"share matrix {rows}x{cols} has no entries")
    if rows * cols * RING_ELEMENT_BYTES != len(payload) - r.pos:
        raise FrameFormatError(
            f"share matrix {rows}x{cols} does not fit a {len(payload)}-byte payload"
        )
    limbs = np.frombuffer(payload, ">u8", offset=r.pos).astype(object)
    values = ((limbs[0::2] << 64) | limbs[1::2]).reshape(rows, cols)
    try:
        return ShareMatrix(values, owner, raw_sid.decode(), l)
    except ValueError as exc:  # a value outside [0, 2^l), or a bad secret id
        raise FrameFormatError(f"malformed share matrix: {exc}") from exc


def encode_sample_count(n: int) -> bytes:
    return struct.pack(">Q", n)


def decode_sample_count(payload: bytes) -> int:
    r = _Reader(payload)
    n = r.u64()
    r.done()
    return n


# --- transcript -----------------------------------------------------------


class Transcript:
    """Append-only log of every delivered message.

    Append order reflects delivery timing, which may interleave arbitrarily
    across concurrent receivers; :meth:`entries` therefore returns the
    canonical order (phase, sender, receiver), which is unique because each
    (phase, sender, receiver) triple occurs at most once per session.
    """

    def __init__(self):
        self._messages: list[ProtocolMessage] = []
        self._lock = threading.Lock()

    def append(self, msg: ProtocolMessage):
        with self._lock:
            self._messages.append(msg)

    def __len__(self) -> int:
        with self._lock:
            return len(self._messages)

    def raw(self) -> list[ProtocolMessage]:
        """Messages in append (delivery) order."""
        with self._lock:
            return list(self._messages)

    def entries(self) -> list[ProtocolMessage]:
        """Messages in canonical (phase, sender, receiver) order."""
        with self._lock:
            return sorted(
                self._messages, key=lambda m: (m.phase, m.sender, m.receiver)
            )

    def canonical_bytes(self) -> bytes:
        """Byte-exact rendering used for transcript equality checks."""
        return b"".join(serialize(m) for m in self.entries())

    def received_by(self, party: int) -> list[ProtocolMessage]:
        return [m for m in self.entries() if m.receiver == party]

    def type_counts(self) -> dict[MsgType, int]:
        counts: dict[MsgType, int] = {}
        for m in self.entries():
            counts[m.msg_type] = counts.get(m.msg_type, 0) + 1
        return counts
