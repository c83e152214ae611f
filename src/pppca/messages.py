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
16-byte unsigned values (covering ring widths up to 128 bits), which are
the [hi, lo] limbs of a ring matrix (:mod:`pppca.ring`) in big-endian
order, so each codec is one numpy conversion.  A share payload starts with
owner (2 bytes), l (2 bytes) and the secret id (2-byte length, then UTF-8)
before that shape.  Its form follows from the message type:
``LOCAL_SHARE_SUM`` carries the entries, and ``SHARE_BUNDLE`` carries the
32-byte seed they expand from (:class:`pppca.sharing.SeededShare`), which
the receiver expands only if the entries would fit the payload cap.  Encrypted
matrices carry the same header, the matrix's shape, followed by the
ceil(rows * cols / s) ciphertexts its entries pack into, s to a plaintext
(see :mod:`pppca.paillier`), each as a fixed-width unsigned value of
ceil(bitlen(n^2) / 8) bytes for the session key's modulus n.

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
from .paillier import Ciphertext, EncryptedMatrix, PublicKey, slot_count
from .sharing import SEED_BYTES, SeededShare, ShareMatrix

MAGIC = b"PPCA"
VERSION = 1
MAX_PAYLOAD = 256 * 1024 * 1024
_HEADER = struct.Struct(">4sBBHHII")
RING_ELEMENT_BYTES = 16


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
    return frame_header(msg) + msg.payload


def frame_header(msg: ProtocolMessage) -> bytes:
    """The header that precedes ``msg.payload`` on the wire."""
    if len(msg.payload) > MAX_PAYLOAD:
        raise FrameFormatError(
            f"payload of {len(msg.payload)} bytes exceeds the 256 MiB cap"
        )
    for name, value, bits in (
        ("sender", msg.sender, 16), ("receiver", msg.receiver, 16), ("step", msg.step, 32)
    ):
        if not 0 <= value < 1 << bits:
            raise FrameFormatError(f"{name} {value} does not fit the header's {bits}-bit field")
    return _HEADER.pack(
        MAGIC,
        VERSION,
        int(msg.msg_type),
        msg.sender,
        msg.receiver,
        msg.step,
        len(msg.payload),
    )


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
    return b"".join((struct.pack(">II", rows, cols), a.astype(">f8", order="C")))


def decode_real_matrix(payload: bytes) -> np.ndarray:
    """A read-only big-endian view of the payload.  Its callers convert it:
    the consumer all providers' rows at once, in ``np.concatenate``, and the
    provider the mean and transfer matrix, in ``linalg``'s checks."""
    if len(payload) < 8:
        raise FrameFormatError("payload ended early")
    rows, cols = struct.unpack_from(">II", payload)
    if rows == 0 or cols == 0:
        raise FrameFormatError(f"real matrix {rows}x{cols} has no entries")
    if rows * cols * 8 != len(payload) - 8:
        raise FrameFormatError(
            f"real matrix {rows}x{cols} does not fit a {len(payload)}-byte payload"
        )
    return np.frombuffer(payload, ">f8", count=rows * cols, offset=8).reshape(rows, cols)


def _cipher_bytes(pk: PublicKey) -> int:
    return (pk.n_squared.bit_length() + 7) // 8


def encode_encrypted_matrix(matrix: EncryptedMatrix) -> bytes:
    rows, cols = matrix.shape
    width = _cipher_bytes(matrix.ciphers[0].public_key)
    cells = (c.value.to_bytes(width, "big") for c in matrix.ciphers)
    return struct.pack(">II", rows, cols) + b"".join(cells)


def decode_encrypted_matrix(payload: bytes, pk: PublicKey, slot_bits: int) -> EncryptedMatrix:
    """The header gives the matrix shape; the ciphertext count must be the
    one that shape packs into at ``slot_bits`` bits per slot."""
    if len(payload) < 8:
        raise FrameFormatError("payload ended early")
    rows, cols = struct.unpack_from(">II", payload)
    width = _cipher_bytes(pk)
    if rows == 0 or cols == 0:
        raise FrameFormatError(f"encrypted matrix {rows}x{cols} has no entries")
    count = -(-rows * cols // slot_count(pk, slot_bits))
    if count * width != len(payload) - 8:
        raise FrameFormatError(
            f"encrypted matrix {rows}x{cols} packs into {count} ciphertexts of "
            f"{width} bytes, which do not fit a {len(payload)}-byte payload"
        )
    try:  # each value outside [0, n^2) or not a unit raises
        cells = tuple(
            Ciphertext(int.from_bytes(payload[at : at + width], "big"), pk)
            for at in range(8, len(payload), width)
        )
    except ValueError as exc:
        raise FrameFormatError(f"malformed ciphertext: {exc}") from exc
    return EncryptedMatrix((rows, cols), slot_bits, cells)


def _share_header(m: ShareMatrix) -> bytes:
    sid = m.secret_id.encode()
    rows, cols = m.shape
    return struct.pack(">HHH", m.owner, m.l, len(sid)) + sid + struct.pack(">II", rows, cols)


def _read_share_header(payload: bytes) -> tuple[_Reader, int, int, bytes, int, int]:
    """The reader past the header, and owner, l, raw secret id, rows, cols."""
    r = _Reader(payload)
    owner, l = r.u16(), r.u16()
    raw_sid = r.take(r.u16())
    rows, cols = r.u32(), r.u32()
    if not 1 <= l <= 8 * RING_ELEMENT_BYTES:
        raise FrameFormatError(f"share matrix ring width {l} outside [1, 128]")
    if rows == 0 or cols == 0:
        raise FrameFormatError(f"share matrix {rows}x{cols} has no entries")
    return r, owner, l, raw_sid, rows, cols


def encode_share_matrix(m: ShareMatrix) -> bytes:
    return _share_header(m) + m.values.astype(">u8").tobytes()  # [hi, lo] per element


def decode_share_matrix(payload: bytes) -> ShareMatrix:
    r, owner, l, raw_sid, rows, cols = _read_share_header(payload)
    if rows * cols * RING_ELEMENT_BYTES != len(payload) - r.pos:
        raise FrameFormatError(
            f"share matrix {rows}x{cols} does not fit a {len(payload)}-byte payload"
        )
    values = np.frombuffer(payload, ">u8", offset=r.pos).reshape(rows, cols, 2)
    try:
        return ShareMatrix(values, owner, raw_sid.decode(), l)
    except ValueError as exc:  # a value outside [0, 2^l), or a bad secret id
        raise FrameFormatError(f"malformed share matrix: {exc}") from exc


def encode_seed_share(m: SeededShare) -> bytes:
    return _share_header(m) + m.seed


def decode_seed_share(payload: bytes) -> SeededShare:
    """A seed-form share, expanded; one whose entries would not fit the
    payload cap in full form is refused before anything is allocated."""
    r, owner, l, raw_sid, rows, cols = _read_share_header(payload)
    if rows * cols * RING_ELEMENT_BYTES > MAX_PAYLOAD:
        raise FrameFormatError(
            f"seeded share {rows}x{cols} expands past the 256 MiB payload cap"
        )
    seed = r.take(SEED_BYTES)
    r.done()
    try:
        secret_id = raw_sid.decode()
    except UnicodeDecodeError as exc:
        raise FrameFormatError(f"malformed seeded share: {exc}") from exc
    return SeededShare(seed, owner, secret_id, l, (rows, cols))


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

    def type_counts(self) -> dict[MsgType, int]:
        counts: dict[MsgType, int] = {}
        for m in self.entries():
            counts[m.msg_type] = counts.get(m.msg_type, 0) + 1
        return counts
