"""Typed protocol messages, their binary wire format, and transcripts.

Every integer on the wire is unsigned and big-endian.  A frame is:

    magic    4 bytes  b"PPCA"
    version  1 byte   0x02
    type     1 byte   message type enum
    sender   2 bytes  party index
    receiver 2 bytes  party index
    step     4 bytes  (protocol phase << 16) | receiver
    length   4 bytes  payload byte count, capped at 256 MiB
    payload

The step field packs the protocol phase in its upper 16 bits; the receiver
index in the lower 16 bits makes steps unique and strictly increasing per
sender when each phase sends to receivers in index order.  Both transports
read every frame through :func:`read_frame`, the one place that parses one.

Payloads, by message type, where a shape is rows (4 bytes) then cols
(4 bytes), neither zero, and entries follow it in row-major order:

    SAMPLE_COUNT      the count (8 bytes)
    PUBLIC_KEY        the byte length of n (4 bytes), then n's minimal
                      big-endian magnitude (at least one byte)
    PLAIN_MEAN, TRANSFER_MATRIX, REDUCED_ROWS
                      shape, then IEEE-754 binary64 entries; PLAIN_MEAN is
                      2 x d: the mean, then the covariance round's scale
                      exponent of each column, an integer
    ENCRYPTED_*       shape, then the ceil(rows * cols / s) ciphertexts the
                      entries pack into, s to a plaintext (see
                      :mod:`pppca.paillier`), each ceil(bitlen(n^2) / 8)
                      bytes for the session key's modulus n
    LOCAL_SHARE_SUM   share header, then the entries of a ring matrix
                      (:mod:`pppca.ring`): 8 bytes each, the low limb, for
                      l <= 64, and 16 bytes, the [hi, lo] limbs, above
    SHARE_BUNDLE      share header, then the 32-byte seed the entries expand
                      from (:class:`pppca.sharing.SeededShare`)

A share header is owner (2 bytes), the ring width l (2 bytes, in [1, 128]),
the secret id's length (2 bytes) and its UTF-8 bytes, then the shape.
Entries cross in one numpy conversion, ciphertexts one Python int each, and
each decoder takes exactly the bytes its layout names.  A real matrix
takes one buffer on its way to the wire: its writer fills the entries of
:func:`real_matrix_payload` in place, as ``linalg.project`` does with a
provider's reduced rows.  A matrix decoder refuses a shape other than the
one its receiver expects before it allocates.
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
# Version 2: PLAIN_MEAN carries the scale exponents, and a share matrix of
# l <= 64 bits sends one limb per entry.
VERSION = 2
MAX_PAYLOAD = 256 * 1024 * 1024
_HEADER = struct.Struct(">4sBBHHII")
_SHAPE = struct.Struct(">II")  # rows, cols
_SHARE_HEAD = struct.Struct(">HHH")  # owner, l, secret id length
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
MAX_RING_BITS = 128


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


@dataclass(frozen=True)
class ProtocolMessage:
    """One frame.  A sender may pass a payload it filled in place, as a
    bytearray it no longer writes; every delivered payload is bytes."""

    msg_type: MsgType
    sender: int
    receiver: int
    step: int
    payload: bytes

    @property
    def phase(self) -> int:
        return self.step >> 16


def serialize(msg: ProtocolMessage) -> bytes:
    return frame_header(msg) + msg.payload


def frame_header(msg: ProtocolMessage) -> bytes:
    """The header that precedes ``msg.payload`` on the wire."""
    if len(msg.payload) > MAX_PAYLOAD:
        raise FrameFormatError(f"payload of {len(msg.payload)} bytes exceeds the 256 MiB cap")
    _check_fields(
        "header", ("sender", msg.sender, 16), ("receiver", msg.receiver, 16), ("step", msg.step, 32)
    )
    return _HEADER.pack(
        MAGIC, VERSION, int(msg.msg_type), msg.sender, msg.receiver, msg.step, len(msg.payload)
    )


def _check_fields(where: str, *fields: tuple[str, int, int]):
    """Each (name, value, bits) must fit its unsigned field of ``where``."""
    for name, value, bits in fields:
        if not 0 <= value < 1 << bits:
            raise FrameFormatError(f"{name} {value} does not fit the {where}'s {bits}-bit field")


def read_frame(read) -> ProtocolMessage | None:
    """The next frame from ``read(n)``, which returns n bytes, or fewer only
    where its stream ends; None if the stream ends before a frame begins.
    A malformed header, or a frame cut short, raises ``FrameFormatError``."""
    header = read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise FrameFormatError(
            f"stream ended mid-frame: {len(header)} of a header's {_HEADER.size} bytes"
        )
    magic, version, raw_type, sender, receiver, step, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameFormatError(
            f"unsupported frame version {version}; this build reads version {VERSION}"
        )
    try:
        msg_type = MsgType(raw_type)
    except ValueError as exc:
        raise FrameFormatError(f"unknown message type {raw_type}") from exc
    if length > MAX_PAYLOAD:
        raise FrameFormatError(f"payload length {length} exceeds the 256 MiB cap")
    payload = read(length)
    if len(payload) < length:
        raise FrameFormatError(
            f"stream ended mid-frame: {_HEADER.size + len(payload)} of party {sender}'s "
            f"{_HEADER.size + length}-byte frame"
        )
    return ProtocolMessage(msg_type, sender, receiver, step, payload)


def header_size() -> int:
    return _HEADER.size


# --- payload codecs -------------------------------------------------------


def _pack_bigint(v: int) -> bytes:
    raw = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
    return _U32.pack(len(raw)) + raw


def _unpack(layout: struct.Struct, payload: bytes, at: int = 0) -> tuple:
    if len(payload) < at + layout.size:
        raise FrameFormatError("payload ended early")
    return layout.unpack_from(payload, at)


def _shape(payload: bytes, at: int, what: str, expected=None) -> tuple[int, int]:
    """The (rows, cols) at offset ``at``; neither may be zero, and each must
    be ``expected``'s, if given, where that is not None."""
    rows, cols = _unpack(_SHAPE, payload, at)
    if rows == 0 or cols == 0:
        raise FrameFormatError(f"{what} {rows}x{cols} has no entries")
    if expected is not None and any(e not in (None, got) for e, got in zip(expected, (rows, cols))):
        want = "x".join("*" if e is None else str(e) for e in expected)
        raise FrameFormatError(f"{what} {rows}x{cols} is not the expected {want}")
    return rows, cols


def _fits(payload: bytes, size: int, what: str):
    """The payload must be exactly the ``size`` bytes its layout names."""
    if len(payload) != size:
        raise FrameFormatError(f"{what} takes {size} bytes, not the payload's {len(payload)}")


def encode_public_key(pk: PublicKey) -> bytes:
    return _pack_bigint(pk.n)


def decode_public_key(payload: bytes) -> PublicKey:
    (size,) = _unpack(_U32, payload)
    _fits(payload, _U32.size + size, f"public key of {size} bytes")
    n = int.from_bytes(payload[_U32.size :], "big")
    if n < 3 or n % 2 == 0:
        raise FrameFormatError("public key modulus is not an odd integer above 1")
    return PublicKey.from_modulus(n)


def real_matrix_payload(rows: int, cols: int) -> tuple[bytearray, np.ndarray]:
    """A real-matrix payload of ``rows`` x ``cols``, and a writable
    big-endian view of its entries for the caller to fill in place: the one
    buffer the entries take on their way to the wire."""
    payload = bytearray(_SHAPE.size + rows * cols * 8)
    _SHAPE.pack_into(payload, 0, rows, cols)
    return payload, np.frombuffer(payload, ">f8", offset=_SHAPE.size).reshape(rows, cols)


def encode_real_matrix(x) -> bytearray:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    payload, entries = real_matrix_payload(*a.shape)
    entries[...] = a
    return payload


def decode_real_matrix(payload: bytes, shape=None) -> np.ndarray:
    """A read-only big-endian view of the payload.  Its callers convert it:
    the consumer all providers' rows at once, in ``np.concatenate``, and the
    provider the mean and transfer matrix, in ``linalg``'s checks."""
    rows, cols = _shape(payload, 0, "real matrix", shape)
    _fits(payload, _SHAPE.size + rows * cols * 8, f"real matrix {rows}x{cols}")
    view = np.frombuffer(payload, ">f8", offset=_SHAPE.size).reshape(rows, cols)
    view.flags.writeable = False  # a bytearray payload's view is writable too
    return view


def _cipher_bytes(pk: PublicKey) -> int:
    return (pk.n_squared.bit_length() + 7) // 8


def encode_encrypted_matrix(matrix: EncryptedMatrix) -> bytes:
    width = _cipher_bytes(matrix.ciphers[0].public_key)
    cells = (c.value.to_bytes(width, "big") for c in matrix.ciphers)
    return _SHAPE.pack(*matrix.shape) + b"".join(cells)


def decode_encrypted_matrix(payload, pk: PublicKey, slot_bits: int, shape=None) -> EncryptedMatrix:
    """The header gives the matrix shape; the ciphertext count must be the
    one that shape packs into at ``slot_bits`` bits per slot."""
    rows, cols = _shape(payload, 0, "encrypted matrix", shape)
    width = _cipher_bytes(pk)
    count = -(-rows * cols // slot_count(pk, slot_bits))
    what = f"encrypted matrix {rows}x{cols} in {count} ciphertexts of {width} bytes"
    _fits(payload, _SHAPE.size + count * width, what)
    try:  # each value outside [0, n^2) or not a unit raises
        cells = tuple(
            Ciphertext(int.from_bytes(payload[at : at + width], "big"), pk)
            for at in range(_SHAPE.size, len(payload), width)
        )
    except ValueError as exc:
        raise FrameFormatError(f"malformed ciphertext: {exc}") from exc
    return EncryptedMatrix((rows, cols), slot_bits, cells)


def _share_header(m: ShareMatrix) -> bytes:
    sid = m.secret_id.encode()
    _check_fields(
        "share header", ("owner", m.owner, 16), ("l", m.l, 16), ("secret id length", len(sid), 16)
    )
    return _SHARE_HEAD.pack(m.owner, m.l, len(sid)) + sid + _SHAPE.pack(*m.shape)


def _read_share_header(payload: bytes, what: str, expected) -> tuple:
    """Owner, l, secret id, shape (as ``expected``), and the offset past the
    header."""
    owner, l, size = _unpack(_SHARE_HEAD, payload)
    at = _SHARE_HEAD.size + size
    shape = _shape(payload, at, what, expected)
    if not 1 <= l <= MAX_RING_BITS:
        raise FrameFormatError(f"{what} ring width {l} outside [1, {MAX_RING_BITS}]")
    try:
        secret_id = payload[_SHARE_HEAD.size : at].decode()
    except UnicodeDecodeError as exc:
        raise FrameFormatError(f"malformed {what}: {exc}") from exc
    return owner, l, secret_id, shape, at + _SHAPE.size


def _limbs(l: int) -> int:
    """64-bit limbs sent per element of a share matrix over Z_{2^l}."""
    return 1 if l <= 64 else 2


def encode_share_matrix(m: ShareMatrix) -> bytes:
    # [lo] or [hi, lo] per element: the high limb of an l <= 64 element is 0.
    limbs = m.values[..., 2 - _limbs(m.l) :]
    return _share_header(m) + limbs.astype(">u8").tobytes()


def decode_share_matrix(payload: bytes, shape=None) -> ShareMatrix:
    owner, l, secret_id, (rows, cols), at = _read_share_header(payload, "share matrix", shape)
    limbs = _limbs(l)
    _fits(payload, at + rows * cols * 8 * limbs, f"share matrix {rows}x{cols} of l={l}")
    values = np.zeros((rows, cols, 2), np.uint64)
    values[..., 2 - limbs :] = np.frombuffer(payload, ">u8", offset=at).reshape(rows, cols, limbs)
    try:
        return ShareMatrix(values, owner, secret_id, l)
    except ValueError as exc:  # a value outside [0, 2^l)
        raise FrameFormatError(f"malformed share matrix: {exc}") from exc


def encode_seed_share(m: SeededShare) -> bytes:
    return _share_header(m) + m.seed


def decode_seed_share(payload: bytes, shape) -> SeededShare:
    """A seed-form share of ``shape``, expanded.  Its header alone sets what
    the seed expands to, so any other shape is refused before that."""
    owner, l, secret_id, (rows, cols), at = _read_share_header(payload, "seeded share", shape)
    _fits(payload, at + SEED_BYTES, "seeded share")
    return SeededShare(payload[at:], owner, secret_id, l, (rows, cols))


def encode_sample_count(n: int) -> bytes:
    return _U64.pack(n)


def decode_sample_count(payload: bytes) -> int:
    _fits(payload, _U64.size, "sample count")
    return _U64.unpack(payload)[0]


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
