"""n-out-of-n additive secret sharing over Z_{2^l}.

A secret s splits into M shares: M - 1 of them are pseudo-random and the
balancing one is s minus their sum mod 2^l.  Every share is required for
reconstruction; any proper subset looks uniformly distributed and carries
no information about the secret to anyone who cannot tell the
pseudo-random shares from uniform ones.

Each pseudo-random share is the expansion of its own fresh 32-byte seed,
drawn from the party's :class:`CounterPRG`: one SHAKE-128 call over
``SHARE_TAG + seed`` yields ceil(l/8) bytes per entry, and each entry keeps
the top l bits of its bytes, read big-endian.  A :class:`SeededShare` keeps
its seed, so the seed alone stands for the share on the wire; the balancing
share has no seed.  That the expansion cannot be told from uniform is the
assumption the shares rest on (pseudorandom secret sharing).

Matrix secrets are shared entry-wise with whole-array arithmetic: a party's
share is a :class:`ShareMatrix` whose values are one read-only ring matrix
of [hi, lo] uint64 limbs (see :mod:`pppca.ring`), so every width up to 128
bits takes the same wrapping limb arithmetic.  The scalar functions are the
1x1 case of the matrix ones and take and return Python ints.  A session
shares each round on its own ring: the column sums and sums of squares at
the configured l, and the scaled covariance terms at l = 64, whose elements
take 8 bytes each to expand and, one limb apiece, to send.

Shares are tagged with a ``secret_id`` so that shares of unrelated secrets
cannot be mixed in one reconstruction by accident, and with the owning
party's index so local sums cannot silently combine values held by
different parties.
"""

from __future__ import annotations

import hashlib
import secrets as _secrets
from dataclasses import dataclass

import numpy as np

from . import ring
from .errors import (
    DimensionError,
    IncompleteSharesError,
    ShareBindingError,
    ShareOwnershipError,
)


SEED_BYTES = 32
SHARE_TAG = b"pppca/share/"  # domain separation of the share expansion


def _width(bits: int) -> int:
    """Bytes per draw of ``bits`` bits."""
    if not 0 < bits <= 128:
        raise ValueError("bits must lie in [1, 128]")
    return (bits + 7) // 8


def _limbs(raw: bytes, bits: int, count: int) -> np.ndarray:
    """``count`` integers in [0, 2^bits), bits <= 128, as a (count, 2) array
    of [hi, lo] limbs: each takes the next ceil(bits/8) bytes of ``raw``,
    big-endian, and keeps the top ``bits``."""
    nbytes = _width(bits)
    # Left-pad each draw to 16 bytes: two big-endian limbs.
    padded = np.zeros((count, 16), np.uint8)
    padded[:, 16 - nbytes :] = np.frombuffer(raw, np.uint8).reshape(count, nbytes)
    values = padded.view(">u8").astype(np.uint64)
    shift = nbytes * 8 - bits
    if shift:
        values[:, 1] >>= np.uint64(shift)
        values[:, 1] |= values[:, 0] << np.uint64(64 - shift)
        values[:, 0] >>= np.uint64(shift)
    return values


class CounterPRG:
    """Deterministic counter-mode generator over SHA-256.

    State is the 32-byte seed plus a 128-bit block counter; each block hashes
    seed || counter.  Seed from ``CounterPRG.random_seed()`` for protocol
    runs, or from a fixed int/bytes for reproducible tests.  Sharing draws
    only share seeds from it.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            if not 0 <= seed < 1 << 256:
                raise ValueError("integer seed must lie in [0, 2^256)")
            seed = seed.to_bytes(32, "big")
        if len(seed) == 0:
            raise ValueError("seed must be non-empty")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    @staticmethod
    def random_seed() -> bytes:
        return _secrets.token_bytes(SEED_BYTES)

    def randbytes(self, n: int) -> bytes:
        """The next ``n`` bytes of the stream."""
        blocks = -(-(n - len(self._buffer)) // 32)
        if blocks > 0:
            keyed = hashlib.sha256(self._seed)
            digests = []
            for i in range(self._counter, self._counter + blocks):
                block = keyed.copy()
                block.update(i.to_bytes(16, "big"))
                digests.append(block.digest())
            self._buffer += b"".join(digests)
            self._counter += blocks
        chunk, self._buffer = self._buffer[:n], self._buffer[n:]
        return chunk


@dataclass(frozen=True, eq=False)
class ShareMatrix:
    """One party's share of every entry of a matrix-valued secret.

    ``values`` is a ring matrix of elements in [0, 2^l); the share stores
    its own read-only copy.
    """

    values: np.ndarray
    owner: int
    secret_id: str
    l: int

    def __post_init__(self):
        values = np.array(ring.checked(self.values, self.l, "share value"), np.uint64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def _wrap(cls, values: np.ndarray, owner: int, secret_id: str, l: int):
        """A share holding ``values``, a ring matrix already reduced mod 2^l
        that nothing else writes to: made read-only, not copied and checked."""
        values.flags.writeable = False
        m = object.__new__(cls)
        m.__dict__.update(values=values, owner=owner, secret_id=secret_id, l=l)
        return m

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[:2]

    def __eq__(self, other):
        if not isinstance(other, ShareMatrix):
            return NotImplemented
        same = (self.owner, self.secret_id, self.l) == (other.owner, other.secret_id, other.l)
        return same and np.array_equal(self.values, other.values)


class SeededShare(ShareMatrix):
    """A share whose values are the SHAKE-128 expansion of a 32-byte
    ``seed``, so that the seed stands for it on the wire."""

    def __init__(self, seed: bytes, owner: int, secret_id: str, l: int, shape: tuple[int, int]):
        if len(seed) != SEED_BYTES:
            raise ValueError(f"a share seed has {SEED_BYTES} bytes, got {len(seed)}")
        rows, cols = shape
        raw = hashlib.shake_128(SHARE_TAG + seed).digest(rows * cols * _width(l))
        values = _limbs(raw, l, rows * cols).reshape(rows, cols, 2)
        values.flags.writeable = False
        self.__dict__.update(values=values, owner=owner, secret_id=secret_id, l=l, seed=bytes(seed))


def share_matrix(
    ring_matrix,
    parties: int,
    l: int,
    prg: CounterPRG,
    secret_id: str | None = None,
    balance: int | None = None,
) -> list[ShareMatrix]:
    """Entry-wise sharing of a ring matrix.

    Share ``balance`` (default: the last) is the balancing term; every other
    share is a :class:`SeededShare`, its seed the next 32 bytes of ``prg``,
    drawn in index order.
    """
    if parties < 2:
        raise ValueError(f"need at least 2 parties, got {parties}")
    if balance is None:
        balance = parties - 1
    if not 0 <= balance < parties:
        raise ValueError(f"balancing share {balance} outside [0, {parties})")
    if secret_id is None:
        secret_id = _secrets.token_hex(8)
    secret = ring.checked(ring_matrix, l, "entry")
    shape = secret.shape[:2]
    mats: list[ShareMatrix] = [
        SeededShare(prg.randbytes(SEED_BYTES), i, secret_id, l, shape)
        for i in range(parties)
        if i != balance
    ]
    own = ring.sub(secret, *(m.values for m in mats), l=l)
    mats.insert(balance, ShareMatrix._wrap(own, balance, secret_id, l))
    return mats


def _check(mats: list[ShareMatrix], local: bool, party_count: int | None = None):
    """One ring width and shape throughout; a local sum needs one owner, a
    reconstruction one secret and one share from each of its parties."""
    if not mats:
        raise IncompleteSharesError("no shares given")
    first = mats[0]
    for m in mats:
        if local and m.owner != first.owner:
            raise ShareOwnershipError(f"local sum mixes owners {first.owner} and {m.owner}")
        if not local and m.secret_id != first.secret_id:
            raise ShareBindingError(f"mixed secrets: {first.secret_id!r} vs {m.secret_id!r}")
        if m.l != first.l:
            raise ShareBindingError(f"mixed ring widths: {first.l} vs {m.l}")
        if m.shape != first.shape:
            raise DimensionError(f"shape mismatch: {first.shape} vs {m.shape}")
    if local:
        return
    owners = sorted(m.owner for m in mats)
    expected = party_count if party_count is not None else max(owners) + 1
    if owners != list(range(expected)):
        raise IncompleteSharesError(
            f"need one share from each of {expected} parties, got owners {owners}"
        )


def reconstruct_matrix(
    mats: list[ShareMatrix], party_count: int | None = None
) -> np.ndarray:
    """Entry-wise modular sum of one share matrix per party.

    Owners must form the contiguous set {0, ..., K-1}; pass ``party_count``
    to also pin K (a missing trailing share is otherwise indistinguishable
    from a smaller sharing).
    """
    _check(mats, local=False, party_count=party_count)
    return ring.add(*(m.values for m in mats), l=mats[0].l)


def add_local_matrix(mats: list[ShareMatrix]) -> ShareMatrix:
    """Entry-wise sum of share matrices of different secrets held by one party.

    The result is that party's share of the sum of the underlying secrets,
    tagged with a secret_id derived from the operand ids.
    """
    _check(mats, local=True)
    first = mats[0]
    values = ring.add(*(m.values for m in mats), l=first.l)
    derived = "sum(" + "+".join(m.secret_id for m in mats) + ")"
    return ShareMatrix._wrap(values, first.owner, derived, first.l)


# --- scalars: the 1x1 case ----------------------------------------------------


class Share(ShareMatrix):
    """One party's additive share of an l-bit secret: a 1x1 share matrix."""

    def __init__(self, value: int, owner: int, secret_id: str, l: int):
        super().__init__(ring.from_ints([[value]]), owner, secret_id, l)

    @property
    def value(self) -> int:
        return _element(self.values)


def _element(values: np.ndarray) -> int:
    hi, lo = values[0, 0].tolist()
    return hi << 64 | lo


def share(
    s: int,
    parties: int,
    l: int,
    prg: CounterPRG,
    secret_id: str | None = None,
) -> list[Share]:
    """Split ``s`` into ``parties`` shares whose sum mod 2^l is ``s``.

    Shares are owned by parties 0 .. parties-1; the first parties-1 values
    expand seeds drawn from ``prg`` and the last is the balancing term.
    """
    mats = share_matrix(ring.from_ints([[s]]), parties, l, prg, secret_id)
    return [Share._wrap(m.values, m.owner, m.secret_id, l) for m in mats]


def reconstruct(shares: list[Share], party_count: int | None = None) -> int:
    """Sum all shares mod 2^l; see :func:`reconstruct_matrix`."""
    return _element(reconstruct_matrix(shares, party_count))


def add_local(shares: list[Share]) -> Share:
    """Sum shares of different secrets held by one party; see
    :func:`add_local_matrix`."""
    total = add_local_matrix(shares)
    return Share._wrap(total.values, total.owner, total.secret_id, total.l)
