"""n-out-of-n additive secret sharing over Z_{2^l}.

A secret s splits into M shares: the first M - 1 are uniform draws from a
pseudo-random generator and the last is s minus their sum mod 2^l.  Every
share is required for reconstruction; any proper subset is uniformly
distributed and carries no information about the secret.

Matrix secrets are shared entry-wise with whole-array arithmetic: a party's
share is a :class:`ShareMatrix` whose values are one read-only 2-D object
array of Python ints, so ``% 2^l`` wraps every width up to 128 bits alike.
The scalar functions are the 1x1 case of the matrix ones.

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

from .errors import (
    DimensionError,
    IncompleteSharesError,
    ShareBindingError,
    ShareOwnershipError,
)


class CounterPRG:
    """Deterministic counter-mode generator over SHA-256.

    State is the 32-byte seed plus a 128-bit block counter; each block hashes
    seed || counter.  Seed from ``CounterPRG.random_seed()`` for protocol
    runs, or from a fixed int/bytes for reproducible tests.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError("integer seed must be non-negative")
            seed = seed.to_bytes(32, "big")
        if len(seed) == 0:
            raise ValueError("seed must be non-empty")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    @staticmethod
    def random_seed() -> bytes:
        return _secrets.token_bytes(32)

    def randbits_array(self, bits: int, count: int) -> np.ndarray:
        """``count`` successive uniform integers in [0, 2^bits), in order.

        Each draw takes the next ceil(bits/8) bytes of the stream, big-endian,
        and keeps the top ``bits``; the result is a 1-D object array of ints.
        """
        if bits <= 0:
            raise ValueError("bits must be positive")
        nbytes = (bits + 7) // 8
        need = count * nbytes
        blocks = -(-(need - len(self._buffer)) // 32)
        self._buffer += b"".join(
            hashlib.sha256(self._seed + (self._counter + i).to_bytes(16, "big")).digest()
            for i in range(blocks)
        )
        self._counter += max(blocks, 0)
        chunk, self._buffer = self._buffer[:need], self._buffer[need:]
        # Left-pad each draw to whole 64-bit words, then join the words.
        width = -(-nbytes // 8) * 8
        raw = np.zeros((count, width), np.uint8)
        raw[:, width - nbytes :] = np.frombuffer(chunk, np.uint8).reshape(count, nbytes)
        words = raw.view(">u8").astype(object)
        values = words[:, 0]
        for k in range(1, width // 8):
            values = (values << 64) | words[:, k]
        return values >> (nbytes * 8 - bits)

    def randbits(self, bits: int) -> int:
        """A uniform integer in [0, 2^bits)."""
        return int(self.randbits_array(bits, 1)[0])

    def derive(self, label: str | int) -> "CounterPRG":
        """An independent stream bound to this seed and ``label``."""
        material = hashlib.sha256(
            self._seed + b"/derive/" + str(label).encode()
        ).digest()
        return CounterPRG(material)


@dataclass(frozen=True, eq=False)
class ShareMatrix:
    """One party's share of every entry of a matrix-valued secret.

    ``values`` is stored as a read-only 2-D object array of ints in
    [0, 2^l); any 2-D array-like of ints is accepted.
    """

    values: np.ndarray
    owner: int
    secret_id: str
    l: int

    def __post_init__(self):
        values = np.array(self.values, dtype=object)
        if values.ndim != 2 or 0 in values.shape:
            raise DimensionError(f"share matrix must be 2-D and at least 1x1, got {values.shape}")
        if np.count_nonzero(values >> self.l):  # 0 exactly for ints in [0, 2^l)
            r, c = np.argwhere(values >> self.l)[0]
            raise ValueError(f"share value at ({r}, {c}) outside [0, 2^{self.l})")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __eq__(self, other):
        if not isinstance(other, ShareMatrix):
            return NotImplemented
        same = (self.owner, self.secret_id, self.l) == (other.owner, other.secret_id, other.l)
        return same and np.array_equal(self.values, other.values)


def share_matrix(
    ring_matrix,
    parties: int,
    l: int,
    prg: CounterPRG,
    secret_id: str | None = None,
) -> list[ShareMatrix]:
    """Entry-wise sharing of a matrix of ring elements.

    The PRG stream is consumed in row-major entry order, parties - 1 draws
    per entry; the last party's share is the balancing term.
    """
    if parties < 2:
        raise ValueError(f"need at least 2 parties, got {parties}")
    if secret_id is None:
        secret_id = _secrets.token_hex(8)
    ring = np.atleast_2d(np.asarray(ring_matrix, dtype=object))
    if np.count_nonzero(ring >> l):
        r, c = np.argwhere(ring >> l)[0]
        raise ValueError(f"entry at ({r}, {c}) outside [0, 2^{l})")
    drawn = prg.randbits_array(l, ring.size * (parties - 1)).reshape(*ring.shape, parties - 1)
    values = [drawn[..., i] for i in range(parties - 1)]
    values.append((ring - drawn.sum(axis=-1)) % (1 << l))
    return [ShareMatrix(v, i, secret_id, l) for i, v in enumerate(values)]


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
    return sum(m.values for m in mats) % (1 << mats[0].l)


def add_local_matrix(mats: list[ShareMatrix]) -> ShareMatrix:
    """Entry-wise sum of share matrices of different secrets held by one party.

    The result is that party's share of the sum of the underlying secrets,
    tagged with a secret_id derived from the operand ids.
    """
    _check(mats, local=True)
    first = mats[0]
    values = sum(m.values for m in mats) % (1 << first.l)
    derived = "sum(" + "+".join(m.secret_id for m in mats) + ")"
    return ShareMatrix(values, first.owner, derived, first.l)


# --- scalars: the 1x1 case ----------------------------------------------------


class Share(ShareMatrix):
    """One party's additive share of an l-bit secret: a 1x1 share matrix."""

    def __init__(self, value: int, owner: int, secret_id: str, l: int):
        super().__init__([[value]], owner, secret_id, l)

    @property
    def value(self) -> int:
        return self.values[0, 0]


def _check_width(width: int, l: int | None):
    if l is not None and width != l:
        raise ShareBindingError(f"shares carry l={width}, expected {l}")


def share(
    s: int,
    parties: int,
    l: int,
    prg: CounterPRG,
    secret_id: str | None = None,
) -> list[Share]:
    """Split ``s`` into ``parties`` shares whose sum mod 2^l is ``s``.

    Shares are owned by parties 0 .. parties-1; the first parties-1 values
    come from ``prg`` and the last is the balancing term.
    """
    mats = share_matrix([[s]], parties, l, prg, secret_id)
    return [Share(m.values[0, 0], m.owner, m.secret_id, l) for m in mats]


def reconstruct(
    shares: list[Share], l: int | None = None, party_count: int | None = None
) -> int:
    """Sum all shares mod 2^l; see :func:`reconstruct_matrix`."""
    if shares:
        _check_width(shares[0].l, l)
    return reconstruct_matrix(shares, party_count)[0, 0]


def add_local(shares: list[Share], l: int | None = None) -> Share:
    """Sum shares of different secrets held by one party; see
    :func:`add_local_matrix`."""
    total = add_local_matrix(shares)
    _check_width(total.l, l)
    return Share(total.values[0, 0], total.owner, total.secret_id, total.l)
