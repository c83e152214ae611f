"""Matrices over Z_{2^l}, l <= 128, as arrays of two 64-bit limbs.

A ring matrix is a numpy ``uint64`` array of shape (rows, cols, 2) whose
entry [r, c] holds the limbs [hi, lo] of the element hi * 2^64 + lo.  That
is the big-endian limb order the share codec sends, so a share matrix goes
to and from the wire as one byte-order conversion.

Sums and differences are numpy's wrapping uint64 arithmetic on each limb,
with the carry (or borrow) of the low limbs added into the high ones; the
result is reduced mod 2^l by masking both limbs.  No Python int is made on
this path: :func:`from_ints` and :func:`to_ints` convert at the edges, for
the scalar API and for Paillier packing.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError

_LOW = (1 << 64) - 1


@functools.cache
def _masks(l: int) -> tuple[np.ndarray, np.ndarray]:
    """[hi, lo] masks of the low l bits of an element, and of the rest."""
    keep = np.array([(1 << max(l - 64, 0)) - 1, (1 << min(l, 64)) - 1], np.uint64)
    spill = ~keep
    keep.flags.writeable = spill.flags.writeable = False
    return keep, spill


def checked(a, l: int, what: str) -> np.ndarray:
    """``a`` as a ring matrix (not copied), with every element below 2^l.

    Raises ``TypeError`` for another dtype, ``DimensionError`` for another
    shape, and ``ValueError`` naming the first (r, c) at or past 2^l.
    """
    a = np.asarray(a)
    if a.dtype.kind != "u" or a.dtype.itemsize != 8:
        raise TypeError(
            f"a ring matrix is a uint64 array of [hi, lo] limbs, got dtype {a.dtype}; "
            "convert Python ints with ring.from_ints"
        )
    if a.ndim != 3 or a.shape[-1] != 2 or 0 in a.shape:
        raise DimensionError(
            f"a ring matrix has shape (rows, cols, 2) with rows, cols >= 1, got {a.shape}"
        )
    spill = a & _masks(l)[1]
    if np.count_nonzero(spill):
        r, c = np.argwhere(spill.any(axis=-1))[0]
        raise ValueError(f"{what} at ({r}, {c}) outside [0, 2^{l})")
    return a


def from_ints(z) -> np.ndarray:
    """Limbs of an array-like of Python ints in [0, 2^128); the limb axis is
    appended to its shape."""
    z = np.asarray(z, dtype=object)
    out = np.empty(z.shape + (2,), np.uint64)
    try:  # a negative int, or one of 2^128 or more, has no high limb
        out[..., 0] = z >> 64
    except OverflowError:
        at = tuple(int(i) for i in np.argwhere((z >> 128) != 0)[0])
        raise ValueError(f"entry at {at} outside [0, 2^128)") from None
    out[..., 1] = z & _LOW
    return out


def to_ints(a) -> np.ndarray:
    """The elements of a limb array as an object array of Python ints."""
    a = np.asarray(a)
    return (a[..., 0].astype(object) << 64) | a[..., 1].astype(object)


def _fold(a, terms, l: int, subtract: bool) -> np.ndarray:
    out = np.array(a, np.uint64)  # a fresh, native-order copy
    hi, lo = out[..., 0], out[..., 1]
    for t in terms:
        if subtract:
            borrow = lo < t[..., 1]
            out -= t
            hi -= borrow
        else:
            out += t
            hi += lo < t[..., 1]  # the low limbs' sum wrapped
    out &= _masks(l)[0]
    return out


def add(a, *terms, l: int) -> np.ndarray:
    """a + sum(terms) mod 2^l, entry-wise."""
    return _fold(a, terms, l, subtract=False)


def sub(a, *terms, l: int) -> np.ndarray:
    """a - sum(terms) mod 2^l, entry-wise."""
    return _fold(a, terms, l, subtract=True)
