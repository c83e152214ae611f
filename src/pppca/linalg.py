"""Plaintext linear algebra underlying the private PCA pipeline.

Column statistics, centering, Gram matrices, a symmetric eigensolver,
projection, and the centralized PCA reference used to verify losslessness.

Column sums and Gram entries are the correctly rounded exact sums (``gram``
names the one exception, at the edges of float64's range).  Each column is
cut into integer-valued slices (Ozaki, Ogita, Oishi and Rump, "Error-free
transformations of matrix multiplication by using fast routines of matrix
multiplication", Numer. Algorithms 2012), so that every slice product is
exact in float64 under any BLAS blocking or thread count.  A screen of each
column's extremes fixes where its slices start; each row block is cut as
deep as the block before it without a test, then on until nothing is left
(``gram`` of x less a shift, such as the column means, centers one row
block at a time into the cut's scratch, so no centered copy of x is made);
``gram`` forms a block's slice products in one ``matmul`` per slice (a few
at wide d, each within a row block's entries), with slices as wide as the
rows of one such call allow (a block holds at most 2^10 rows), adds each
block's exact products into int64 sums by k + q of the slice pair (k, q)
and reads each column's slice count off its own sums of squares; and the
terms of each entry are rounded once, to nearest even, a row block's
entries at a time, in the spirit of Rump, Ogita and Oishi's accurate
summation (SIAM J. Sci. Comput. 2008).  This makes ``centralized_pca``
bit-for-bit invariant under row permutations of its input, which the rest
of the package relies on when comparing differently partitioned runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, MatrixValidationError

DEFAULT_EIGH_TOL = 1e-12


def check_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return ``x`` as a 2-D float64 array.

    Requires at least one row and one column and all entries finite.
    """
    a = _as_matrix(x, name)
    if not np.isfinite(a).all():
        _reject_non_finite(a, name)
    return a


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    """``x`` as a C-contiguous 2-D float64 array of at least 1x1, its
    entries unchecked; callers screen them on a pass they make anyway."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise MatrixValidationError(f"{name} must be 2-D, got ndim={a.ndim}")
    rows, cols = a.shape
    if rows < 1 or cols < 1:
        raise MatrixValidationError(f"{name} must be at least 1x1, got {rows}x{cols}")
    return np.ascontiguousarray(a)


def _reject_non_finite(a: np.ndarray, name: str = "matrix", first_row: int = 0):
    """Raise for the first non-finite entry of ``a``, whose rows are those of
    a matrix from ``first_row`` on."""
    bad = np.argwhere(~np.isfinite(a))[0]
    raise MatrixValidationError(
        f"{name} has a non-finite entry at ({first_row + bad[0]}, {bad[1]})"
    )


def check_vector(v, length: int, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise MatrixValidationError(f"{name} must be 1-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise MatrixValidationError(f"{name} has a non-finite entry")
    if a.shape[0] != length:
        raise DimensionError(f"{name} has length {a.shape[0]}, expected {length}")
    return a


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending; column j of ``vectors`` pairs with
    ``values[j]``."""

    values: np.ndarray
    vectors: np.ndarray


def column_sums(x) -> np.ndarray:
    """Exact per-column sums, correctly rounded (order independent).

    Each column is cut into slices of w = 53 - ceil(log2 n) bits, as in
    ``gram``, so the per-slice column sums are integers below 2^53 that
    numpy adds exactly in any order; ``_round`` rounds their total once.  A
    column that needs more than ``_MAX_SLICES`` slices, or whose sum might
    overflow, is summed with ``math.fsum`` directly, which is also exact.
    A non-finite entry raises ``MatrixValidationError``, as in
    ``check_matrix``, from the screen of each column's largest |x|, and so
    does a sum beyond float64's range, naming its column.
    """
    a = _as_matrix(x)
    n, d = a.shape
    log_n = (n - 1).bit_length()
    width = 53 - log_n
    hi, ruled_out, blocks = _slicing(a, width)
    sums = np.zeros((_MAX_SLICES, d))
    ones = np.ones(min(n, _block_rows(d)))
    for sliced in blocks:
        sums[: len(sliced)] += ones[: sliced.shape[1]] @ sliced  # a BLAS sum, exact too
    fallback = ruled_out | (hi + log_n > _MAX_EXP)
    cols = np.flatnonzero(~fallback)
    out = np.empty(d)
    out[cols] = _round(sums[:, cols].astype(np.int64), hi[cols] - width, width)
    for t in np.flatnonzero(fallback):
        out[t] = _fsum(a[:, t], f"the sum of column {t}")
    return out


def column_means(x) -> np.ndarray:
    a = _as_matrix(x)  # column_sums screens the entries
    return column_sums(a) / a.shape[0]


def center_columns(x, mean) -> np.ndarray:
    """Subtract ``mean[t]`` from every entry of column t."""
    a = check_matrix(x)
    m = check_vector(mean, a.shape[1], "mean")
    return a - m


def gram(x, shift=None) -> np.ndarray:
    """The scatter matrix X^T X, correctly rounded and exactly symmetric;
    with a ``shift``, that of the centered rows fl(x - shift), the same bits
    as ``gram(x - shift)`` without ever holding that matrix.

    Each column is cut into integer-valued slices of w bits, aligned to the
    column's largest exponent hi: x = sum_k s_k 2^(hi - (k + 1) w) with
    every |s_k| < 2^w.  Row blocks hold at most 2^10 rows, and the width
    follows the rows that one BLAS call sums, not n.  With L = ceil(log2 n),

        w = floor(min(53 - min(L, 10), 57 - L) / 2),

    which is the whole column's width, floor((53 - L) / 2), up to 2^10 rows,
    21 bits from there to 2^15 rows, and 2 bits wider than the whole
    column's beyond: a 25000-row block of centered Gaussian data takes 3
    slices, where the whole column's 19 bits took 4.
    Every product of two slices is below 2^(2w), and:

    - a BLAS call sums at most min(n, 2^10) <= 2^(53 - 2w) rows of them, so
      every partial sum is an integer below 2^53, exact under any blocking
      or thread count, and so is its double; it is added into the int64 sum
      for g = k + q as BLAS returns it, doubled for k < q;
    - a slice pair's sum over all n rows is below 2^(L + 2w) <= 2^57;
    - with at most ``_MAX_SLICES`` = 8 slices, the sum for g holds at most
      four doubled pair sums and one square, below 9 * 2^57 < 2^61, and an
      entry plus its mirror stays below 2^62;
    - half that, the term g of ``_round``, is the sum over the at most eight
      ordered pairs with k + q = g, below 2^60 as ``_round`` needs.

    - **Screen.** One folded ``max`` and one ``min`` over the whole block
      take each column's extremes, and so its largest centered |x| (``_screen``).
    - **Cut.** Each row block is centered into the cut's scratch, scaled
      so that its first slice is a plain ``trunc``, and cut as deep as the
      block before it, then on until nothing is left (``_slicing``): it
      tests its rest once where its depth is its predecessor's, and its
      slices past its own need are zero.
    - **One product per slice.** S_0 .. S_q of a block, as many as
      ``_BLOCK_ENTRIES`` allows, meet S_q in one ``matmul`` (``_pair_products``).
    - **Counts from the products.** Column t's last slice K is half the
      last g at which the sum's diagonal entry [t, t] is nonzero: there only
      (S_K S_K^T)[t, t], a sum of squares, is left.
    - **One rounding.** Entry (s, t) takes half of the sums at [s, t] and at
      [t, s], and is rounded once (``_round``), in pieces whose 2c - 1 terms
      fill at most ``_BLOCK_ENTRIES`` entries.

    The slice count depends only on the set of entries in a column, so the
    result is invariant under row permutations.

    A pair of columns where one needs more than ``_MAX_SLICES`` slices, or
    whose terms could fall below float64's subnormal grid or overflow, is
    accumulated as ``math.fsum`` of the rounded products instead: still
    order independent, and exact whenever those products are floats.

    A non-finite entry of x - shift (a NaN, or an entry that is or centers
    to infinity) raises ``MatrixValidationError`` from the screen, naming
    it as ``check_matrix`` would, and so does a product or sum beyond
    float64's range, naming its entry.
    """
    a = _as_matrix(x)
    n, d = a.shape
    log_n = (n - 1).bit_length()
    width = min(53 - min(log_n, _LOG_BLOCK_ROWS), 57 - log_n) // 2
    if shift is None:
        hi, ruled_out, blocks = _slicing(a, width)
    else:
        shift = check_vector(shift, d, "shift")
        hi, ruled_out, blocks = _slicing(a, width, shift)
    sums = _pair_products(blocks, d)
    # Column t's last slice K sits at g = 2K, the last g with sums[g, t, t] != 0.
    count = np.arange(len(sums)) // 2 + 1
    used = sums.diagonal(axis1=1, axis2=2) != 0
    lowest = hi - width * (count[:, None] * used).max(axis=0, initial=0)  # last slice's unit
    fallback = (
        ruled_out[:, None]
        | ruled_out
        | (lowest[:, None] + lowest < _MIN_EXP)
        | (hi[:, None] + hi + log_n > _MAX_EXP)
    )
    rows, cols = np.nonzero(np.triu(~fallback))
    g = np.empty((d, d))
    piece = max(1, _BLOCK_ENTRIES // len(sums))
    for start in range(0, len(rows), piece):
        s, t = rows[start : start + piece], cols[start : start + piece]
        terms = sums[:, s, t]
        terms += sums[:, t, s]  # twice the sum over every S_k S_q^T with k + q = g
        terms >>= 1
        g[s, t] = g[t, s] = _round(terms, hi[s] + hi[t] - 2 * width, width)
    column = (lambda t: a[:, t]) if shift is None else (lambda t: a[:, t] - shift[t])
    with np.errstate(over="ignore"):  # an infinite product fails in _fsum
        for s, t in zip(*np.nonzero(np.triu(fallback))):
            g[s, t] = g[t, s] = _fsum(column(s) * column(t), f"Gram entry ({s}, {t})")
    return g


def _fsum(terms: np.ndarray, what: str) -> float:
    """``math.fsum`` of ``terms``; ``MatrixValidationError`` naming ``what``
    if a term or the sum is not a finite float64."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # fsum's overflow, or inf - inf
        total = math.inf
    if not math.isfinite(total):
        raise MatrixValidationError(f"{what} leaves float64's range")
    return total


# Exponents of the smallest subnormal float64 and of the largest power of two
# below the largest finite one.
_MIN_EXP = -1074
_MAX_EXP = 1023
# A column cut into more slices than this takes the fsum path instead.
_MAX_SLICES = 8
# Row blocks hold at most 2^_LOG_BLOCK_ROWS rows, which bounds the rows one
# BLAS call of ``gram`` sums, and about this many entries, which bounds every
# temporary of the cut per slice, each slice product of ``gram`` (but a lone
# d x d one) and each piece of its rounding, whatever the input's shape.
_BLOCK_ENTRIES = 1 << 14
_LOG_BLOCK_ROWS = 10


def _block_rows(d: int) -> int:
    """The rows of each row block of a matrix d wide."""
    return max(1, min(1 << _LOG_BLOCK_ROWS, _BLOCK_ENTRIES // d))


def _row_blocks(a: np.ndarray):
    step = _block_rows(a.shape[1])
    return (a[start : start + step] for start in range(0, a.shape[0], step))


def _screen(a: np.ndarray, shift) -> np.ndarray:
    """Per column, the exponent hi: every entry of fl(a - shift) is below
    2^hi in magnitude (hi = 0 for an all-zero column).  Rounding is
    monotone, so a column's largest centered |x| is that of its largest or
    its smallest entry, centered.  A NaN entry, or one that is or centers
    to infinity, makes it non-finite, and raises ``MatrixValidationError``
    naming the first such entry of a - shift.  One ``max`` and one ``min``
    over the whole C-contiguous ``a``, its rows side by side ``fold`` at a
    time to keep their inner loop long, make no temporary of a's size."""
    n, d = a.shape
    fold = math.gcd(n, -(-256 // d))
    rows = a.reshape(-1, fold * d)
    top = rows.max(axis=0).reshape(fold, d).max(axis=0)
    bottom = rows.min(axis=0).reshape(fold, d).min(axis=0)
    with np.errstate(over="ignore"):
        top = np.maximum(np.abs(top - shift), np.abs(bottom - shift))
        if not np.isfinite(top).all():
            _reject_non_finite(a - shift)
    return np.frexp(top)[1]


def _slicing(a: np.ndarray, width: int, shift=None):
    """The columns of ``a``, less ``shift`` if given, cut into
    ``width``-bit slices, as ``(hi, ruled_out, blocks)``.

    Every entry of column t of x = fl(a - shift) is below 2^hi[t] in
    magnitude.  ``blocks`` yields the row blocks of x, each centered into
    the cut's scratch one at a time and cut into integer-valued slices
    until the whole block is zero: an array s of shape (c, rows, d), in the
    block's own layout, with
    ``block[:, t] == sum_k s[k, :, t] * 2**(hi[t] - (k + 1) * width)``
    exactly and every |s| below 2^width.  Each array is overwritten by the
    next, in one buffer with room for ``_MAX_SLICES`` slices of a block.
    No pass transposes a block: a transposed read costs about twice a
    contiguous one.

    A block is scaled by 2^(width - hi) in one ``ldexp``, so that its first
    slice is a plain ``trunc``; each later slice scales the rest by
    2^width, truncates it and subtracts.  A block first takes as many
    slices as the block before it, without testing the rest, and then one
    test per further slice until the rest is zero, so where every block
    needs the same count each block tests its rest once.  Slices past a
    block's own need are all zero; they add nothing to a sum, and ``gram``
    reads each column's count off its own sums of squares, so the results
    keep their bits.  The largest c over the blocks is the one that cutting
    each block only as deep as it needs would give.

    Once ``blocks`` is exhausted, ``ruled_out[t]`` is set if some block
    still held part of column t after ``_MAX_SLICES`` slices, or if the
    scaling rounded one of its entries below float64's normal range, and so
    out of the cut; such a column's slices mean nothing.  An entry that
    scaling by 2^-hi would round there lies below 2^(hi - 1022), while
    eight slices of at most 53 bits reach 2^(hi - 424): whether or not
    scaling by 2^(width - hi) keeps it, its column is ruled out, so the
    ruled-out columns are those of scaling by 2^-hi.
    """
    hi = _screen(a, 0.0 if shift is None else shift)
    ruled_out = np.zeros(a.shape[1], dtype=bool)

    def blocks():
        d = a.shape[1]
        step = min(len(a), _block_rows(d))
        rests = np.empty(step * d)
        # BLAS reads slices on a 64-byte boundary about a quarter faster.
        outs = np.empty(_MAX_SLICES * rests.size + 7)
        outs = outs[-outs.ctypes.data // 8 % 8 :][: _MAX_SLICES * rests.size]
        # Rows side by side keep the inner loops of the passes that broadcast
        # the shift and the exponents long.
        fold = -(-1024 // d)
        scale = np.tile(width - hi, fold)
        shifts = None if shift is None else np.tile(shift, fold)
        count = 0  # the slices of the block before
        for block in _row_blocks(a):
            f = math.gcd(len(block), fold) * d
            rest = rests[: block.size].reshape(block.shape)
            folded = rest.reshape(-1, f)
            entries = block.reshape(-1, f)
            if shift is not None:
                entries = np.subtract(entries, shifts[:f], out=folded)
            try:
                with np.errstate(under="raise"):
                    np.ldexp(entries, scale[:f], out=folded)
            except FloatingPointError:  # numpy raises after writing all of rest
                # Rule out the columns with an entry that did not survive it.
                kept = np.ldexp(folded, -scale[:f]).reshape(block.shape)
                entries = block if shift is None else block - shift
                ruled_out[(kept != entries).any(axis=0)] = True
            rest[:, ruled_out] = 0.0
            k = 0
            while k < count or rest.any():
                if k == _MAX_SLICES:
                    ruled_out[rest.any(axis=0)] = True
                    break
                if k:
                    rest *= 2.0**width
                out = outs[k * block.size : (k + 1) * block.size].reshape(rest.shape)
                np.trunc(rest, out=out)
                rest -= out
                k += 1
            count = k
            yield outs[: count * block.size].reshape((count,) + block.shape)

    return hi, ruled_out, blocks()


def _pair_products(blocks, d: int) -> np.ndarray:
    """The slice products of the sliced row ``blocks`` of ``_slicing``,
    summed in int64 by g = k + q: 2 S_k S_q^T for each k < q and S_k S_k^T,
    at index g of the result, so that a block with more slices appends sums.
    S_k holds slice k of every column, as rows; ``_slicing`` yields its
    transpose, which BLAS reads as it is.  Each block's products are exact
    integers below 2^53 (see ``gram``), so their doubles are exact too,
    added in as BLAS writes them into one buffer; each ``matmul`` takes as
    many slices as fit ``_BLOCK_ENTRIES``, or one."""
    sums = np.zeros((1, d, d), dtype=np.int64)
    stack = max(1, _BLOCK_ENTRIES // (d * d))  # slices per product
    product = np.empty((min(stack, _MAX_SLICES), d, d))
    for sliced in blocks:
        c = len(sliced)
        if 2 * c - 1 > len(sums):
            sums = np.pad(sums, ((0, 2 * c - 1 - len(sums)), (0, 0), (0, 0)))
        s = sliced.transpose(0, 2, 1)  # S_k, which BLAS reads transposed
        for q in range(c):
            for k in range(0, q + 1, stack):
                # S_k .. S_(j-1) against S_q in one call, cast to int64 in np.add's buffer.
                j = min(k + stack, q + 1)
                out = product[: j - k]
                if j == k + 1:  # numpy runs a lone product faster as a 2-D call
                    np.matmul(s[k], sliced[q], out=out[0])
                else:
                    np.matmul(s[k:j], sliced[q], out=out)
                out[: min(j, q) - k] *= 2.0  # S_k S_q^T stands for its mirror too
                into = sums[k + q : j + q]
                np.add(into, out, out=into, casting="unsafe", dtype=np.int64)
    return sums


def _round(terms: np.ndarray, top: np.ndarray, width: int) -> np.ndarray:
    """The floats nearest to sum_g terms[g] * 2^(top - g * width), ties to
    even, one per column of the int64 array ``terms``, which is overwritten.

    Each exact sum must be a multiple of 2^-1074 below 2^1023 in magnitude,
    and every |term| below 2^60.  Carrying makes the terms the digits of the
    sum's magnitude in base 2^width.  The leading 60 to 62 bits of those
    digits, with a sticky bit for the rest (rounding to odd), form an int64
    m, and a float addition of its two exact halves rounds m once, to
    nearest even, with the same result as rounding the exact sum.  A sum
    below 2^-1022 has at most 52 significant bits, so m holds it exactly.
    """
    terms = _carry(terms, width)
    sign = np.where(terms[0] < 0, -1, 1)
    terms *= sign
    terms = _carry(terms, width)
    # int32 exponents keep np.ldexp on its vector loop, not a libm call per entry.
    units = top - width * np.arange(len(terms), dtype=np.int32)[:, None]
    # The digits' float sum is within a few ulps of the exact sum, which so
    # lies in [2^(e - 2), 2^(e + 1)).
    e = np.frexp(np.ldexp(terms.astype(float), units).sum(axis=0))[1]
    shift = e - 61  # the unit of m's last bit
    units -= shift
    down = np.clip(-units, 0, 63)
    kept = terms >> down
    sticky = ((kept << down) != terms).any(axis=0)
    kept <<= np.clip(units, 0, 63, out=down)
    m = kept.sum(axis=0) | sticky
    rounded = np.ldexp((m >> 31).astype(float), 31) + (m & ((1 << 31) - 1)).astype(float)
    return sign * np.ldexp(rounded, shift)


def _carry(terms: np.ndarray, width: int) -> np.ndarray:
    """Carry each term but the first into [0, 2^width), in place, keeping
    sum_g terms[g] * 2^(-g * width)."""
    for g in range(len(terms) - 1, 0, -1):
        terms[g - 1] += terms[g] >> width
        terms[g] &= (1 << width) - 1
    return terms


def upper_triangle(a) -> np.ndarray:
    """The d(d+1)/2 entries on and above the diagonal of a square matrix,
    row by row, in its own dtype: integer input stays integer."""
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m[np.triu_indices(m.shape[0])]


def symmetric_from_upper(values, d: int) -> np.ndarray:
    """Inverse of :func:`upper_triangle`: mirror the entries into a d x d
    symmetric matrix."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size != d * (d + 1) // 2:
        raise DimensionError(
            f"{v.size} entries do not form the upper triangle of a {d}x{d} matrix"
        )
    rows, cols = np.triu_indices(d)
    out = np.empty((d, d))
    out[rows, cols] = v
    out[cols, rows] = v
    return out


def jacobi_eigh(c, tol: float = DEFAULT_EIGH_TOL) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``, checked.

    For the orthogonal V from ``eigh``, the eigenvalues are the diagonal of
    V^T C V, and the Frobenius norm of the entries off that diagonal must
    be at most ``tol * ||C||_F``, which bounds each residual ||Cv - lambda v||
    by as much.  ``eigh`` leaves about 1e-16 ||C||_F there.
    Deterministic for a given machine: LAPACK and BLAS kernels may differ
    between CPU models.

    Raises ``MatrixValidationError`` for non-symmetric input (relative
    asymmetry above 1e-9) and ``ConvergenceError`` if the off-diagonal norm
    is above the tolerance.
    """
    a = check_matrix(c, name="C")
    d = a.shape[0]
    if a.shape[1] != d:
        raise DimensionError(f"C must be square, got {a.shape[0]}x{a.shape[1]}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    # Norms of C / 2^(e-1), 2^e just above max |C|, cannot overflow; a power of two keeps bits.
    scale = np.ldexp(1.0, 1 - np.frexp(np.max(np.abs(a)))[1])
    scaled = a * scale
    norm = float(np.linalg.norm(scaled))
    asym = float(np.max(np.abs(scaled - scaled.T)))
    if asym > 1e-9 * max(norm, scale):
        raise MatrixValidationError(
            f"C is not symmetric: max |C - C^T| = {asym / scale:g} exceeds 1e-9 relative"
        )
    a = a / 2.0 + a.T / 2.0
    v = np.linalg.eigh(a)[1]
    a = v.T @ a @ v
    off = float(np.sqrt(np.sum((a * scale)[~np.eye(d, dtype=bool)] ** 2)))
    threshold = tol * norm
    if not off <= threshold:  # True for NaN too
        raise ConvergenceError(
            f"eigh left off-diagonal norm {off / scale:g} above threshold {threshold / scale:g}",
            off_diagonal_norm=off / scale,
        )
    values = a.diagonal().copy()
    order = np.argsort(-values, kind="stable")
    return EigenPairs(values=values[order], vectors=v[:, order])


def top_k_transfer(pairs: EigenPairs, k: int) -> np.ndarray:
    """The d x k matrix of eigenvectors for the k largest eigenvalues.

    Each column is negated where its largest-magnitude entry (ties to the
    lowest index) is below zero, in one step for all k, so every role and
    the plaintext reference produce comparable matrices.
    """
    d = pairs.values.size
    if not 1 <= k < d:
        raise DimensionError(f"k must satisfy 1 <= k < d={d}, got {k}")
    top = pairs.vectors[:, :k]
    pivot = top[np.abs(top).argmax(axis=0), np.arange(k)]
    return np.where(pivot < 0, -top, top)


def project(x, transfer, shift=None, out=None) -> np.ndarray:
    """The product X T, written into ``out`` if given and returned; with a
    ``shift``, that of the centered rows fl(x - shift), the same bits as
    ``project(x - shift, transfer)`` without ever holding that matrix.

    Each row block (as ``gram``'s) is centered into one block's scratch,
    multiplied in one BLAS call and converted into its rows of ``out``,
    which may have any float dtype or byte order, such as a payload's
    big-endian entries.  The products' last bits may follow the BLAS kernel
    and its thread count, as the eigensolver's do.

    A non-finite entry of x - shift (a NaN, or an entry that is or centers
    to infinity) raises ``MatrixValidationError``, naming it as
    ``check_matrix`` would.
    """
    a = _as_matrix(x)
    t = check_matrix(transfer, name="transfer")
    (n, d), k = a.shape, t.shape[1]
    if d != t.shape[0]:
        raise DimensionError(
            f"cannot project {n}x{d} data with {t.shape[0]}x{k} transfer matrix"
        )
    if shift is not None:
        shift = check_vector(shift, d, "shift")
    if out is None:
        out = np.empty((n, k))
    elif out.shape != (n, k):
        raise DimensionError(f"the projection is {n}x{k}, but out has shape {out.shape}")
    scratch = np.empty((min(n, _block_rows(d)), d))
    product = np.empty((len(scratch), k))
    start = 0
    for block in _row_blocks(a):
        rows = len(block)
        if shift is not None:
            with np.errstate(over="ignore"):  # the check below names the entry
                block = np.subtract(block, shift, out=scratch[:rows])
        if not np.isfinite(block).all():
            _reject_non_finite(block, first_row=start)
        out[start : start + rows] = np.matmul(block, t, out=product[:rows])
        start += rows
    return out


def pca_fit(x, k: int):
    """``(mean, transfer)`` of the rows of ``x``: their column means and the
    d x k matrix of ``top_k_transfer``, which checks k, for X^T X / (n - 1)
    of the rows centered at those means (``gram`` takes them as a shift, so
    no centered copy is made)."""
    a = check_matrix(x)
    n = a.shape[0]
    if n < 2:
        raise DimensionError(f"need at least 2 rows for covariance, got {n}")
    mean = column_means(a)
    return mean, top_k_transfer(jacobi_eigh(gram(a, mean) / (n - 1)), k)


def centralized_pca(x, k: int):
    """Reference PCA on pooled plaintext data: ``(transfer, reduced)``, the
    transfer of ``pca_fit`` and the rows projected on it at the mean of
    ``pca_fit`` by ``project``.  Deterministic for fixed input."""
    mean, transfer = pca_fit(x, k)
    return transfer, project(x, transfer, mean)


def principal_angles(a, b) -> np.ndarray:
    """Principal angles (radians, ascending) between the column spaces of two
    orthonormal-column matrices.  Zero everywhere means identical subspaces.

    Cosines come from the singular values of A^T B and sines from the part of
    B orthogonal to span(A), so tiny angles do not drown in arccos rounding.
    """
    ma = check_matrix(a, name="a")
    mb = check_matrix(b, name="b")
    if ma.shape != mb.shape:
        raise DimensionError(f"subspace shapes differ: {ma.shape} vs {mb.shape}")
    overlap = ma.T @ mb
    cosines = np.linalg.svd(overlap, compute_uv=False)  # descending
    sines = np.linalg.svd(mb - ma @ overlap, compute_uv=False)  # descending
    # The largest sine pairs with the smallest cosine.
    return np.arctan2(sines[::-1], cosines)


def largest_principal_angle(a, b) -> float:
    return float(np.max(principal_angles(a, b)))


def eigenvalue_gap(values: np.ndarray, k: int) -> float:
    """Relative gap between the k-th and (k+1)-th eigenvalues (descending)."""
    v = np.asarray(values, dtype=float)
    if not 1 <= k < v.shape[0]:
        raise DimensionError(f"k must satisfy 1 <= k < {v.shape[0]}")
    scale = max(abs(float(v[0])), 1e-300)
    return float(v[k - 1] - v[k]) / scale
