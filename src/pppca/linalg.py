"""Plaintext linear algebra underlying the private PCA pipeline.

Column statistics, centering, Gram matrices, a symmetric eigensolver,
projection, and the centralized PCA reference used to verify losslessness.

Column sums and Gram entries are the correctly rounded exact sums (``gram``
names the one exception, at the edges of float64's range).  Each
column is cut into integer-valued slices (Ozaki, Ogita, Oishi and Rump,
"Error-free transformations of matrix multiplication by using fast routines
of matrix multiplication", Numer. Algorithms 2012), so that every slice
product is exact in float64 under any BLAS blocking or thread count, and the
exact terms of each entry are combined with one ``math.fsum``.  This makes
``centralized_pca`` bit-for-bit invariant under row permutations of its
input, which the rest of the package relies on when comparing differently
partitioned runs.
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
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise MatrixValidationError(f"{name} must be 2-D, got ndim={a.ndim}")
    rows, cols = a.shape
    if rows < 1 or cols < 1:
        raise MatrixValidationError(f"{name} must be at least 1x1, got {rows}x{cols}")
    if not np.isfinite(a).all():
        bad = np.argwhere(~np.isfinite(a))[0]
        raise MatrixValidationError(
            f"{name} has a non-finite entry at ({bad[0]}, {bad[1]})"
        )
    return np.ascontiguousarray(a)


def check_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise MatrixValidationError(f"{name} must be 1-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise MatrixValidationError(f"{name} has a non-finite entry")
    if length is not None and a.shape[0] != length:
        raise DimensionError(f"{name} has length {a.shape[0]}, expected {length}")
    return a


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending; column j of ``vectors`` pairs with
    ``values[j]``."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def column_sums(x) -> np.ndarray:
    """Exact per-column sums, correctly rounded (order independent).

    Each column is cut into slices of 53 - ceil(log2 n) bits, whose integer
    sums are exact; the slice sums of a column are combined with one
    ``math.fsum``.  A column that needs more than ``_MAX_SLICES`` slices, or
    whose sum might overflow, is summed with ``math.fsum`` directly, which is
    also exact.
    """
    a = check_matrix(x)
    n, d = a.shape
    log_n = (n - 1).bit_length()
    width = 53 - log_n
    hi, _, sliceable, count = _slice_plan(a, width)
    fallback = ~sliceable | (hi + log_n > _MAX_EXP)
    cols = np.flatnonzero(~fallback)
    sums = np.zeros((count, cols.size))
    for block in _row_blocks(a):
        sums += _slices(block[:, cols], hi[cols], width, count).sum(axis=2)
    units = hi[cols, None] - width * np.arange(1, count + 1, dtype=np.int32)
    out = np.empty(d)
    out[cols] = [math.fsum(t) for t in np.ldexp(sums.T, units).tolist()]
    for t in np.flatnonzero(fallback):
        out[t] = math.fsum(a[:, t])
    return out


def column_means(x) -> np.ndarray:
    a = check_matrix(x)
    return column_sums(a) / a.shape[0]


def center_columns(x, mean) -> np.ndarray:
    """Subtract ``mean[t]`` from every entry of column t."""
    a = check_matrix(x)
    m = check_vector(mean, length=a.shape[1], name="mean")
    return a - m


def gram(x) -> np.ndarray:
    """The scatter matrix X^T X, correctly rounded and exactly symmetric.

    Each column is cut into integer-valued slices of
    b = floor((53 - ceil(log2 n)) / 2) bits, aligned to the column's largest
    exponent, with as many slices as it takes to reach the lowest set bit of
    every entry.  Every partial sum of a slice product S_k^T S_q is then an
    integer below 2^53, so BLAS computes it exactly, and the terms of each
    entry are combined with one ``math.fsum``.  The slice count depends only
    on the set of entries in a column, so the result is invariant under row
    permutations.

    A pair of columns where one needs more than ``_MAX_SLICES`` slices, or
    whose terms could fall below float64's subnormal grid or overflow, is
    accumulated as ``math.fsum`` of the rounded products instead: still
    order independent, and exact whenever those products are floats.
    """
    a = check_matrix(x)
    n, d = a.shape
    log_n = (n - 1).bit_length()
    width = (53 - log_n) // 2
    hi, lowest, sliceable, count = _slice_plan(a, width)
    cols = np.flatnonzero(sliceable)
    pairs = [(k, q) for k in range(count) for q in range(k, count)]
    acc = np.zeros((len(pairs), cols.size, cols.size))
    for block in _row_blocks(a):
        sliced = _slices(block[:, cols], hi[cols], width, count)
        for p, (k, q) in enumerate(pairs):
            acc[p] += sliced[k] @ sliced[q].T
    # Entry (i, j) sums (S_k^T S_q)[i, j] * 2^(unit_ik + unit_jq) over all
    # slice pairs; acc holds k <= q, and (S_q^T S_k)[i, j] = (S_k^T S_q)[j, i].
    where = np.empty((count, count), dtype=np.intp)
    for p, (k, q) in enumerate(pairs):
        where[k, q], where[q, k] = p, len(pairs) + p
    units = hi[cols, None] - width * np.arange(1, count + 1, dtype=np.int32)
    g = np.empty((d, d))
    for i, col in enumerate(cols):
        # Row by row, so that only one row's terms are ever Python floats.
        products = np.concatenate([acc[:, i, i:], acc[:, i:, i]])[where]
        with np.errstate(over="ignore", under="ignore"):
            terms = np.ldexp(products, units[i, :, None, None] + units[i:].T)
        g[col, cols[i:]] = g[cols[i:], col] = [
            math.fsum(t)
            for t in terms.reshape(count * count, cols.size - i).T.tolist()
        ]
    fallback = (
        ~(sliceable[:, None] & sliceable)
        | (lowest[:, None] + lowest < _MIN_EXP)
        | (hi[:, None] + hi + log_n > _MAX_EXP)
    )
    for s, t in zip(*np.nonzero(np.triu(fallback))):
        g[s, t] = g[t, s] = math.fsum(a[:, s] * a[:, t])
    return g


# Exponents of the smallest subnormal float64 and of the largest power of two
# below the largest finite one.
_MIN_EXP = -1074
_MAX_EXP = 1023
# A column cut into more slices than this takes the fsum path instead.
_MAX_SLICES = 8
# Row blocks bound every temporary of the sliced products to about this many
# entries per slice, whatever the input's shape.
_BLOCK_ENTRIES = 1 << 14


def _row_blocks(a: np.ndarray):
    step = max(1, _BLOCK_ENTRIES // a.shape[1])
    return (a[start : start + step] for start in range(0, a.shape[0], step))


def _slice_plan(a: np.ndarray, width: int):
    """How to cut the columns of ``a`` into ``width``-bit slices.

    Returns ``(hi, lowest, sliceable, count)``: every entry of column t is
    below 2^hi[t] in magnitude, its last slice has unit 2^lowest[t],
    ``sliceable`` marks the columns that need at most ``_MAX_SLICES``
    slices, and ``count`` is the most slices any of them needs.  An all-zero
    column needs none.
    """
    d = a.shape[1]
    hi = np.full(d, _MIN_EXP, dtype=np.int32)  # below every frexp exponent
    lo = np.full(d, _MAX_EXP + 1, dtype=np.int32)  # above every set bit
    for block in _row_blocks(a):
        mantissas, exponents = np.frexp(block)
        significands = np.abs(mantissas * 2.0**53).astype(np.int64)
        nonzero = significands != 0
        lowest_bit = np.frexp((significands & -significands).astype(float))[1] - 1
        hi = np.maximum(hi, np.where(nonzero, exponents, hi).max(axis=0))
        lo = np.minimum(lo, np.where(nonzero, exponents - 53 + lowest_bit, lo).min(axis=0))
    zero = lo > hi
    hi[zero] = lo[zero] = 0
    counts = -((lo - hi) // width)
    sliceable = counts <= _MAX_SLICES
    return hi, hi - counts * width, sliceable, int(counts[sliceable].max(initial=0))


def _slices(block: np.ndarray, hi: np.ndarray, width: int, count: int) -> np.ndarray:
    """The columns of ``block`` cut into ``count`` integer-valued slices each,
    as rows: ``block[:, t] == sum_k out[k, t] * 2**(hi[t] - (k + 1) * width)``
    exactly, with every |out| below 2^width."""
    # Exact: a sliceable column spans at most _MAX_SLICES * width bits.
    rest = np.ldexp(block.T, -hi[:, None], order="C")
    out = np.empty((count,) + rest.shape)
    for k in range(count):
        rest *= 2.0**width
        np.trunc(rest, out=out[k])
        rest -= out[k]
    return out


def upper_triangle(a) -> np.ndarray:
    """The d(d+1)/2 entries on and above the diagonal of a square matrix,
    row by row."""
    m = np.asarray(a, dtype=float)
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


def _off_diagonal_norm(a: np.ndarray) -> float:
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.sqrt(np.sum(a[mask] ** 2)))


def jacobi_eigh(c, tol: float = DEFAULT_EIGH_TOL) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``, checked.

    For the orthogonal V from ``eigh``, the eigenvalues are the diagonal of
    V^T C V, and the Frobenius norm of its off-diagonal part must be at most
    ``tol * ||C||_F``, which bounds the per-pair residual ||Cv - lambda v|| by
    the same amount.  ``eigh`` leaves about 1e-16 ||C||_F there.
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
    norm = float(np.linalg.norm(a))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > 1e-9 * max(norm, 1.0):
        raise MatrixValidationError(
            f"C is not symmetric: max |C - C^T| = {asym:g} exceeds 1e-9 relative"
        )
    a = (a + a.T) / 2.0
    if d == 1:
        return EigenPairs(values=a.diagonal().copy(), vectors=np.eye(1))
    v = np.linalg.eigh(a)[1]
    a = v.T @ a @ v
    off = _off_diagonal_norm(a)
    threshold = tol * norm
    if off > threshold:
        raise ConvergenceError(
            f"eigh left off-diagonal norm {off:g} above threshold {threshold:g}",
            off_diagonal_norm=off,
        )
    values = a.diagonal().copy()
    order = np.argsort(-values, kind="stable")
    return EigenPairs(values=values[order], vectors=v[:, order])


def canonicalize_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Ties in magnitude resolve to the lowest index (argmax convention).
    """
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            out[:, j] = -col
    return out


def top_k_transfer(pairs: EigenPairs, k: int) -> np.ndarray:
    """The d x k matrix of eigenvectors for the k largest eigenvalues.

    Column signs are canonical (largest-magnitude entry positive) so every
    role and the plaintext reference produce comparable matrices.
    """
    d = pairs.dim
    if not 1 <= k < d:
        raise DimensionError(f"k must satisfy 1 <= k < d={d}, got {k}")
    return canonicalize_sign(pairs.vectors[:, :k])


def project(x, transfer) -> np.ndarray:
    """Matrix product X @ T."""
    a = check_matrix(x)
    t = check_matrix(transfer, name="transfer")
    if a.shape[1] != t.shape[0]:
        raise DimensionError(
            f"cannot project {a.shape[0]}x{a.shape[1]} data with "
            f"{t.shape[0]}x{t.shape[1]} transfer matrix"
        )
    return a @ t


def centralized_pca(x, k: int):
    """Reference PCA on pooled plaintext data.

    Centers columns by their means, eigendecomposes X^T X / (n - 1), and
    returns ``(transfer, reduced)`` where ``reduced`` is the centered data
    projected on the top-k eigenvectors.  Deterministic for fixed input.
    """
    a = check_matrix(x)
    n, d = a.shape
    if n < 2:
        raise DimensionError(f"need at least 2 rows for covariance, got {n}")
    if not 1 <= k < d:
        raise DimensionError(f"k must satisfy 1 <= k < d={d}, got {k}")
    centered = center_columns(a, column_means(a))
    cov = gram(centered) / (n - 1)
    transfer = top_k_transfer(jacobi_eigh(cov), k)
    return transfer, project(centered, transfer)


def covariance(x) -> np.ndarray:
    """Sample covariance of pre-centered data: X^T X / (n - 1)."""
    a = check_matrix(x)
    if a.shape[0] < 2:
        raise DimensionError("need at least 2 rows for covariance")
    return gram(a) / (a.shape[0] - 1)


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
