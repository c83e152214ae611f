import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppca import linalg
from pppca.errors import ConvergenceError, DimensionError, MatrixValidationError
from pppca.messages import encode_real_matrix, real_matrix_payload


# --- independent oracles ----------------------------------------------------


def naive_column_sums(x):
    rows, cols = x.shape
    out = [0.0] * cols
    for t in range(cols):
        acc = 0.0
        for j in range(rows):
            acc += x[j][t]
        out[t] = acc
    return np.array(out)


def naive_gram(x):
    rows, cols = x.shape
    g = np.zeros((cols, cols))
    for s in range(cols):
        for t in range(cols):
            for j in range(rows):
                g[s, t] += x[j, s] * x[j, t]
    return g


def fraction_gram(x):
    """X^T X summed exactly in rationals, then rounded once."""
    exact = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=float).tolist()]
    d = len(exact[0])
    return np.array(
        [[float(sum(row[s] * row[t] for row in exact)) for t in range(d)] for s in range(d)]
    )


def fraction_column_sums(x):
    exact = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=float).tolist()]
    return np.array([float(sum(col)) for col in zip(*exact)])


def naive_matmul(a, b):
    n, d = a.shape
    d2, k = b.shape
    assert d == d2
    out = np.zeros((n, k))
    for i in range(n):
        for j in range(k):
            for t in range(d):
                out[i, j] += a[i, t] * b[t, j]
    return out


def cofactor_det(a):
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for c in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), c, axis=1)
        total += ((-1) ** c) * a[0, c] * cofactor_det(minor)
    return total


def random_symmetric(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    return (m + m.T) / 2


# --- column sums / centering ------------------------------------------------


def test_column_sums_hand():
    assert np.array_equal(linalg.column_sums([[1, 2], [3, 4]]), [4, 6])


def test_column_sums_zero_matrix():
    assert np.array_equal(linalg.column_sums(np.zeros((3, 2))), [0, 0])


def test_column_sums_matches_naive_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 5)) * 10
    assert np.allclose(linalg.column_sums(x), naive_column_sums(x), atol=1e-12)


def test_center_columns_hand():
    got = linalg.center_columns([[1, 2], [3, 4]], [2, 3])
    assert np.array_equal(got, [[-1, -1], [1, 1]])


def test_center_by_means_zeroes_columns():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(17, 4)) * 5
    centered = linalg.center_columns(x, linalg.column_sums(x) / x.shape[0])
    assert np.max(np.abs(linalg.column_sums(centered))) < 1e-12


def test_center_zero_mean_is_identity():
    x = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(linalg.center_columns(x, [0, 0]), x)


def test_center_length_mismatch():
    with pytest.raises(DimensionError):
        linalg.center_columns([[1, 2]], [1, 2, 3])


def test_matrix_validation():
    with pytest.raises(MatrixValidationError):
        linalg.check_matrix([[1.0, np.nan]])
    with pytest.raises(MatrixValidationError):
        linalg.check_matrix(np.empty((0, 3)))
    with pytest.raises(MatrixValidationError):
        linalg.check_matrix([1.0, 2.0])


# --- gram --------------------------------------------------------------------


def test_gram_identity():
    assert np.array_equal(linalg.gram(np.eye(2)), np.eye(2))


def test_gram_outer_product():
    assert np.array_equal(linalg.gram([[1, 2]]), [[1, 2], [2, 4]])


def test_gram_matches_triple_loop_and_symmetry():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 4)) * 3
    g = linalg.gram(x)
    assert np.array_equal(g, g.T)
    assert np.allclose(g, naive_gram(x), atol=1e-12 * np.abs(g).max())


def test_gram_partition_decomposition():
    # Summing per-partition scatter matrices reproduces the pooled scatter.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 5))
    centered = linalg.center_columns(x, linalg.column_means(x))
    pooled = linalg.gram(centered)
    split = linalg.gram(centered[:11]) + linalg.gram(centered[11:23]) + linalg.gram(
        centered[23:]
    )
    assert np.allclose(pooled, split, atol=1e-12 * max(1.0, np.abs(pooled).max()))


def mixed_scale_columns(rng, rows, cols=5):
    scales = np.resize([1e-3, 1.0, 7.5, 3e4, 1e8], cols)
    x = rng.normal(size=(rows, cols)) * scales
    return x - x.mean(axis=0)


def assert_exact(x):
    assert np.array_equal(linalg.gram(x), fraction_gram(x))
    assert np.array_equal(linalg.column_sums(x), fraction_column_sums(x))
    assert_shift_is_the_centered_copy(x)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_shift_is_the_centered_copy(x):
    """``gram(x, shift)`` has the bits of ``gram(x - shift)``, for the
    column means, which give every column full significands, and for the
    first row, which keeps the grids, the row blocks' slice counts and the
    columns near the subnormal range that ``x`` has."""
    for shift in (x.mean(axis=0), x[0]):
        assert same_bits(linalg.gram(x, shift), linalg.gram(x - shift))


def assert_row_permutation_invariant(x, rng):
    perm = rng.permutation(len(x))
    assert same_bits(linalg.gram(x[perm]), linalg.gram(x))
    assert same_bits(linalg.column_sums(x[perm]), linalg.column_sums(x))


@pytest.fixture
def fsum_calls(monkeypatch):
    """Every argument ``math.fsum`` receives during the test, as an array."""
    calls = []
    fsum = math.fsum

    def recording(values):
        calls.append(np.array(values, dtype=float))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", recording)
    return calls


def fsum_pairs(x, calls):
    """The column pairs s <= t whose products ``gram`` handed to fsum."""
    d = x.shape[1]
    return {
        (s, t)
        for s in range(d)
        for t in range(s, d)
        if any(np.array_equal(c, x[:, s] * x[:, t]) for c in calls)
    }


def fsum_columns(x, calls):
    """The columns ``column_sums`` handed to fsum."""
    return {t for t in range(x.shape[1]) if any(np.array_equal(c, x[:, t]) for c in calls)}


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of 8 rows at 4 columns, so that 40 rows span 5 blocks."""
    monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 32)


def short_significands(rng, rows, cols, scale):
    """Entries of at most 20 significant bits below ``scale``, so that any
    product of two entries is a float and fsum of such products is exact."""
    return rng.integers(-(2**20), 2**20, size=(rows, cols)) * (scale / 2.0**20)


def test_gram_and_column_sums_are_exact_on_mixed_scales():
    rng = np.random.default_rng(17)
    x = mixed_scale_columns(rng, 300)
    assert_exact(x)
    x[:, 2] = 0.0
    assert_exact(x)
    assert_exact(x[:1])
    assert_exact(-np.abs(x[:40]))
    # Past 1024 rows, gram carries its row blocks' products in int64.
    assert_exact(mixed_scale_columns(rng, 3000))


# At 127 to 129 columns a d x d product about fills a row block's entries,
# so each BLAS product of ``gram`` takes one slice and its rounding several
# pieces.
@pytest.mark.parametrize("cols", [5, 127, 128, 129])
def test_gram_and_column_sums_are_row_permutation_invariant_bitwise(cols):
    rng = np.random.default_rng(18)
    for rows in (300, 3000):
        x = mixed_scale_columns(rng, rows, cols)
        perm = rng.permutation(rows)
        assert np.array_equal(linalg.gram(x[perm]), linalg.gram(x))
        assert np.array_equal(linalg.column_sums(x[perm]), linalg.column_sums(x))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    log_scales=st.lists(st.floats(-12.0, 12.0), min_size=5, max_size=5),
)
def test_gram_and_column_sums_are_exact_property(rows, cols, seed, log_scales):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols)) * 10.0 ** np.array(log_scales[:cols])
    assert_exact(x)
    perm = rng.permutation(rows)
    assert np.array_equal(linalg.gram(x[perm]), linalg.gram(x))


def test_gram_fallback_columns_are_exact(fsum_calls):
    # Column 0 spans about 1000 bits, far beyond the slice budget; column 1
    # lies near the subnormal range, so its products with itself and with
    # column 2 leave float64's normal range.  Both take the fsum path.  The
    # entries have short significands, so every product is a float and the
    # fsum path is exact too; rows 0-2 of columns 0 and 2 cancel, which a
    # plain sum in row order would get wrong.  Column 3 pairs with column 2
    # through slices.
    x = np.array(
        [
            [3 * 2.0**500, 3 * 2.0**-1040, 1.25, 0.5],
            [1.5, -(2.0**-1060), -3.5, 6.0],
            [-3 * 2.0**500, 5 * 2.0**-1030, 1.25, -0.75],
            [-5 * 2.0**-500, 0.0, 6.0, 2.0],
            [7 * 2.0**-400, 2.0**-1050, 0.375, 1.0],
            [0.25, -3 * 2.0**-1045, 2.0, -1.5],
        ]
    )
    linalg.gram(x)
    assert fsum_pairs(x, fsum_calls) == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)}
    assert_exact(x)
    assert_exact(x[::-1])


def test_gram_fallback_rounds_each_product_below_the_normal_range():
    # Products of full significands near 2^-1040 lose bits to the subnormal
    # grid; such a pair keeps the fsum of the rounded products.
    rng = np.random.default_rng(1)
    x = np.column_stack([rng.normal(size=50) * 2.0**-1040, rng.normal(size=50)])
    g = linalg.gram(x)
    assert g[0, 1] == g[1, 0] == math.fsum(x[:, 0] * x[:, 1])
    assert g[0, 0] == math.fsum(x[:, 0] * x[:, 0])
    assert g[1, 1] == fraction_gram(x)[1, 1]


def test_sliceable_input_never_calls_fsum(fsum_calls):
    x = np.random.default_rng(19).normal(size=(300, 64))
    linalg.gram(x)
    linalg.column_sums(x)
    assert fsum_calls == []


def test_gram_and_column_sums_are_exact_across_row_blocks(small_blocks):
    rng = np.random.default_rng(20)
    x = rng.normal(size=(40, 4)) * [1e-3, 1.0, 7.5, 3e4]
    # Rounded rows need fewer slices than the full-precision last block, so
    # the slice count grows at the last block.
    x[:32] = np.round(x[:32] * 2.0**12) / 2.0**12
    x[8:16] = 0.0
    x[16:24] = np.round(x[16:24] * 100.0)
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)
    x[32:] = 0.0  # the last block all zero instead
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    block_rows=st.integers(1, 8),
    grids=st.lists(st.one_of(st.none(), st.integers(-8, 70)), min_size=2, max_size=6),
    short=st.integers(0, 7),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_scales=st.lists(st.floats(-12.0, 12.0), min_size=4, max_size=4),
)
def test_gram_and_column_sums_are_exact_across_row_blocks_property(
    block_rows, grids, short, cols, seed, log_scales
):
    # One block of block_rows rows per grid, the last up to ``short`` rows
    # shorter.  Each block's rows are rounded to a multiple of 2^-grid (or
    # kept whole for None), so a column needs a different number of slices
    # in each block, and its deepest slice may fall in any of them.
    rng = np.random.default_rng(seed)
    rows = max(len(grids) * block_rows - short, (len(grids) - 1) * block_rows + 1)
    x = rng.normal(size=(rows, cols)) * 10.0 ** np.array(log_scales[:cols])
    for b, grid in enumerate(grids):
        if grid is not None:
            block = x[b * block_rows : (b + 1) * block_rows]
            block[:] = np.round(block * 2.0**grid) / 2.0**grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_BLOCK_ENTRIES", block_rows * cols)
        assert_exact(x)
        assert_row_permutation_invariant(x, rng)


@pytest.fixture
def cut_depths(monkeypatch):
    """The slice count of every row block each ``_slicing`` call yields,
    one list per call."""
    calls = []
    real = linalg._slicing

    def recording(a, width, shift=None):
        hi, ruled_out, blocks = real(a, width, shift)
        depths = []
        calls.append(depths)

        def recorded():
            for sliced in blocks:
                depths.append(len(sliced))
                yield sliced

        return hi, ruled_out, recorded()

    monkeypatch.setattr(linalg, "_slicing", recording)
    return calls


def blocks_at_depths(rng, depths, cols=4):
    """Row blocks of 8 rows (``small_blocks``) whose ``gram`` slices end at
    the given depths: at 40 rows the slices are 23 bits wide, and every
    column's largest |x| is 1, so the entries of block b are odd multiples
    of 2^(1 - 23 depths[b]), or zero for depth 0."""
    x = np.zeros((8 * len(depths), cols))
    for b, depth in enumerate(depths):
        if depth:
            odd = 2 * rng.integers(0, 2**9, size=(8, cols)) + 1
            x[8 * b : 8 * b + 8] = odd * rng.choice([-1.0, 1.0], size=(8, cols)) * 2.0 ** (
                1 - 23 * depth
            )
    x[8 * np.flatnonzero(depths)[0]] = 1.0
    return x


@pytest.mark.parametrize(
    "depths, gram_cut, sums_cut",
    [
        # Each block first takes its predecessor's slices untested, so the
        # depths a block yields never fall; the extra slices are zero.
        ((1, 3, 2, 5, 1), [1, 3, 3, 5, 5], [1, 2, 2, 3, 3]),
        ((2, 0, 3, 0, 1), [2, 2, 3, 3, 3], [1, 1, 2, 2, 2]),
        ((0, 4, 0, 0, 2), [0, 4, 4, 4, 4], [0, 2, 2, 2, 2]),
    ],
)
def test_gram_and_column_sums_are_exact_when_blocks_cut_deeper_than_they_need(
    depths, gram_cut, sums_cut, small_blocks, cut_depths
):
    rng = np.random.default_rng(sum(depths))
    x = blocks_at_depths(rng, depths)
    linalg.gram(x)
    linalg.column_sums(x)  # 47-bit slices: a depth of 2 or less takes one
    assert cut_depths == [gram_cut, sums_cut]
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)


def test_gram_rules_out_a_column_whose_entry_underflows_after_a_deeper_block(
    small_blocks, cut_depths, fsum_calls
):
    # Column 0's largest |x| is 2^60, and its two cancel; block 2 holds
    # 3 * 2^-1040, which scaling by 2^(23 - 61) rounds to zero.  Block 1
    # takes five slices, so block 2 starts with five untested ones.  For
    # column_sums' 47-bit slices the entry scales to an exact subnormal,
    # which eight slices do not reach, so the cap rules the column out.
    rng = np.random.default_rng(25)
    x = short_significands(rng, 40, 4, 1.0)
    x[0] = 1.0
    x[8:16, 1] = (2 * rng.integers(0, 2**9, size=8) + 1) * 2.0**-100
    x[:, 0] = 0.0
    x[[3, 4, 20], 0] = [2.0**60, -(2.0**60), 3 * 2.0**-1040]
    x[[3, 4, 20], 1] = 1.0
    assert linalg.gram(x)[0, 1] == linalg.column_sums(x)[0] == 3 * 2.0**-1040
    assert cut_depths[0] == [1, 5, 5, 5, 5]
    assert fsum_pairs(x, fsum_calls) == {(0, 0), (0, 1), (0, 2), (0, 3)}
    assert fsum_columns(x, fsum_calls) == {0}
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)


def test_gram_rules_out_a_column_past_eight_slices_after_a_shallower_block(
    small_blocks, cut_depths, fsum_calls
):
    # Block 0 takes two slices; block 1 takes those untested, then tests
    # its rest before each further slice.  Column 1 ends at 2^(1 - 8 * 23),
    # the eighth slice's last bit, and stays sliced; column 2 one bit lower,
    # so the cap rules it out.
    rng = np.random.default_rng(26)
    x = short_significands(rng, 40, 4, 1.0)
    x[0] = 1.0
    x[1:8, 3] = (2 * rng.integers(0, 2**9, size=7) + 1) * 2.0**-45
    x[9, 1], x[10, 2] = 2.0**-183, 2.0**-184
    linalg.gram(x)
    assert cut_depths[0] == [2, 8, 8, 8, 8]
    assert fsum_pairs(x, fsum_calls) == {(0, 2), (1, 2), (2, 2), (2, 3)}
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (40, 1), (3000, 1)])
def test_gram_and_column_sums_are_exact_on_one_row_or_one_column(shape):
    rng = np.random.default_rng(shape[0] + shape[1])
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-30.0, 30.0, size=shape[1])
    assert_exact(x)
    x[::3] = 0.0
    assert_exact(x)


def round_cases(rng, count):
    """``count`` draws of ``(terms, top, width)`` for ``_round``: int64
    terms below 2^60 in magnitude whose sums are multiples of 2^-1074 below
    2^1023, each column one of five kinds."""
    for _ in range(count):
        c, width, cols = int(rng.integers(1, 9)), int(rng.integers(18, 54)), 4
        terms = np.zeros((c, cols), dtype=np.int64)
        lowest = -1074 + (c - 1) * width  # the last term's unit is 2^-1074 at least
        top = rng.integers(lowest, 961, size=cols).astype(np.int32)
        for j, kind in enumerate(rng.integers(0, 5, size=cols)):
            signs = rng.choice([-1, 1], size=c)
            if kind == 0:  # anything
                terms[:, j] = rng.integers(-(2**60) + 1, 2**60, size=c)
            elif kind == 1:  # next to the bound
                terms[:, j] = signs * (2**60 - 1 - rng.integers(0, 2**8, size=c))
            elif kind == 2:  # a small lead that later terms carry into, or cancel
                terms[0, j] = rng.integers(-3, 4)
                terms[1:, j] = signs[1:] * rng.integers(2**58, 2**60, size=c - 1)
            elif kind == 3:  # an exact tie, tipped either way by a last term of 0 or +-1
                terms[0, j] = signs[0] * (2 * int(rng.integers(2**52, 2**53)) + 1)
                if c > 1:
                    terms[-1, j] = rng.integers(-1, 2)
                    if rng.integers(0, 2):  # the tie's last bit carried in from term 1
                        terms[0, j] -= signs[0]
                        terms[1, j] += signs[0] << width
            else:  # below float64's normal range
                top[j] = lowest
                terms[-1, j] = rng.integers(-(2**52), 2**52)
                if c > 1:
                    terms[-2, j] = rng.integers(-1, 2)
        yield terms, top, width


def test_round_is_the_nearest_float_ties_to_even():
    rng = np.random.default_rng(27)
    for terms, top, width in round_cases(rng, 500):
        exact = [
            sum(Fraction(int(terms[g, j])) * Fraction(2) ** int(top[j] - g * width)
                for g in range(len(terms)))
            for j in range(terms.shape[1])
        ]
        got = linalg._round(terms.copy(), top, width)
        assert same_bits(got, np.array([float(e) for e in exact])), (terms, top, width)


def wide_provider_block():
    """A seeded block of the shape of one ``ss-wide`` provider: 2000 rows
    over three providers, 128 columns.  Every row block of it takes four
    slices, so ``gram`` makes its sums by k + q once, at their full size."""
    return np.random.default_rng(34).normal(size=(667, 128))


def test_gram_holds_its_products_and_rounding_to_a_row_blocks_entries(monkeypatch):
    x = wide_provider_block()
    d = x.shape[1]
    products, rounded = [], []
    matmul, round_terms = np.matmul, linalg._round

    def recording_matmul(*args, **kwargs):
        out = matmul(*args, **kwargs)
        products.append(out.size)
        return out

    def recording_round(terms, *args):
        rounded.append(terms.size)
        return round_terms(terms, *args)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(linalg, "_round", recording_round)
    g = linalg.gram(x)
    assert len(rounded) > 1 and max(rounded) <= linalg._BLOCK_ENTRIES
    assert products and max(products) <= max(linalg._BLOCK_ENTRIES, d * d)
    # Room for a full stack of slices against S_q, and for the terms of
    # every entry in one rounding piece.
    monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 2 * linalg._MAX_SLICES * d * d)
    rounded.clear()
    assert same_bits(linalg.gram(x), g)
    assert len(rounded) == 1


def test_gram_working_memory_is_the_slicing_the_pair_sums_and_a_few_blocks(monkeypatch):
    x = wide_provider_block()
    sizes = []
    pair_products = linalg._pair_products

    def recording(blocks, d):
        sums = pair_products(blocks, d)
        sizes.append(sums.nbytes)
        return sums

    monkeypatch.setattr(linalg, "_pair_products", recording)
    linalg.gram(x)  # numpy's first calls allocate for good
    # Four slices per row block give 2 * 4 - 1 sums by k + q, of d x d int64 each.
    assert sizes == [8 * 7 * x.shape[1] ** 2]
    tracemalloc.start()
    try:
        linalg.gram(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slicing = 8 * (linalg._MAX_SLICES + 1) * linalg._BLOCK_ENTRIES  # slice buffer and rest
    # Then one product, the result and a block for the small per-entry arrays.
    block = 8 * max(linalg._BLOCK_ENTRIES, x.shape[1] ** 2)
    assert peak <= slicing + sizes[-1] + 3 * block


def tall_provider_block():
    """A seeded block of the shape of one ``ss-tall`` provider, 25000x16,
    with column offsets that make centering matter."""
    rng = np.random.default_rng(39)
    return rng.uniform(-10.0, 10.0, size=16) + rng.normal(size=(25000, 16))


def traced_peak(call, *args):
    """The ``tracemalloc`` peak of ``call(*args)``, after a first call that
    lets numpy allocate for good."""
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_less_a_mean_holds_no_centered_copy_of_a_tall_block():
    x = tall_provider_block()
    peak = traced_peak(linalg.gram, x, linalg.column_means(x))
    assert peak < x.nbytes
    # As in the wide case: the slice buffer and the rest, the 2c - 1 = 5
    # sums by k + q of three slices (d x d int64 each), one product, the
    # result and a block for the small per-entry arrays.
    slicing = 8 * (linalg._MAX_SLICES + 1) * linalg._BLOCK_ENTRIES
    block = 8 * max(linalg._BLOCK_ENTRIES, x.shape[1] ** 2)
    assert peak <= slicing + 8 * 5 * x.shape[1] ** 2 + 3 * block


def test_column_sums_working_memory_is_the_slicing_and_a_few_blocks():
    # The bound, 1.5 MiB, is under half of one copy of the block (3.2 MB),
    # so no temporary of the block's size fits in it.
    x = tall_provider_block()
    slicing = 8 * (linalg._MAX_SLICES + 1) * linalg._BLOCK_ENTRIES  # slice buffer and rest
    assert traced_peak(linalg.column_sums, x) <= slicing + 3 * 8 * linalg._BLOCK_ENTRIES


@pytest.mark.parametrize(
    "rows, cols",
    # One row, one column, a prime row count (no fold but 1), d > 256 (fold
    # 1 whatever the rows), and one he-wine and one ss-tall provider's block
    # (folds 8 and 8).
    [(1, 5), (7, 1), (1009, 3), (40, 300), (800, 11), (25000, 16)],
)
def test_screen_exponents_are_those_of_the_largest_centered_entry(rows, cols):
    rng = np.random.default_rng(rows * cols)
    x = rng.normal(size=(rows, cols)) * 2.0 ** rng.integers(-30, 30, size=cols)
    if cols > 1:
        x[:, -1] = 0.0  # an all-zero column, left so by every shift below
    zero = ~x.any(axis=0)
    for shift in (0.0, np.zeros(cols), x.mean(axis=0), np.where(zero, 0.0, x[-1])):
        got = linalg._screen(x, shift)
        assert np.array_equal(got, np.frexp(np.max(np.abs(x - shift), axis=0))[1])
        assert np.all(got[zero] == 0)


def test_screen_holds_no_copy_of_a_tall_block():
    # A screen of np.abs(x - mean) would allocate 3.2 MB here.
    x = tall_provider_block()
    assert traced_peak(linalg._screen, x, linalg.column_means(x)) < 64 * 1024


def test_gram_slice_budget_edges(small_blocks, fsum_calls):
    # 40 rows give slices of 23 bits, so in a column whose largest entry is
    # 2^60 eight slices reach down to 2^(61 - 184).  Column 0 ends exactly
    # there; column 1 one bit lower, in an entry whose leading bit the slices
    # do reach; column 2 in an entry wholly below them.
    rng = np.random.default_rng(21)
    x = short_significands(rng, 40, 4, 2.0**59)
    x[3, :3] = 2.0**60
    x[37] = [2.0**-100 + 2.0**-123, 2.0**-100 + 2.0**-124, 2.0**-124, 1.5]
    x[:, 3] = short_significands(rng, 40, 1, 4.0).ravel()
    linalg.gram(x)
    assert fsum_pairs(x, fsum_calls) == {(0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3)}
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)


def test_column_sums_slice_budget_edges(small_blocks, fsum_calls):
    # 40 rows give slices of 47 bits, so in a column whose largest entry is 1
    # eight slices reach down to 2^(1 - 376).  Columns as in the gram case.
    rng = np.random.default_rng(22)
    x = rng.normal(size=(40, 4)) * 0.4
    x[3, :3] = 1.0
    x[37] = [2.0**-330 + 2.0**-375, 2.0**-330 + 2.0**-376, 2.0**-376, 0.5]
    assert same_bits(linalg.column_sums(x), fraction_column_sums(x))
    assert fsum_columns(x, fsum_calls) == {1, 2}
    perm = rng.permutation(40)
    assert same_bits(linalg.column_sums(x[perm]), linalg.column_sums(x))


def test_gram_and_column_sums_at_the_overflow_edge(small_blocks, fsum_calls):
    # With 40 rows, a sum is sliced while hi + 6 <= 1023.  Gram: columns 0
    # and 1 reach 2^507 and 2^508, so only the pair (1, 1) falls back.
    rng = np.random.default_rng(23)
    x = short_significands(rng, 40, 3, 1.0) * [2.0**507, 2.0**508, 1.0]
    x[5, :2] = [-(2.0**507), 2.0**508]
    linalg.gram(x)
    assert fsum_pairs(x, fsum_calls) == {(1, 1)}
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)
    # Column sums: columns 0 and 1 reach 2^1016 and 2^1017.
    fsum_calls.clear()
    y = short_significands(rng, 40, 3, 1.0) * [2.0**1016, 2.0**1017, 1.0]
    y[5, :2] = [2.0**1016, -(2.0**1017)]
    assert same_bits(linalg.column_sums(y), fraction_column_sums(y))
    assert fsum_columns(y, fsum_calls) == {1}
    perm = rng.permutation(40)
    assert same_bits(linalg.column_sums(y[perm]), linalg.column_sums(y))


@pytest.mark.parametrize(
    "call, x, named",
    [
        (linalg.column_sums, [[1e308], [1e308]], "the sum of column 0"),  # fsum overflows
        (linalg.gram, [[1e154], [1e154]], "Gram entry (0, 0)"),  # fsum overflows
        (linalg.gram, [[1e200, 1e200], [-1e200, 1e200]], "Gram entry (0, 0)"),
        (linalg.gram, [[1e10, 1e300], [-1e10, 1e300]], "Gram entry (0, 1)"),  # inf - inf
        (linalg.gram, [[1e308], [1e308]], "Gram entry (0, 0)"),  # infinite products
    ],
)
def test_an_exact_sum_beyond_float64s_range_names_its_entry(call, x, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixValidationError, match=re.escape(named) + " leaves float64"):
            call(x)


def test_sums_round_once_to_nearest_even():
    # 1 + 2^-53 lies halfway between two floats: alone it rounds to even, and
    # a far lower bit, 2^-100, tips it up.  Both paths are sliced.
    for low, want in [(0.0, 1.0), (2.0**-100, 1.0 + 2.0**-52)]:
        for sign in (1.0, -1.0):
            x = np.array([[1.0, 1.0], [2.0**-53, 1.0], [low, 1.0]]) * [sign, 1.0]
            assert linalg.column_sums(x)[0] == sign * want
            assert linalg.gram(x)[0, 1] == sign * want
            assert_exact(x)


def test_an_entry_far_below_its_column_maximum_is_not_lost(small_blocks):
    # Scaled by 2^-61, the column's largest exponent, 2^-1020 would underflow
    # to zero and the column would look sliceable; it takes fsum instead.
    x = np.zeros((40, 2))
    x[[4, 20], 0] = [2.0**60, -(2.0**60)]
    x[36, 0] = 2.0**-1020
    x[:, 1] = 1.0
    assert linalg.column_sums(x)[0] == linalg.gram(x)[0, 1] == 2.0**-1020
    assert_exact(x)


def test_an_entry_below_the_normal_range_rules_out_its_column_only(small_blocks, fsum_calls):
    # As above, column 0's 2^-1020 does not survive scaling by 2^-61; the
    # full significands of column 1 are sliced, unshifted or shifted, so
    # only the pairs with column 0 take fsum.
    x = np.zeros((40, 2))
    x[[4, 20], 0] = [2.0**60, -(2.0**60)]
    x[36, 0] = 2.0**-1020
    x[:, 1] = np.random.default_rng(39).normal(size=40) + 3.0
    for shift in (None, x.mean(axis=0), x[0]):
        fsum_calls.clear()
        linalg.gram(x, shift)
        assert len(fsum_calls) == 2
    assert_exact(x)


def test_gram_near_the_subnormal_edge_uses_each_columns_own_slice_count(
    small_blocks, fsum_calls
):
    # Column 0 holds 27-bit significands just below 2^-490: two 23-bit
    # slices, so its own products stay above 2^-1074 and are sliced, exactly;
    # as floats they would be rounded.  Column 1 needs eight slices.
    rng = np.random.default_rng(24)
    x = np.column_stack(
        [
            rng.integers(2**26, 2**27, size=40) * 2.0**-517,
            short_significands(rng, 40, 1, 2.0**59).ravel(),
        ]
    )
    x[3, 1], x[30, 1] = 2.0**60, 2.0**-120
    linalg.gram(x)
    assert fsum_pairs(x, fsum_calls) == set()
    assert_exact(x)
    assert_row_permutation_invariant(x, rng)


def test_upper_triangle_round_trip():
    g = linalg.gram(np.random.default_rng(5).normal(size=(9, 4)))
    triangle = linalg.upper_triangle(g)
    assert triangle.shape == (10,)
    assert list(triangle[:4]) == list(g[0])
    assert np.array_equal(linalg.symmetric_from_upper(triangle, 4), g)
    with pytest.raises(DimensionError):
        linalg.symmetric_from_upper(triangle, 3)
    with pytest.raises(DimensionError):
        linalg.upper_triangle(np.ones((2, 3)))


# --- jacobi eigensolver -------------------------------------------------------


def test_jacobi_diagonal_matrix():
    pairs = linalg.jacobi_eigh(np.diag([2.0, 1.0]))
    assert np.allclose(pairs.values, [2, 1])
    assert np.allclose(np.abs(pairs.vectors), np.eye(2))


def test_jacobi_known_2x2():
    pairs = linalg.jacobi_eigh([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pairs.values, [1, -1], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_jacobi_residuals_trace_orthonormality(d):
    rng = np.random.default_rng(100 + d)
    c = random_symmetric(rng, d, scale=4.0)
    pairs = linalg.jacobi_eigh(c, tol=1e-12)
    fro = np.linalg.norm(c)
    for j in range(d):
        residual = c @ pairs.vectors[:, j] - pairs.values[j] * pairs.vectors[:, j]
        assert np.linalg.norm(residual) <= 1e-10 * fro
    assert abs(pairs.values.sum() - np.trace(c)) <= 1e-10 * fro
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(d), atol=1e-10)
    assert np.all(np.diff(pairs.values) <= 1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_jacobi_determinant_against_cofactor_oracle(d):
    rng = np.random.default_rng(200 + d)
    c = random_symmetric(rng, d)
    pairs = linalg.jacobi_eigh(c)
    det = cofactor_det(c)
    assert math.isclose(np.prod(pairs.values), det, rel_tol=1e-8, abs_tol=1e-12)


def test_jacobi_eigenvalues_match_library_solver():
    rng = np.random.default_rng(7)
    c = random_symmetric(rng, 9, scale=2.0)
    ours = linalg.jacobi_eigh(c).values
    reference = np.sort(np.linalg.eigvalsh(c))[::-1]
    assert np.allclose(ours, reference, atol=1e-10)


def test_jacobi_rejects_non_symmetric():
    with pytest.raises(MatrixValidationError):
        linalg.jacobi_eigh([[1.0, 2.0], [0.5, 1.0]])


def test_jacobi_rejects_non_square():
    with pytest.raises(DimensionError):
        linalg.jacobi_eigh(np.ones((2, 3)))


def test_jacobi_non_convergence_reports_off_diagonal():
    # eigh leaves an off-diagonal residue near 1e-16 ||C||_F, so a tolerance
    # below it cannot be met.
    c = random_symmetric(np.random.default_rng(8), 6)
    with pytest.raises(ConvergenceError) as err:
        linalg.jacobi_eigh(c, tol=1e-17)
    assert err.value.off_diagonal_norm is not None
    assert err.value.off_diagonal_norm > 0


def identity_plus_low_rank(rng, d, rank):
    u = rng.normal(size=(d, rank))
    return np.eye(d) + u @ np.diag(np.arange(rank, 0, -1.0) * 5.0) @ u.T


@pytest.mark.parametrize("d", [48, 128, 160])
@pytest.mark.parametrize("kind", ["covariance", "identity_plus_low_rank"])
def test_jacobi_at_protocol_sizes(d, kind):
    rng = np.random.default_rng(300 + d)
    if kind == "covariance":
        x = rng.normal(size=(2 * d, d)) * np.geomspace(1.0, 1e-3, d)
        xc = x - x.mean(axis=0)
        c = linalg.gram(xc) / (len(xc) - 1)
    else:
        c = identity_plus_low_rank(rng, d, 6)
    pairs = linalg.jacobi_eigh(c)
    fro = np.linalg.norm(c)
    residuals = c @ pairs.vectors - pairs.vectors * pairs.values
    assert np.max(np.linalg.norm(residuals, axis=0)) <= 1e-10 * fro
    assert np.max(np.abs(pairs.vectors.T @ pairs.vectors - np.eye(d))) <= 1e-10
    assert np.all(np.diff(pairs.values) <= 0)
    if kind == "identity_plus_low_rank":
        assert np.allclose(pairs.values[6:], 1.0, atol=1e-10 * fro)
    transfer = linalg.top_k_transfer(pairs, 5)
    pivots = np.argmax(np.abs(transfer), axis=0)
    assert np.all(transfer[pivots, np.arange(5)] > 0)


def test_jacobi_zero_matrix():
    pairs = linalg.jacobi_eigh(np.zeros((3, 3)))
    assert np.array_equal(pairs.values, np.zeros(3))


def test_jacobi_on_entries_near_float64s_maximum_neither_overflows_nor_warns():
    # Unscaled, ||C||_F and C + C^T overflow here, and a NaN residual must
    # not pass the check.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = linalg.jacobi_eigh([[1e308, 0.0], [0.0, 1.0]])
    assert pairs.values.tolist() == [1e308, 1.0]


def test_pca_of_rows_near_the_root_of_float64s_maximum_matches_unit_rows():
    # The covariance is near 1e306: the residual check's threshold must stay finite.
    x = np.random.default_rng(5).normal(size=(30, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge, _ = linalg.centralized_pca(x * 2.0**508, 2)
    unit, _ = linalg.centralized_pca(x, 2)
    assert linalg.largest_principal_angle(huge, unit) < 1e-12


# --- top_k_transfer ------------------------------------------------------------


def test_top_k_dominant_axis():
    pairs = linalg.jacobi_eigh(np.diag([2.0, 1.0]))
    t = linalg.top_k_transfer(pairs, 1)
    assert np.allclose(t, [[1.0], [0.0]])


def test_top_k_on_diagonal_3x3():
    pairs = linalg.jacobi_eigh(np.diag([3.0, 2.0, 1.0]))
    t = linalg.top_k_transfer(pairs, 2)
    assert np.allclose(t, np.eye(3)[:, :2])


def test_top_k_orthonormal_columns():
    rng = np.random.default_rng(9)
    pairs = linalg.jacobi_eigh(random_symmetric(rng, 7))
    t = linalg.top_k_transfer(pairs, 4)
    assert np.allclose(t.T @ t, np.eye(4), atol=1e-10)


def test_top_k_sign_flip_invariance():
    rng = np.random.default_rng(10)
    pairs = linalg.jacobi_eigh(random_symmetric(rng, 5))
    flipped = linalg.EigenPairs(
        values=pairs.values, vectors=pairs.vectors * np.array([1, -1, 1, -1, 1])
    )
    assert np.array_equal(
        linalg.top_k_transfer(pairs, 3), linalg.top_k_transfer(flipped, 3)
    )


def test_top_k_rejects_bad_k():
    pairs = linalg.jacobi_eigh(np.diag([2.0, 1.0]))
    with pytest.raises(DimensionError):
        linalg.top_k_transfer(pairs, 0)
    with pytest.raises(DimensionError):
        linalg.top_k_transfer(pairs, 2)


# --- project --------------------------------------------------------------------


def test_project_identity_cases():
    x = np.eye(2)
    assert np.array_equal(linalg.project(x, [[1.0], [0.0]]), [[1.0], [0.0]])
    y = np.random.default_rng(11).normal(size=(4, 3))
    assert np.array_equal(linalg.project(y, np.eye(3)), y)


def test_project_matches_naive_matmul():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(10, 4))
    t = rng.normal(size=(4, 2))
    assert np.allclose(linalg.project(x, t), naive_matmul(x, t), atol=1e-12)


def test_project_dimension_mismatch():
    with pytest.raises(DimensionError):
        linalg.project(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(DimensionError, match="out has shape"):
        linalg.project(np.ones((2, 3)), np.ones((3, 2)), out=np.empty((3, 2)))
    with pytest.raises(DimensionError):
        linalg.project(np.ones((2, 3)), np.ones((3, 2)), shift=np.ones(2))


def _projection_cases():
    """(rows, d, k): each benchmark workload's provider shape (he-wine,
    ss-tall, ss-wide), also at k = 1, and row counts about one row block of
    each width."""
    shapes = [(800, 11, 4), (25000, 16, 8), (667, 128, 8)]
    cases = shapes + [(rows, d, 1) for rows, d, _ in shapes]
    for _, d, k in shapes:
        block = linalg._block_rows(d)
        cases += [(rows, d, k) for rows in (1, block - 1, block, block + 1)]
    return cases


def _projection_input(rows, d, k):
    rng = np.random.default_rng(rows * 1000 + d * 10 + k)
    x = rng.uniform(-10.0, 10.0, size=d) + rng.normal(size=(rows, d))
    transfer = np.linalg.qr(rng.normal(size=(d, k)))[0]
    return x, transfer, rng.uniform(-10.0, 10.0, size=d)


@pytest.mark.parametrize("rows, d, k", _projection_cases())
def test_projection_bits_of_a_shift_are_those_of_the_centered_copy(rows, d, k):
    x, transfer, shift = _projection_input(rows, d, k)
    expected = linalg.project(x - shift, transfer)
    assert linalg.project(x, transfer, shift).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows, d, k", _projection_cases())
def test_projection_bits_streamed_into_a_payload_are_its_encoding(rows, d, k):
    x, transfer, shift = _projection_input(rows, d, k)
    payload, entries = real_matrix_payload(rows, k)
    assert linalg.project(x, transfer, shift, entries) is entries
    assert payload == encode_real_matrix(linalg.project(x - shift, transfer))


def test_project_less_a_mean_holds_one_row_blocks_scratch():
    x = tall_provider_block()
    transfer = np.eye(16)[:, :8]
    out = np.empty((len(x), 8), ">f8")
    peak = traced_peak(linalg.project, x, transfer, linalg.column_means(x), out)
    # The centered block and its product, 24 entries a row, the finiteness
    # mask, a byte an entry, and the byte-order cast's buffer, numpy's 8192
    # entries.  A centered copy of the block alone would take 3.2 MB.
    block = linalg._block_rows(16)
    assert peak <= 8 * 24 * block + 16 * block + 8 * 8192 + 4096


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_named_by_the_screens_and_project(bad):
    rng = np.random.default_rng(16)
    x = rng.normal(size=(25000, 16))
    x[20001, 13] = bad  # in a later row block of the screens
    named = r"non-finite entry at \(20001, 13\)"
    for check in (
        linalg.column_sums,
        linalg.column_means,
        linalg.gram,
        lambda a: linalg.project(a, np.eye(16)[:, :8]),
        lambda a: linalg.project(a, np.eye(16)[:, :8], np.ones(16)),
    ):
        with pytest.raises(MatrixValidationError, match=named):
            check(x)


@pytest.mark.parametrize(
    "nan_at, shift",
    [
        (None, [-1e308, 0.0]),  # 1e308 + 1e308, the column's largest entry centered
        (None, [1e308, 0.0]),  # -1e308 - 1e308, its smallest
        ((2, 1), [0.0, -5.0]),
    ],
)
def test_a_non_finite_centered_entry_is_named_as_in_the_centered_copy(nan_at, shift):
    x = np.array([[1.0, 2.0], [1e308, 3.0], [-1e308, 4.0]])
    if nan_at:
        x[nan_at] = np.nan
    shift = np.array(shift)
    with np.errstate(over="ignore"), pytest.raises(MatrixValidationError) as copied:
        linalg.gram(x - shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixValidationError, match=re.escape(str(copied.value))):
            linalg.gram(x, shift)
        with pytest.raises(MatrixValidationError, match=re.escape(str(copied.value))):
            linalg.project(x, np.eye(2)[:, :1], shift)


def test_centering_that_overflows_is_rejected_naming_the_entry():
    x = np.array([[1.0, 2.0], [1e308, 3.0], [-1e308, 4.0]])
    mean = np.array([-1e308, 0.0])
    named = r"non-finite entry at \(1, 0\)"
    with np.errstate(over="ignore"):
        centered = linalg.center_columns(x, mean)  # 1e308 + 1e308 overflows
        assert np.isinf(centered[1, 0])
        with pytest.raises(MatrixValidationError, match=named):
            linalg.gram(centered)
        with pytest.raises(MatrixValidationError, match=named):
            linalg.project(centered, np.eye(2)[:, :1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixValidationError, match=named):
            linalg.project(x, np.eye(2)[:, :1], mean)


# --- centralized PCA --------------------------------------------------------------


def test_pca_rank1_line_preserves_distances():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    _, reduced = linalg.centralized_pca(x, 1)
    coords = reduced[:, 0]
    for i in range(4):
        for j in range(4):
            original = np.linalg.norm(x[i] - x[j])
            assert abs(abs(coords[i] - coords[j]) - original) < 1e-10


def test_pca_projection_variance_equals_eigenvalues():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(40, 6)) * [1, 2, 3, 4, 5, 6]
    k = 3
    _, reduced = linalg.centralized_pca(x, k)
    centered = linalg.center_columns(x, linalg.column_means(x))
    cov = linalg.gram(centered) / (x.shape[0] - 1)
    top = linalg.jacobi_eigh(cov).values[:k]
    variances = reduced.var(axis=0, ddof=1)
    assert np.allclose(variances, top, atol=1e-10 * max(1.0, top[0]))


def test_pca_duplicate_rows_match_reweighted_covariance_oracle():
    rng = np.random.default_rng(14)
    unique = rng.normal(size=(6, 4))
    repeats = np.array([3, 1, 2, 4, 1, 2])
    x = np.repeat(unique, repeats, axis=0)
    n = x.shape[0]
    mean = (repeats @ unique) / n
    weighted = np.zeros((4, 4))
    for row, w in zip(unique, repeats):
        delta = row - mean
        weighted += w * np.outer(delta, delta)
    weighted /= n - 1
    centered = linalg.center_columns(x, linalg.column_means(x))
    cov = linalg.gram(centered) / (n - 1)
    assert np.allclose(cov, weighted, atol=1e-12 * max(1.0, np.abs(weighted).max()))
    ours = linalg.top_k_transfer(linalg.jacobi_eigh(cov), 2)
    oracle = linalg.top_k_transfer(linalg.jacobi_eigh(weighted), 2)
    assert np.allclose(ours, oracle, atol=1e-9)


def test_pca_exact_row_permutation_invariance():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(25, 5)) * 7
    perm = rng.permutation(25)
    t1, out1 = linalg.centralized_pca(x, 3)
    t2, out2 = linalg.centralized_pca(x[perm], 3)
    assert np.array_equal(t1, t2)
    assert np.array_equal(out1[perm], out2)


def test_pca_rejects_degenerate_inputs():
    with pytest.raises(DimensionError):
        linalg.centralized_pca(np.ones((1, 3)), 1)
    with pytest.raises(DimensionError):
        linalg.centralized_pca(np.ones((5, 3)), 3)


# --- principal angles ----------------------------------------------------------


def test_principal_angles_identical_and_orthogonal():
    a = np.eye(4)[:, :2]
    assert linalg.largest_principal_angle(a, a) < 1e-12
    b = np.eye(4)[:, 2:]
    assert abs(linalg.largest_principal_angle(a, b) - np.pi / 2) < 1e-12


def test_principal_angles_sign_and_rotation_invariant():
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    theta = 0.3
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1],
        ]
    )
    assert linalg.largest_principal_angle(q, q @ rot) < 1e-10
    assert linalg.largest_principal_angle(q, -q) < 1e-10
