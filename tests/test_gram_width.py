"""The slice width of ``linalg.gram`` on tall inputs.

The width follows the rows one BLAS call sums (at most 2^10), not the whole
column, so a tall block needs fewer slices; the products are carried across
blocks in int64, and the width is capped so that eight of those sums stay
below the 2^60 that the rounding needs.
"""

import math

import numpy as np
import pytest

from pppca import linalg


def exact_gram(m, exps, chunk=1 << 16):
    """X^T X for x[:, t] = m[:, t] * 2^exps[t], with m in int64: the products
    summed exactly as integers, in 16-bit limbs, and rounded once."""
    d = m.shape[1]
    limbs = 4
    total = np.zeros((limbs * d, limbs * d), dtype=np.int64)
    for start in range(0, len(m), chunk):
        block = m[start : start + chunk]
        # Every limb but the top one (which keeps the sign) is in [0, 2^16).
        parts = np.hstack(
            [(block >> 16 * i) & 0xFFFF for i in range(limbs - 1)] + [block >> 16 * (limbs - 1)]
        )
        total += parts.T @ parts  # each sum below 2^32 * 2^21 rows
    out = np.empty((d, d))
    for s in range(d):
        for t in range(d):
            exact = sum(
                int(total[i * d + s, j * d + t]) << 16 * (i + j)
                for i in range(limbs)
                for j in range(limbs)
            )
            out[s, t] = math.ldexp(float(exact), exps[s] + exps[t])
    return out


def short_significand_columns(rows, seed):
    """Three columns of integers times powers of two, as ``(m, exps)``.

    Column 0 holds 53-bit entries just below 2^62, whose slices are all
    nearly full, so that its product sums come close to their bound; every
    hundredth entry is a small odd one instead, which takes the column's
    slices down to 2^0.  Column 1 holds 47-bit entries of either sign, and
    column 2 12-bit ones at a far larger scale.
    """
    rng = np.random.default_rng(seed)
    m = np.column_stack(
        [
            (2**53 - 1 - rng.integers(0, 2**30, size=rows)) << 9,
            rng.integers(-(2**47) + 1, 2**47, size=rows),
            rng.integers(-(2**12) + 1, 2**12, size=rows),
        ]
    )
    m[::100, 0] = 2 * rng.integers(0, 2**10, size=len(m[::100])) + 1
    return m, [-62, -20, 30]


@pytest.fixture
def slicing(monkeypatch):
    """Each ``_slicing`` call of the test, as a dict: its ``width`` and the
    slice count of every row block it yielded (``slices``)."""
    calls = []
    real = linalg._slicing

    def recording(a, width):
        hi, counts, blocks = real(a, width)
        call = {"width": width, "slices": []}
        calls.append(call)

        def recorded():
            for sliced in blocks:
                call["slices"].append(len(sliced))
                yield sliced

        return hi, counts, recorded()

    monkeypatch.setattr(linalg, "_slicing", recording)
    return calls


@pytest.mark.parametrize("rows, width, slices", [(3000, 21, 3), (2**20 + 1, 18, 4)])
def test_gram_is_exact_on_tall_inputs(rows, width, slices, slicing):
    # 3000 rows take three 1024-row blocks, added into int64 in turn.  At
    # 2^20 + 1 rows the width is capped at (57 - 21) / 2 = 18 bits, below
    # the 21 that 1024-row blocks allow; column 0's pair sums then come near
    # 2^57, and four of them meet at k + q = 3.
    m, exps = short_significand_columns(rows, seed=rows)
    x = m * 2.0 ** np.array(exps)
    assert np.array_equal(linalg.gram(x), exact_gram(m, exps))
    assert slicing[0]["width"] == width
    assert max(slicing[0]["slices"]) == slices


def test_a_tall_centered_block_takes_three_slices_per_block(slicing):
    # A provider's block of a 100000x16 session: 21-bit slices cover the 58
    # or so bits from its largest entries down to its lowest set bits in 3
    # slices, where the width of 25000 rows, 19 bits, took 4.
    rng = np.random.default_rng(32)
    x = rng.uniform(-10.0, 10.0, size=16) + rng.normal(size=(25000, 16))
    linalg.gram(linalg.center_columns(x, linalg.column_means(x)))
    gram_call = slicing[-1]
    assert gram_call["width"] == 21
    assert len(gram_call["slices"]) == 25  # blocks of 1024 rows
    assert set(gram_call["slices"]) == {3}


@pytest.mark.parametrize("rows", [1, 40, 800, 1024])
def test_up_to_1024_rows_keep_the_width_of_the_whole_column(rows, slicing):
    x = np.random.default_rng(rows).normal(size=(rows, 11))
    linalg.gram(x)
    assert slicing[0]["width"] == (53 - math.ceil(math.log2(rows))) // 2
