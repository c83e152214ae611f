"""The limb ring against Python ints.

Ring matrices hold each element of Z_{2^l} as two uint64 limbs.  Every
operation of the secret-sharing pipeline on them (encode, share, local sum,
reconstruct, decode) must equal the same operation on Python ints exactly,
for every width l <= 128 and every split f.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppca import ring
from pppca.encoding import FixedPointConfig, matrix_decode_fixed, matrix_encode_fixed
from pppca.errors import DimensionError, EncodingRangeError
from pppca.sharing import CounterPRG, add_local_matrix, reconstruct_matrix, share_matrix

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
PIPELINE = settings(PROPERTY, max_examples=200)


def reference_encode(x: float, l: int, f: int) -> int | None:
    """round(x * 2^f), halves away from zero, in two's complement; None if
    it does not fit the signed l-bit range."""
    if not math.isfinite(x):
        return None
    y = Fraction(x) * 2**f
    z = math.floor(abs(y) + Fraction(1, 2))
    z = -z if y < 0 else z
    if abs(z) >= 1 << (l - 1):
        return None
    return z % (1 << l)


def reference_decode(z: int, l: int, f: int) -> float:
    signed = z - (1 << l) if z >= 1 << (l - 1) else z
    return signed / 2**f  # one correct rounding


@st.composite
def widths(draw):
    l = draw(st.integers(2, 128))
    return l, draw(st.integers(1, l - 1))


@st.composite
def reals(draw, l: int, f: int):
    """Reals near the places where limb arithmetic can go wrong."""
    ulp = 2.0**-f
    bound = 2.0 ** (l - f - 1)
    special = [
        0.0,
        -0.0,
        float(np.nextafter(bound, 0)),
        -float(np.nextafter(bound, 0)),
        bound,
        -bound,
        ulp / 2,  # ties
        -ulp / 2,
        1.5 * ulp,
        -2.5 * ulp,
        -ulp,  # all ones: negation borrows through both limbs
        2.0**63 * ulp,  # two of these carry out of the low limb
        2.0**64 * ulp,
        -(2.0**64) * ulp,  # low limb zero: the negation carries into hi
        -(2.0**64 + 2.0**12) * ulp,
    ]
    return draw(
        st.one_of(
            st.sampled_from(special),
            st.integers(-(1 << (l - 1)), (1 << (l - 1)) - 1).map(lambda k: float(k) * ulp),
            st.integers(-(1 << 40), 1 << 40).map(lambda k: (k + 0.5) * ulp),
            st.floats(-bound, bound, allow_nan=False),
        )
    )


@st.composite
def pipelines(draw):
    l, f = draw(widths())
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    terms = [
        [[draw(reals(l, f)) for _ in range(cols)] for _ in range(rows)] for _ in range(2)
    ]
    return l, f, terms, draw(st.integers(2, 4)), draw(st.integers(0, 2**32))


def _ints(a) -> list:
    return ring.to_ints(a).tolist()


@PIPELINE
@given(pipelines())
def test_share_pipeline_equals_python_ints(case):
    l, f, terms, parties, seed = case
    cfg = FixedPointConfig(l=l, f=f)
    modulus = 1 << l
    inputs, expected = [], []
    for t in terms:
        refs = [[reference_encode(x, l, f) for x in row] for row in t]
        for x, z in zip(np.ravel(t), np.ravel(np.array(refs, dtype=object))):
            if z is None:
                with pytest.raises(EncodingRangeError):
                    matrix_encode_fixed([[x]], cfg)
        # Keep the encodable entries, zero the others.
        ok = [[z is not None for z in row] for row in refs]
        inputs.append(np.where(ok, t, 0.0))
        expected.append(np.where(ok, np.array(refs, dtype=object), 0).tolist())
    encoded = [matrix_encode_fixed(t, cfg) for t in inputs]
    assert [_ints(z) for z in encoded] == expected

    prg = CounterPRG(seed)
    bundles = [share_matrix(z, parties, l, prg, f"t{i}") for i, z in enumerate(encoded)]
    for bundle, want in zip(bundles, expected):
        values = [np.array(ring.to_ints(m.values)) for m in bundle]
        assert all(0 <= v < modulus for held in values for v in held.flat)
        assert (sum(values) % modulus).tolist() == want
    local = [add_local_matrix([b[owner] for b in bundles]) for owner in range(parties)]
    for owner, m in enumerate(local):
        want = sum(np.array(ring.to_ints(b[owner].values)) for b in bundles) % modulus
        assert _ints(m.values) == want.tolist()
    total = reconstruct_matrix(local, party_count=parties)
    want = (np.array(expected[0], dtype=object) + np.array(expected[1], dtype=object)) % modulus
    assert _ints(total) == want.tolist()

    got = matrix_decode_fixed(total, cfg)
    ref = np.array([[reference_decode(z, l, f) for z in row] for row in want.tolist()])
    assert got.tobytes() == ref.tobytes()  # bit for bit, signs of zero included


@st.composite
def ring_elements(draw):
    """Elements of Z_{2^l} whose decoding needs every rounding case: exact,
    below, above and at half an ulp, with and without a sticky bit."""
    l, f = draw(widths())
    top = 1 << (l - 1)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        z = draw(st.integers(0, (1 << l) - 1))
    else:
        # A 53-bit significand, then a tail of k bits: a tie (10..0), or a
        # tie plus or minus one.
        k = draw(st.integers(1, max(1, l - 55)))
        tail = (1 << (k - 1)) + draw(st.sampled_from([-1, 0, 1])) if k > 1 else 1
        z = (draw(st.integers(1 << 52, (1 << 53) - 1)) << k | tail) % top
        if kind == 2:
            z = (1 << l) - z if z else z
    return l, f, z


@PROPERTY
@given(st.lists(ring_elements(), min_size=1, max_size=6))
def test_decode_is_correctly_rounded_int_division(cases):
    for l, f, z in cases:
        got = matrix_decode_fixed(ring.from_ints([[z]]), FixedPointConfig(l=l, f=f))
        assert got.tobytes() == np.float64(reference_decode(z, l, f)).tobytes()


@PROPERTY
@given(
    st.integers(1, 128).flatmap(
        lambda l: st.tuples(
            st.just(l), st.lists(st.integers(0, (1 << l) - 1), min_size=2, max_size=5)
        )
    )
)
def test_add_and_sub_equal_modular_int_arithmetic(case):
    l, values = case
    first, *rest = [ring.from_ints([[v]]) for v in values]
    assert _ints(ring.add(first, *rest, l=l)) == [[sum(values) % (1 << l)]]
    assert _ints(ring.sub(first, *rest, l=l)) == [[(values[0] - sum(values[1:])) % (1 << l)]]


def test_from_ints_and_to_ints_round_trip_at_the_limb_edges():
    edges = [[0, 1, (1 << 64) - 1], [1 << 64, (1 << 128) - 1, (1 << 127) + 5]]
    z = ring.from_ints(edges)
    assert z.dtype == np.uint64 and z.shape == (2, 3, 2)
    assert z[1, 0].tolist() == [1, 0]  # [hi, lo]
    assert _ints(z) == edges
    for bad in (-1, 1 << 128):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            ring.from_ints([[0, bad]])


def test_checked_rejects_other_arrays_and_names_the_first_entry_past_the_ring():
    with pytest.raises(TypeError, match="from_ints"):
        ring.checked([[1, 2]], 8, "x")
    with pytest.raises(DimensionError):
        ring.checked(np.zeros((2, 2), np.uint64), 8, "x")
    with pytest.raises(DimensionError):
        ring.checked(np.zeros((0, 2, 2), np.uint64), 8, "x")
    for l, bad in [(8, 256), (64, 1 << 64), (65, 1 << 65), (127, 1 << 127)]:
        z = ring.from_ints([[0, (1 << l) - 1], [bad, 0]])
        with pytest.raises(ValueError, match=r"x at \(1, 0\) outside"):
            ring.checked(z, l, "x")
    assert ring.checked(ring.from_ints([[(1 << 128) - 1]]), 128, "x").shape == (1, 1, 2)
