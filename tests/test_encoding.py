import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pppca import ring
from pppca.encoding import (
    FixedPointConfig,
    encode_float,
    matrix_decode_fixed,
    matrix_encode_fixed,
)
from pppca.errors import EncodingRangeError
from pppca.ring import from_ints, to_ints

CFG = FixedPointConfig(l=64, f=24)


def encode_row(xs, cfg=CFG) -> list[int]:
    """A row of reals encoded, read as Python ints."""
    return to_ints(matrix_encode_fixed([xs], cfg))[0].tolist()


def decode_row(zs, cfg=CFG) -> list[float]:
    """A row of ring elements, given as Python ints, decoded."""
    return matrix_decode_fixed(from_ints([zs]), cfg)[0].tolist()


# --- fixed point -------------------------------------------------------------


def test_fixed_zero():
    assert encode_row([0.0, -0.0]) == [0, 0]
    assert decode_row([0]) == [0.0]


def test_fixed_exact_dyadic():
    assert encode_row([1.5]) == [3 * 2**23]


def test_fixed_negative_one():
    assert decode_row([2**64 - 2**24]) == [-1.0]
    assert encode_row([-1.0]) == [2**64 - 2**24]


def test_fixed_round_trip_error_bound():
    rng = random.Random(42)
    xs = np.array([rng.uniform(-1000.0, 1000.0) for _ in range(1000)])
    back = np.array(decode_row(encode_row(xs)))
    assert np.max(np.abs(back - xs)) <= 2**-24


def test_fixed_rounding_half_away_from_zero():
    tiny = FixedPointConfig(l=16, f=4)
    # 0.5 / 16 lands exactly on a half ulp: rounds away from zero.
    assert encode_row([3.0 / 32, -3.0 / 32], tiny) == [2, (1 << 16) - 2]  # 1.5 ulps -> 2


def test_fixed_overflow_detected_eagerly():
    with pytest.raises(EncodingRangeError):
        encode_row([float(2 ** (64 - 24 - 1))])
    with pytest.raises(EncodingRangeError):
        encode_row([-float(2 ** (64 - 24 - 1)) - 1.0])
    # Just below the bound encodes fine.
    encode_row([float(2 ** (64 - 24 - 1)) * (1 - 1e-12)])


def test_fixed_additive_homomorphism():
    rng = random.Random(7)
    pairs = [(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)) for _ in range(500)]
    a, b = (matrix_encode_fixed([list(xs)], CFG) for xs in zip(*pairs))
    got = matrix_decode_fixed(ring.add(a, b, l=CFG.l), CFG)[0]
    assert np.max(np.abs(got - [x + y for x, y in pairs])) <= 2**-23


def test_fixed_sum_of_many_operands():
    rng = random.Random(8)
    for count in (2, 5, 16):
        xs = [rng.uniform(-100, 100) for _ in range(count)]
        zs = encode_row(xs)
        [got] = decode_row([sum(zs) % CFG.modulus])
        assert abs(got - sum(xs)) <= count * 2**-24


def test_fixed_monotone():
    rng = random.Random(9)
    xs = sorted(rng.uniform(-500, 500) for _ in range(200))
    signed = [z - CFG.modulus if z >= 1 << (CFG.l - 1) else z for z in encode_row(xs)]
    assert all(a <= b for a, b in zip(signed, signed[1:]))


def test_fixed_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(l=64, f=64)
    with pytest.raises(ValueError):
        FixedPointConfig(l=200, f=24)
    with pytest.raises(ValueError):
        FixedPointConfig(l=32, f=0)
    # Non-int widths would fail later, inside a shift.
    for l, f, name in ((64, 24.5, "f"), (64.0, 24, "l"), (True, 24, "l"), (64, "24", "f")):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            FixedPointConfig(l=l, f=f)


def test_default_ring_and_signed_reading():
    cfg = FixedPointConfig()
    assert (cfg.l, cfg.f, cfg.max_magnitude) == (128, 64, 2.0**63)
    signed = [-(2**64), 2**63, -1, 0]
    z = matrix_encode_fixed([[-1.0, 0.5, -(2.0**-64), 0.0]], cfg)
    assert to_ints(z).tolist() == [[v % cfg.modulus for v in signed]]
    # The he back end's offset: flipping bit l - 1 adds 2^(l-1) to the
    # signed reading, for every width.
    for l, f in ((128, 64), (64, 24), (65, 20), (16, 4)):
        fp = FixedPointConfig(l=l, f=f)
        top = fp.max_magnitude * 0.999
        xs = [-top, -1.0, -(2.0**-f), 0.0, 2.0**-f, 1.0, top]
        z = matrix_encode_fixed([xs], fp)
        signed = [v - fp.modulus if v >> (l - 1) else v for v in to_ints(z)[0]]
        flipped = to_ints(z ^ from_ints(1 << (l - 1)))[0]
        assert flipped.tolist() == [v + (1 << (l - 1)) for v in signed]


def test_decode_fixed_rejects_out_of_ring():
    with pytest.raises(ValueError):
        decode_row([CFG.modulus])


# --- float encoding ------------------------------------------------------------


def test_float_zero():
    enc = encode_float(0.0)
    assert (enc.significand, enc.exponent) == (0, 0)


def test_float_hand_example():
    enc = encode_float(2.5, base=16, precision=2)
    assert (enc.significand, enc.exponent) == (40, -1)
    assert enc.decode() == 2.5


def test_float_round_trip_default_precision():
    rng = random.Random(10)
    for _ in range(10_000):
        x = rng.uniform(-1, 1) * 10 ** rng.randint(-12, 12)
        err = abs(encode_float(x).decode() - x)
        assert err <= 1e-12 * abs(x)


def test_float_precision_bound_holds():
    rng = random.Random(11)
    for precision in (2, 4, 8):
        bound = 16.0 ** (1 - precision)
        for _ in range(500):
            x = rng.uniform(-1e6, 1e6)
            got = encode_float(x, base=16, precision=precision).decode()
            assert abs(got - x) <= bound * abs(x) + 1e-300


def test_float_powers_of_base_edge():
    for x in (16.0, 1.0, 1 / 16.0, 256.0, -16.0):
        enc = encode_float(x, base=16, precision=3)
        assert enc.decode() == x


def test_float_rejects_non_finite():
    with pytest.raises(EncodingRangeError):
        encode_float(math.inf)
    with pytest.raises(EncodingRangeError):
        encode_float(math.nan)


# --- matrix lifts ------------------------------------------------------------------


def test_matrix_fixed_zero_and_dyadic_round_trip():
    zeros = np.zeros((3, 2))
    assert np.array_equal(
        matrix_decode_fixed(matrix_encode_fixed(zeros, CFG), CFG),
        zeros,
    )
    dyadic = np.array([[0.5, -0.25], [3.75, -8.0]])
    assert np.array_equal(
        matrix_decode_fixed(matrix_encode_fixed(dyadic, CFG), CFG),
        dyadic,
    )


def test_matrix_fixed_round_trip_bound():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(11, 11)) * 50
    back = matrix_decode_fixed(matrix_encode_fixed(x, CFG), CFG)
    assert np.max(np.abs(back - x)) <= 2**-24


def _reference_encode_fixed(x: float, cfg: FixedPointConfig) -> int:
    """The scalar encoder the vectorized one replaced, with exact Fractions."""
    if not math.isfinite(x):
        raise EncodingRangeError(f"cannot encode non-finite value {x!r}")
    if abs(x) >= cfg.max_magnitude:
        raise EncodingRangeError(f"|{x!r}| exceeds fixed-point bound")
    value = Fraction(x) * cfg.scale
    if value >= 0:
        scaled = int(math.floor(value + Fraction(1, 2)))
    else:
        scaled = -int(math.floor(-value + Fraction(1, 2)))
    if abs(scaled) >= 1 << (cfg.l - 1):
        raise EncodingRangeError(f"{x!r} rounds outside the signed {cfg.l}-bit range")
    return scaled % cfg.modulus


@pytest.mark.parametrize("l, f", [(16, 4), (64, 24), (128, 60)])
def test_matrix_encode_matches_fraction_reference(l, f):
    cfg = FixedPointConfig(l=l, f=f)
    ulp, bound = 1.0 / cfg.scale, cfg.max_magnitude
    rng = np.random.default_rng(l)
    # Exact half-ulp ties, small and as large as binary64 holds them.
    k = np.concatenate(
        [np.arange(6), rng.integers(0, min(2**50, 2 ** (l - 1) - 1), 20)]
    ).astype(float)
    ties = (k + 0.5) * ulp
    near_bound = [np.nextafter(bound, 0), bound * (1 - 2**-40), bound - ulp, bound - ulp / 2]
    xs = np.concatenate(
        [
            [0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 7, -2.2e-308 / 7],
            ties,
            -ties,
            near_bound,
            np.negative(near_bound),
            rng.normal(size=60) * bound / 8,
            rng.normal(size=60),
        ]
    )
    encodable = []
    for x in xs:
        try:
            encodable.append((x, _reference_encode_fixed(float(x), cfg)))
        except EncodingRangeError:
            with pytest.raises(EncodingRangeError):
                matrix_encode_fixed([[x]], cfg)
    assert len(encodable) > 150
    got = matrix_encode_fixed(np.array([x for x, _ in encodable]).reshape(1, -1), cfg)
    assert got.shape == (1, len(encodable), 2) and got.dtype == np.uint64
    assert to_ints(got).ravel().tolist() == [z for _, z in encodable]


def test_matrix_errors_carry_location():
    bad = np.array([[1.0, 2.0], [3.0, float(2**45)]])
    with pytest.raises(EncodingRangeError, match=r"\(1, 1\)"):
        matrix_encode_fixed(bad, CFG)
