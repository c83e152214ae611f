import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pppca import encoding
from pppca.encoding import (
    FixedPointConfig,
    decode_fixed,
    encode_fixed,
    encode_float,
)
from pppca.errors import EncodingRangeError

CFG = FixedPointConfig(l=64, f=24)


# --- fixed point -------------------------------------------------------------


def test_fixed_zero():
    assert encode_fixed(0.0, CFG) == 0
    assert decode_fixed(0, CFG) == 0.0


def test_fixed_exact_dyadic():
    assert encode_fixed(1.5, CFG) == 3 * 2**23


def test_fixed_negative_one():
    assert decode_fixed(2**64 - 2**24, CFG) == -1.0
    assert encode_fixed(-1.0, CFG) == 2**64 - 2**24


def test_fixed_round_trip_error_bound():
    rng = random.Random(42)
    for _ in range(1000):
        x = rng.uniform(-1000.0, 1000.0)
        z = encode_fixed(x, CFG)
        assert abs(decode_fixed(z, CFG) - x) <= 2**-24


def test_fixed_rounding_half_away_from_zero():
    tiny = FixedPointConfig(l=16, f=4)
    # 0.5 / 16 lands exactly on a half ulp: rounds away from zero.
    assert encode_fixed(3.0 / 32, tiny) == 2  # 1.5 ulps -> 2
    assert encode_fixed(-3.0 / 32, tiny) == (1 << 16) - 2


def test_fixed_overflow_detected_eagerly():
    with pytest.raises(EncodingRangeError):
        encode_fixed(float(2 ** (64 - 24 - 1)), CFG)
    with pytest.raises(EncodingRangeError):
        encode_fixed(-float(2 ** (64 - 24 - 1)) - 1.0, CFG)
    # Just below the bound encodes fine.
    encode_fixed(float(2 ** (64 - 24 - 1)) * (1 - 1e-12), CFG)


def test_fixed_additive_homomorphism():
    rng = random.Random(7)
    modulus = CFG.modulus
    for _ in range(500):
        a = rng.uniform(-1e6, 1e6)
        b = rng.uniform(-1e6, 1e6)
        za, zb = encode_fixed(a, CFG), encode_fixed(b, CFG)
        got = decode_fixed((za + zb) % modulus, CFG)
        assert abs(got - (a + b)) <= 2**-23


def test_fixed_sum_of_many_operands():
    rng = random.Random(8)
    for count in (2, 5, 16):
        xs = [rng.uniform(-100, 100) for _ in range(count)]
        zs = [encode_fixed(x, CFG) for x in xs]
        got = decode_fixed(sum(zs) % CFG.modulus, CFG)
        assert abs(got - sum(xs)) <= count * 2**-24


def test_fixed_monotone():
    rng = random.Random(9)
    xs = sorted(rng.uniform(-500, 500) for _ in range(200))
    signed = [
        z - CFG.modulus if z >= 1 << (CFG.l - 1) else z
        for z in (encode_fixed(x, CFG) for x in xs)
    ]
    assert all(a <= b for a, b in zip(signed, signed[1:]))


def test_fixed_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(l=64, f=64)
    with pytest.raises(ValueError):
        FixedPointConfig(l=200, f=24)
    with pytest.raises(ValueError):
        FixedPointConfig(l=32, f=0)


def test_default_ring_and_signed_reading():
    cfg = FixedPointConfig()
    assert (cfg.l, cfg.f, cfg.max_magnitude) == (128, 64, 2.0**63)
    ring = encoding.matrix_encode_fixed([[-1.0, 0.5, -(2.0**-64), 0.0]], cfg)
    signed = encoding.matrix_signed(ring, cfg)
    assert signed.tolist() == [[-(2**64), 2**63, -1, 0]]
    assert np.array_equal(signed % cfg.modulus, ring)


def test_decode_fixed_rejects_out_of_ring():
    with pytest.raises(ValueError):
        decode_fixed(CFG.modulus, CFG)


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
        encoding.matrix_decode_fixed(encoding.matrix_encode_fixed(zeros, CFG), CFG),
        zeros,
    )
    dyadic = np.array([[0.5, -0.25], [3.75, -8.0]])
    assert np.array_equal(
        encoding.matrix_decode_fixed(encoding.matrix_encode_fixed(dyadic, CFG), CFG),
        dyadic,
    )


def test_matrix_fixed_round_trip_bound():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(11, 11)) * 50
    back = encoding.matrix_decode_fixed(encoding.matrix_encode_fixed(x, CFG), CFG)
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
                encoding.matrix_encode_fixed([[x]], cfg)
    assert len(encodable) > 150
    got = encoding.matrix_encode_fixed(np.array([x for x, _ in encodable]).reshape(1, -1), cfg)
    assert got.shape == (1, len(encodable))
    assert got.ravel().tolist() == [z for _, z in encodable]
    assert all(type(z) is int for z in got.ravel())


def test_matrix_errors_carry_location():
    bad = np.array([[1.0, 2.0], [3.0, float(2**45)]])
    with pytest.raises(EncodingRangeError, match=r"\(1, 1\)"):
        encoding.matrix_encode_fixed(bad, CFG)
