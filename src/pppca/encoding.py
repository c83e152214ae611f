"""Reversible numeric encodings bridging real matrices to crypto domains.

Both secure-sum back ends carry reals as fixed point over the ring
Z_{2^l} (two's complement), computed on whole arrays: ring elements are
ring matrices of two uint64 limbs each (:mod:`pppca.ring`), so one code
path serves every width up to 128 bits, and both the rounding into the
ring and the rounding back out are exact binary64 arithmetic.  Secret
sharing shares the ring elements.  Homomorphic encryption flips bit l-1 of
each, which gives round(x * 2^f) + 2^(l-1) in [0, 2^l), encrypts those as
Python ints, and converts the reduced decrypted sum back into limbs.

Both protocols only ever ADD encoded values, so the encoding needs no
truncation step; every multiplication in the pipeline is local plaintext.

Neither back end calls the base-16 significand/exponent encoding below
(:func:`encode_float`); it stays while perfbench/spans.py wraps it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ring
from .errors import EncodingRangeError

# |x| < 2^63, and every binary64 value of magnitude at least 2^-12 encodes
# exactly.
DEFAULT_RING_BITS = 128
DEFAULT_FRACTIONAL_BITS = 64
DEFAULT_FLOAT_BASE = 16
# 14 base-16 digits carry 56 bits of significand, more than a binary64
# mantissa, so round-trips through the default float encoding are exact.
DEFAULT_FLOAT_PRECISION = 14


@dataclass(frozen=True)
class FixedPointConfig:
    """Parameters of the two's-complement ring encoding.

    ``l`` is the ring width in bits, ``f`` the number of fractional bits.
    Values must satisfy |x| < 2^(l - f - 1); one bit is reserved for sign.
    """

    l: int = DEFAULT_RING_BITS
    f: int = DEFAULT_FRACTIONAL_BITS

    def __post_init__(self):
        for name in ("l", "f"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 0 < self.f < self.l <= 128:
            raise ValueError(
                f"need 0 < f < l <= 128, got l={self.l}, f={self.f}"
            )

    @property
    def modulus(self) -> int:
        return 1 << self.l

    @property
    def scale(self) -> int:
        return 1 << self.f

    @property
    def max_magnitude(self) -> float:
        """Exclusive bound on |x| for encodable reals."""
        return float(2 ** (self.l - self.f - 1))


def matrix_encode_fixed(x, cfg: FixedPointConfig) -> np.ndarray:
    """Map a real matrix to Z_{2^l}: round(x * 2^f) in two's complement.

    Returns a ring matrix of [hi, lo] limbs (see :mod:`pppca.ring`).
    Scaling by 2^f is exact in binary64, and so is y - trunc(y), so rounding
    halves away from zero is exact too; so is the split of |round(x * 2^f)|
    into limbs, since its low 64 bits are a multiple of its ulp.  Overflow is
    detected eagerly: a non-finite value, or one at or past the
    representable bound, raises ``EncodingRangeError`` naming the first bad
    (r, c) rather than wrapping silently.
    """
    a = np.atleast_2d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        y = a * float(cfg.scale)
        t = np.trunc(y)
        rounded = t + np.copysign(np.abs(y - t) >= 0.5, y)
        bad = ~(np.abs(rounded) < 2.0 ** (cfg.l - 1))  # NaN is bad too
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise EncodingRangeError(
            f"fixed-point encode failed at ({r}, {c}): {float(a[r, c])!r} is not finite, "
            f"or not below 2^{cfg.l - cfg.f - 1} once rounded to the signed {cfg.l}-bit range"
        )
    magnitude = np.abs(rounded)
    hi = np.floor(magnitude * 2.0**-64)
    z = np.stack([hi, magnitude - hi * 2.0**64], axis=-1).astype(np.uint64)
    negative = rounded < 0
    if negative.any():
        z = np.where(negative[..., None], ring.sub(np.zeros_like(z), z, l=cfg.l), z)
    return z


def matrix_decode_fixed(z, cfg: FixedPointConfig) -> np.ndarray:
    """Inverse of :func:`matrix_encode_fixed`; z >= 2^(l-1) is negative.

    Each value is z / 2^f correctly rounded, as Python's ``int / int``
    gives it.  The magnitude m is shifted right by s bits, so that it fits
    one 64-bit word with at least 63 significant bits, and a sticky bit
    records whether anything fell off: rounding that word to binary64 then
    rounds m / 2^s, and scaling by 2^(s - f) is exact.  (numpy shifts a
    uint64 by 64 to 0, which the cases s = 0 and s = 64 rely on.)
    """
    z = ring.checked(z, cfg.l, "fixed-point decode failed: ring element")
    negative = (z[..., 0] if cfg.l > 64 else z[..., 1]) >> np.uint64((cfg.l - 1) % 64) == 1
    m = np.where(negative[..., None], ring.sub(np.zeros_like(z), z, l=cfg.l), z)
    hi, lo = m[..., 0], m[..., 1]
    # s is bitlen(hi) or one more: float(hi) may round up to a power of two.
    s = np.minimum(np.frexp(hi.astype(np.float64))[1], 64).astype(np.uint64)
    top = (hi << (64 - s)) | (lo >> s) | ((lo << (64 - s)) != 0)
    # int32 exponents keep np.ldexp on its vector loop, not a libm call per entry.
    value = np.ldexp(top.astype(np.float64), s.astype(np.int32) - cfg.f)
    return np.where(negative, -value, value)


@dataclass(frozen=True)
class EncodedFloat:
    """A number as significand * base^exponent.

    The significand is a plaintext int, or an encrypted one, which
    :meth:`decode` refuses; the exponent is always plaintext.
    """

    significand: object
    exponent: int
    base: int = DEFAULT_FLOAT_BASE

    @property
    def is_plain(self) -> bool:
        return isinstance(self.significand, int)

    def decode(self) -> float:
        if not self.is_plain:
            raise TypeError("cannot decode an encrypted significand")
        return float(Fraction(self.significand) * Fraction(self.base) ** self.exponent)


def encode_float(
    x: float,
    base: int = DEFAULT_FLOAT_BASE,
    precision: int = DEFAULT_FLOAT_PRECISION,
) -> EncodedFloat:
    """Encode a finite real with ``precision`` base-``base`` digits.

    Relative round-trip error is below base^(1 - precision); the default
    precision makes the round-trip exact for binary64 inputs.
    """
    if not math.isfinite(x):
        raise EncodingRangeError(f"cannot encode non-finite value {x!r}")
    if x == 0.0:
        return EncodedFloat(0, 0, base)
    mag = Fraction(abs(x))
    # floor(log_base |x|) via a float guess corrected by exact comparison.
    e = math.floor(math.log(abs(x), base))
    while Fraction(base) ** e > mag:
        e -= 1
    while Fraction(base) ** (e + 1) <= mag:
        e += 1
    exponent = e - (precision - 1)
    # Round to nearest, halves away from zero.
    magnitude = math.floor(mag / Fraction(base) ** exponent + Fraction(1, 2))
    return EncodedFloat(magnitude if x > 0 else -magnitude, exponent, base)
