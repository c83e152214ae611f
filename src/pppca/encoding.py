"""Reversible numeric encodings bridging real matrices to crypto domains.

Both secure-sum back ends carry reals as fixed point over the ring
Z_{2^l} (two's complement), computed on whole arrays: ring elements are
Python ints in 2-D object arrays, so one code path serves every width up to
128 bits, and the rounding is exact binary64 arithmetic.  Secret sharing
shares the ring elements; homomorphic encryption encrypts their signed
reading round(x * 2^f) and reduces the decrypted sum back into the ring.

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

    Returns a 2-D object array of Python ints.  Scaling by 2^f is exact in
    binary64, and so is y - trunc(y), so rounding halves away from zero is
    exact too.  Overflow is detected eagerly: a non-finite value, or one at
    or past the representable bound, raises ``EncodingRangeError`` naming
    the first bad (r, c) rather than wrapping silently.
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
    return np.frompyfunc(int, 1, 1)(rounded) % cfg.modulus  # exact Python ints


def matrix_decode_fixed(z, cfg: FixedPointConfig) -> np.ndarray:
    """Inverse of :func:`matrix_encode_fixed`; z >= 2^(l-1) is negative."""
    z = np.atleast_2d(np.asarray(z, dtype=object))
    if np.count_nonzero(z >> cfg.l):  # 0 exactly for ints in [0, 2^l)
        r, c = np.argwhere(z >> cfg.l)[0]
        raise ValueError(
            f"fixed-point decode failed at ({r}, {c}): ring element {z[r, c]} "
            f"outside [0, 2^{cfg.l})"
        )
    # Python's int / int rounds once, correctly.
    return (matrix_signed(z, cfg) / cfg.scale).astype(float)


def matrix_signed(z, cfg: FixedPointConfig) -> np.ndarray:
    """Two's-complement reading of ring elements: z >= 2^(l-1) is negative."""
    return np.where(z >= 1 << (cfg.l - 1), z - cfg.modulus, z)


def encode_fixed(x: float, cfg: FixedPointConfig) -> int:
    """One real through :func:`matrix_encode_fixed`."""
    return int(matrix_encode_fixed([[x]], cfg)[0, 0])


def decode_fixed(z: int, cfg: FixedPointConfig) -> float:
    """One ring element through :func:`matrix_decode_fixed`."""
    return float(matrix_decode_fixed([[z]], cfg)[0, 0])


@dataclass(frozen=True)
class EncodedFloat:
    """A number as significand * base^exponent.

    The significand is either a plaintext int or a ciphertext object that
    supports ``cipher * int``; the exponent is always plaintext.
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
