"""Reversible numeric encodings bridging real matrices to crypto domains.

Two encodings live here:

* fixed point over the ring Z_{2^l} (two's complement) for secret sharing,
  computed on whole arrays: ring elements are Python ints in 2-D object
  arrays, so one code path serves every width up to 128 bits, and the
  rounding is exact binary64 arithmetic;
* base-B significand/exponent pairs for homomorphic encryption, where the
  significand may be a plaintext integer or a ciphertext object supporting
  multiplication by a non-negative int.

Both protocols only ever ADD encoded values, so neither encoding needs a
truncation step; every multiplication in the pipeline is local plaintext.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, EncodingRangeError

DEFAULT_RING_BITS = 64
DEFAULT_FRACTIONAL_BITS = 24
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
    signed = np.where(z >= 1 << (cfg.l - 1), z - cfg.modulus, z)
    # Python's int / int rounds once, correctly.
    return (signed / cfg.scale).astype(float)


def encode_fixed(x: float, cfg: FixedPointConfig) -> int:
    """One real through :func:`matrix_encode_fixed`."""
    return int(matrix_encode_fixed([[x]], cfg)[0, 0])


def decode_fixed(z: int, cfg: FixedPointConfig) -> float:
    """One ring element through :func:`matrix_decode_fixed`."""
    return float(matrix_decode_fixed([[z]], cfg)[0, 0])


@dataclass(frozen=True)
class FloatEncodingConfig:
    base: int = DEFAULT_FLOAT_BASE
    precision: int = DEFAULT_FLOAT_PRECISION

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")


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


def align_exponents(
    a: EncodedFloat, b: EncodedFloat, max_significand: int | None = None
) -> tuple[EncodedFloat, EncodedFloat]:
    """Rescale the larger-exponent operand so both share one exponent.

    Multiplying a significand by base^delta and lowering the exponent keeps
    the decoded value unchanged, and works on ciphertext significands because
    scalar multiplication is homomorphic.  ``max_significand``, when given,
    bounds the scaled plaintext significand (ciphertext magnitudes cannot be
    inspected, so their overflow guard lives in the scalar-multiply itself).
    """
    if a.base != b.base:
        raise ValueError(f"mixed encoding bases {a.base} and {b.base}")
    if a.exponent == b.exponent:
        return a, b
    if a.exponent > b.exponent:
        return _shift_to(a, b.exponent, max_significand), b
    return a, _shift_to(b, a.exponent, max_significand)


def _shift_to(
    enc: EncodedFloat, exponent: int, max_significand: int | None
) -> EncodedFloat:
    factor = enc.base ** (enc.exponent - exponent)
    scaled = enc.significand * factor
    if max_significand is not None and isinstance(scaled, int):
        if abs(scaled) >= max_significand:
            raise EncodingRangeError(
                f"exponent alignment by base^{enc.exponent - exponent} "
                f"overflows the plaintext bound"
            )
    return EncodedFloat(scaled, exponent, enc.base)


def matrix_shape(matrix) -> tuple[int, int]:
    rows = len(matrix)
    if rows == 0:
        raise DimensionError("matrix has no rows")
    cols = len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise DimensionError("ragged matrix")
    return rows, cols
