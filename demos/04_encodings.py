"""The fixed-point encoding that carries real numbers into the crypto domains.

Both secure sums work on integers, so reals become fixed-point elements of
the ring Z_{2^l}: round(x * 2^f) in two's complement.  Secret sharing splits
the ring elements into shares; homomorphic encryption flips their top bit,
which offsets the signed reading by 2^(l-1), packs the results into
plaintext slots and reduces each decrypted slot sum back into the ring
(demo 02).  Either way the sum of encodings decodes to the sum of the
reals, which is the only operation the protocol ever performs remotely.
"""

import numpy as np

from pppca import ring
from pppca.encoding import FixedPointConfig, matrix_decode_fixed, matrix_encode_fixed

cfg = FixedPointConfig()  # 128-bit ring, 64 fractional bits
print(f"fixed point: l={cfg.l}, f={cfg.f}, |x| < 2^{cfg.l - cfg.f - 1}")

xs = [0.0, 1.5, -1.0, 3.141592653589793, -271.828]
encoded = matrix_encode_fixed([xs], cfg)
for x, z, back in zip(xs, ring.to_ints(encoded)[0], matrix_decode_fixed(encoded, cfg)[0]):
    print(f"  {x:>12.6f} -> {z:>39d} -> {back:>12.6f}  (err {abs(back - x):.1e})")

# Fewer fractional bits round more: the earlier 64-bit default kept 24.
narrow = FixedPointConfig(l=64, f=24)
x = 0.1
for c in (narrow, cfg):
    err = abs(matrix_decode_fixed(matrix_encode_fixed([[x]], c), c)[0, 0] - x)
    print(f"  l={c.l:>3}, f={c.f:>2}: {x} round-trips with error {err:.1e}")

# Whole matrices encode in one call, into a ring matrix: a uint64 array of
# shape (rows, cols, 2) holding each element as its limbs [hi, lo], so that
# ring arithmetic is wrapping machine arithmetic with a carry between limbs.
# Addition in the ring is addition of the encoded reals.
m = np.array([[-1.0, 2.0], [0.5, -0.25]])
z = matrix_encode_fixed(m, cfg)
print(f"\nmatrix {m.tolist()}")
print(f"  limbs {z.shape} {z.dtype}: {z.tolist()}")
print(f"  as ring elements: {ring.to_ints(z).tolist()}")
n = np.array([[0.25, -2.0], [1.0, 1.0]])
total = ring.add(z, matrix_encode_fixed(n, cfg), l=cfg.l)
assert np.array_equal(matrix_decode_fixed(total, cfg), m + n)
print(f"  plus the encoding of {n.tolist()} decodes to {matrix_decode_fixed(total, cfg).tolist()}")

# Paillier encrypts each element with its top bit, l - 1, flipped: that is
# the signed reading round(x * 2^f) plus 2^(l-1), in [0, 2^l).  Encrypting
# the ring elements themselves would add 2^l to a decrypted slot for every
# negative term, so the server could count them.
half = 1 << (cfg.l - 1)
signed = ring.to_ints(z ^ ring.from_ints(half)) - half
print(f"  signed reading, from the top-bit flip: {signed.tolist()}")
assert np.array_equal(matrix_decode_fixed(ring.from_ints(signed % cfg.modulus), cfg), m)
print("  signed reading mod 2^l decodes back to the matrix")
