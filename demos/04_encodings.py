"""The fixed-point encoding that carries real numbers into the crypto domains.

Both secure sums work on integers, so reals become fixed-point elements of
the ring Z_{2^l}: round(x * 2^f) in two's complement.  Secret sharing splits
the ring elements into shares; homomorphic encryption encrypts their signed
reading and reduces the decrypted sum back into the ring.  Either way the
sum of encodings decodes to the sum of the reals, which is the only
operation the protocol ever performs remotely.
"""

import numpy as np

from pppca.encoding import (
    FixedPointConfig,
    decode_fixed,
    encode_fixed,
    matrix_decode_fixed,
    matrix_encode_fixed,
    matrix_signed,
)

cfg = FixedPointConfig()  # 128-bit ring, 64 fractional bits
print(f"fixed point: l={cfg.l}, f={cfg.f}, |x| < 2^{cfg.l - cfg.f - 1}")

for x in (0.0, 1.5, -1.0, 3.141592653589793, -271.828):
    z = encode_fixed(x, cfg)
    back = decode_fixed(z, cfg)
    print(f"  {x:>12.6f} -> {z:>39d} -> {back:>12.6f}  (err {abs(back - x):.1e})")

# Addition in the ring is addition of the encoded reals.
a, b = 12.75, -3.125
za, zb = encode_fixed(a, cfg), encode_fixed(b, cfg)
summed = decode_fixed((za + zb) % cfg.modulus, cfg)
print(f"\nring addition: {a} + {b} via Z_2^{cfg.l} = {summed}")

# Fewer fractional bits round more: the earlier 64-bit default kept 24.
narrow = FixedPointConfig(l=64, f=24)
x = 0.1
for c in (narrow, cfg):
    err = abs(decode_fixed(encode_fixed(x, c), c) - x)
    print(f"  l={c.l:>3}, f={c.f:>2}: {x} round-trips with error {err:.1e}")

# Whole matrices encode in one call; the signed reading is what Paillier
# encrypts.  Encrypting the ring elements themselves would add 2^l to the
# decrypted sum for every negative term, so the server could count them.
m = np.array([[-1.0, 2.0], [0.5, -0.25]])
ring = matrix_encode_fixed(m, cfg)
signed = matrix_signed(ring, cfg)
print(f"\nmatrix {m.tolist()}")
print(f"  ring elements:  {ring.tolist()}")
print(f"  signed reading: {signed.tolist()}")
assert np.array_equal(matrix_decode_fixed(signed % cfg.modulus, cfg), m)
print("  signed reading mod 2^l decodes back to the matrix")
