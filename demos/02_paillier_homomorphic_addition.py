"""Additive homomorphic encryption in action.

Adding two ciphertexts (multiplying them, really) yields an encryption of
the plaintext sum, and nobody without the private key learns the operands.
Matrices of fixed-point reals work the same way, many entries to one
ciphertext: each entry gets its own w-bit slot of the plaintext, and the
slots add independently.
"""

import random

import numpy as np

from pppca import paillier, secure_sum_he
from pppca.encoding import FixedPointConfig

rng = random.Random(42)
pk, sk = paillier.keygen(2048, rng)  # the session default
print(f"generated a {pk.n.bit_length()}-bit key, fingerprint {pk.fingerprint}")

u, v = 1234, 8766
cu = paillier.encrypt(pk, u, rng)
cv = paillier.encrypt(pk, v, rng)
print(f"\nencrypt({u})  -> {str(cu.value)[:40]}...")
print(f"encrypt({v})  -> {str(cv.value)[:40]}...")

total = paillier.add_cipher(pk, cu, cv)
print(f"sum ciphertext -> {str(total.value)[:40]}...")
print(f"decrypt(sum)   =  {paillier.decrypt(sk, total)}   (expected {u + v})")

# Encryption is probabilistic: the same plaintext never repeats on the wire.
again = paillier.encrypt(pk, u, rng)
print(f"\nsame plaintext, fresh randomness: ciphertexts differ -> {cu.value != again.value}")

# The same machinery lifted to real-valued matrices, the way the protocol
# does it for M = 2 providers (secure_sum_he runs a session's round as plain
# calls).  Reals become fixed-point elements of the ring Z_2^l; flipping
# the top bit of each turns the signed z = round(x * 2^f) into z + 2^(l-1)
# in [0, 2^l), and those are packed into slots of w = l + ceil(log2 M) + 1
# bits, so that the sum of M entries never carries into the next slot.  The
# server subtracts M * 2^(l-1) from each decrypted slot, reduces into the
# ring and decodes.
cfg = FixedPointConfig()
parties = 2
w = cfg.l + (parties - 1).bit_length() + 1
nprng = np.random.default_rng(7)
a = nprng.normal(size=(3, 3)).round(3)
b = nprng.normal(size=(3, 3)).round(3)

summed = secure_sum_he([a, b], pk, sk, rng, cfg)
slots = paillier.slot_count(pk, w)
print(
    f"\na 3x3 matrix in {w}-bit slots, {slots} to a plaintext: "
    f"{-(-a.size // slots)} ciphertext per provider for its {a.size} entries"
)
print(f"matrix A + matrix B through the ciphertext domain (l={cfg.l}, f={cfg.f}):")
print(np.array_str(summed, precision=3))
print("max deviation from plaintext sum:", np.max(np.abs(summed - (a + b))))
