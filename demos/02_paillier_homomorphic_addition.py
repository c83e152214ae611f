"""Additive homomorphic encryption in action.

Adding two ciphertexts (multiplying them, really) yields an encryption of
the plaintext sum, and nobody without the private key learns the operands.
Matrices of fixed-point reals work the same way, many entries to one
ciphertext: each entry gets its own w-bit slot of the plaintext, and the
slots add independently.
"""

import random

import numpy as np

from pppca import paillier, ring
from pppca.encoding import (
    FixedPointConfig,
    matrix_decode_fixed,
    matrix_encode_fixed,
    matrix_signed,
)

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

# Scalar multiplication: c^s decrypts to s * u.
tripled = paillier.mul_plain(pk, cu, 3)
print(f"3 * encrypt({u}) decrypts to {paillier.decrypt(sk, tripled)}")

# The same machinery lifted to real-valued matrices, the way the protocol
# does it for M = 2 providers: reals become signed fixed-point integers
# z = round(x * 2^f), offset by 2^(l-1) into [0, 2^l), and packed into slots
# of w = l + ceil(log2 M) + 1 bits, so that the sum of M offset entries never
# carries into the next slot.  The server subtracts M * 2^(l-1) from each
# decrypted slot, reduces into the ring Z_2^l and decodes.  The ring
# elements are [hi, lo] uint64 limbs; Paillier needs Python ints, so the
# conversion happens at each end (matrix_signed, ring.from_ints).
cfg = FixedPointConfig()
parties = 2
offset = 1 << (cfg.l - 1)
w = cfg.l + (parties - 1).bit_length() + 1
nprng = np.random.default_rng(7)
a = nprng.normal(size=(3, 3)).round(3)
b = nprng.normal(size=(3, 3)).round(3)


def encrypt_reals(x):
    z = matrix_signed(matrix_encode_fixed(x, cfg), cfg)
    return paillier.enc_matrix(pk, z + offset, w, rng)


enc_sum = paillier.add_enc_matrix(pk, encrypt_reals(a), encrypt_reals(b))
slots = paillier.dec_matrix(sk, enc_sum)
decrypted = matrix_decode_fixed(ring.from_ints((slots - parties * offset) % cfg.modulus), cfg)
print(
    f"\na 3x3 matrix in {w}-bit slots, {paillier.slot_count(pk, w)} to a plaintext: "
    f"{len(enc_sum.ciphers)} ciphertext for its {a.size} entries"
)
print(f"matrix A + matrix B through the ciphertext domain (l={cfg.l}, f={cfg.f}):")
print(np.array_str(decrypted, precision=3))
print("max deviation from plaintext sum:", np.max(np.abs(decrypted - (a + b))))
