"""Additive homomorphic encryption in action.

Adding two ciphertexts (multiplying them, really) yields an encryption of
the plaintext sum, and nobody without the private key learns the operands.
Matrices of fixed-point reals work the same way, element by element.
"""

import random

import numpy as np

from pppca import paillier
from pppca.encoding import (
    FixedPointConfig,
    matrix_decode_fixed,
    matrix_encode_fixed,
    matrix_signed,
)

rng = random.Random(42)
pk, sk = paillier.keygen(512, rng, allow_test_key=True)  # small key: demo only
print(f"generated a {pk.n.bit_length()}-bit test key, fingerprint {pk.fingerprint}")

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
# does it: reals become signed fixed-point integers round(x * 2^f), those are
# encrypted element by element, and the decrypted sum is reduced into the
# ring Z_2^l and decoded.
cfg = FixedPointConfig()
nprng = np.random.default_rng(7)
a = nprng.normal(size=(3, 3)).round(3)
b = nprng.normal(size=(3, 3)).round(3)


def encrypt_reals(x):
    return paillier.enc_matrix(pk, matrix_signed(matrix_encode_fixed(x, cfg), cfg), rng)


enc_sum = paillier.add_enc_matrix(pk, encrypt_reals(a), encrypt_reals(b))
decrypted = matrix_decode_fixed(paillier.dec_matrix(sk, enc_sum) % cfg.modulus, cfg)
print(f"\nmatrix A + matrix B through the ciphertext domain (l={cfg.l}, f={cfg.f}):")
print(np.array_str(decrypted, precision=3))
print("max deviation from plaintext sum:", np.max(np.abs(decrypted - (a + b))))
