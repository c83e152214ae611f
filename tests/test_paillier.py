import random

import numpy as np
import pytest

from pppca import paillier
from pppca.errors import EncodingRangeError, KeyMismatchError


def test_keygen_round_trip(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(1)
    for _ in range(100):
        m = rng.randrange(pk.n)
        assert paillier.decrypt(sk, paillier.encrypt(pk, m, rng)) == m


def test_keygen_boundaries(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(2)
    assert paillier.decrypt(sk, paillier.encrypt(pk, 0, rng)) == 0
    assert paillier.decrypt(sk, paillier.encrypt(pk, pk.n - 1, rng)) == pk.n - 1


def test_keygen_rejects_sizes():
    with pytest.raises(ValueError):
        paillier.keygen(512)  # test keys need the explicit flag
    with pytest.raises(ValueError):
        paillier.keygen(768)


def test_keygen_key_length(test_keypair):
    pk, _ = test_keypair
    assert pk.n.bit_length() == 512
    assert pk.g == pk.n + 1
    assert pk.n_squared == pk.n * pk.n


def test_keygen_deterministic_from_seed():
    a = paillier.keygen(512, random.Random(5), allow_test_key=True)
    b = paillier.keygen(512, random.Random(5), allow_test_key=True)
    assert a[0].n == b[0].n


def test_encrypt_is_probabilistic(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(3)
    seen = {paillier.encrypt(pk, 0, rng).value for _ in range(100)}
    assert len(seen) == 100


def test_fixed_base_power_matches_builtin_pow(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(18)
    base = rng.randrange(2, pk.n_squared)
    table = paillier._FixedBase(base, 256, pk.n_squared)
    edges = [0, 1, 63, 64, (1 << 256) - 1]
    for x in edges + [rng.getrandbits(256) for _ in range(20)]:
        assert table.pow(x) == pow(base, x, pk.n_squared)
    with pytest.raises(ValueError):
        table.pow(1 << 256)


def test_encrypt_range_check(test_keypair):
    pk, _ = test_keypair
    with pytest.raises(ValueError):
        paillier.encrypt(pk, pk.n, random.Random(4))
    with pytest.raises(ValueError):
        paillier.encrypt(pk, -1, random.Random(4))


def test_decrypt_key_mismatch(test_keypair):
    pk, _ = test_keypair
    other_pk, other_sk = paillier.keygen(512, random.Random(77), allow_test_key=True)
    c = paillier.encrypt(pk, 42, random.Random(5))
    with pytest.raises(KeyMismatchError):
        paillier.decrypt(other_sk, c)
    with pytest.raises(KeyMismatchError):
        paillier.add_cipher(other_pk, c, c)


def test_homomorphic_addition_small_exhaustive(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(6)
    for u in range(0, 50, 7):
        for v in range(0, 50, 7):
            total = paillier.add_cipher(
                pk, paillier.encrypt(pk, u, rng), paillier.encrypt(pk, v, rng)
            )
            assert paillier.decrypt(sk, total) == (u + v) % pk.n


def test_homomorphic_addition_random_large(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(7)
    for _ in range(50):
        u, v = rng.randrange(pk.n), rng.randrange(pk.n)
        total = paillier.add_cipher(
            pk, paillier.encrypt(pk, u, rng), paillier.encrypt(pk, v, rng)
        )
        assert paillier.decrypt(sk, total) == (u + v) % pk.n


def test_add_identity_and_fold(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(8)
    c = paillier.encrypt(pk, 123456, rng)
    zero = paillier.encrypt(pk, 0, rng)
    assert paillier.decrypt(sk, paillier.add_cipher(pk, c, zero)) == 123456

    values = [rng.randrange(pk.n) for _ in range(8)]
    folded = paillier.encrypt(pk, values[0], rng)
    for v in values[1:]:
        folded = paillier.add_cipher(pk, folded, paillier.encrypt(pk, v, rng))
    assert paillier.decrypt(sk, folded) == sum(values) % pk.n


def test_add_commutative_associative(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(9)
    a, b, c = (paillier.encrypt(pk, rng.randrange(1000), rng) for _ in range(3))
    ab_c = paillier.add_cipher(pk, paillier.add_cipher(pk, a, b), c)
    a_bc = paillier.add_cipher(pk, a, paillier.add_cipher(pk, b, c))
    ba = paillier.add_cipher(pk, b, a)
    ab = paillier.add_cipher(pk, a, b)
    assert paillier.decrypt(sk, ab_c) == paillier.decrypt(sk, a_bc)
    assert paillier.decrypt(sk, ab) == paillier.decrypt(sk, ba)


def test_mul_plain_cases(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(10)
    c = paillier.encrypt(pk, 321, rng)
    assert paillier.decrypt(sk, paillier.mul_plain(pk, c, 1)) == 321
    assert paillier.decrypt(sk, paillier.mul_plain(pk, c, 0)) == 0
    for _ in range(25):
        u, s = rng.randrange(pk.n), rng.randrange(1 << 64)
        cu = paillier.encrypt(pk, u, rng)
        assert paillier.decrypt(sk, paillier.mul_plain(pk, cu, s)) == (u * s) % pk.n
    with pytest.raises(ValueError):
        paillier.mul_plain(pk, c, -2)


def test_mul_plain_equals_repeated_addition(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(11)
    u = rng.randrange(10**9)
    c = paillier.encrypt(pk, u, rng)
    for s in range(1, 17):
        repeated = c
        for _ in range(s - 1):
            repeated = paillier.add_cipher(pk, repeated, c)
        assert paillier.decrypt(sk, paillier.mul_plain(pk, c, s)) == paillier.decrypt(
            sk, repeated
        )


def test_signed_mapping(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(12)
    for m in (-1, 1, -(10**12), 10**12, 0):
        c = paillier.encrypt(pk, paillier.encode_signed(pk, m), rng)
        assert paillier.decode_signed(pk, paillier.decrypt(sk, c)) == m
    with pytest.raises(EncodingRangeError):
        paillier.encode_signed(pk, pk.n // 2 + 1)


# --- encrypted matrices -----------------------------------------------------


def test_enc_matrix_add_zero_round_trip(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(13)
    a = np.array([[5, -2**100], [3, 2**127 - 1]], dtype=object)
    enc_a = paillier.enc_matrix(pk, a, rng)
    enc_zero = paillier.enc_matrix(pk, np.zeros((2, 2), dtype=int), rng)
    back = paillier.dec_matrix(sk, paillier.add_enc_matrix(pk, enc_a, enc_zero))
    assert back.shape == (2, 2) and np.array_equal(back, a)
    assert all(type(v) is int for v in back.flat)


def test_enc_matrix_hand_sum(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(14)
    a = [[1, 2], [3, 4]]
    b = [[5, -6], [-7, 8]]
    total = paillier.add_enc_matrix(
        pk, paillier.enc_matrix(pk, a, rng), paillier.enc_matrix(pk, b, rng)
    )
    assert all(isinstance(c, paillier.Ciphertext) for c in total.flat)
    assert paillier.dec_matrix(sk, total).tolist() == [[6, -4], [-4, 12]]


def test_enc_matrix_sum_of_four_matches_plaintext(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(15)
    mats = [
        np.array([[rng.randrange(-2**126, 2**126) for _ in range(11)] for _ in range(11)])
        for _ in range(4)
    ]
    agg = paillier.enc_matrix(pk, mats[0], rng)
    for m in mats[1:]:
        agg = paillier.add_enc_matrix(pk, agg, paillier.enc_matrix(pk, m, rng))
    assert np.array_equal(paillier.dec_matrix(sk, agg), sum(mats))


def test_enc_matrix_shape_mismatch(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(16)
    for other in ((2, 3), (1, 2)):  # including a shape numpy would broadcast
        with pytest.raises(ValueError):
            paillier.add_enc_matrix(
                pk,
                paillier.enc_matrix(pk, np.ones((2, 2), dtype=int), rng),
                paillier.enc_matrix(pk, np.ones(other, dtype=int), rng),
            )
