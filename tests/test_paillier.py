import collections
import ctypes
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pppca import paillier
from pppca.errors import EncodingRangeError, KeyMismatchError
from pppca.paillier import RANDOMIZER_CACHE_SIZE, RANDOMIZER_WINDOW

needs_gmp = pytest.mark.skipif(paillier._powmod is pow, reason="libgmp.so.10 did not load")


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
    assert pk.n_squared == pk.n * pk.n


def test_small_primes_match_trial_division():
    reference = [p for p in range(3, 2000) if all(p % q for q in range(2, p))]
    assert paillier._SMALL_PRIMES == reference
    assert len(paillier._SMALL_PRIMES) == 302 and paillier._SMALL_PRIMES[-1] == 1999


def test_miller_rabin_rounds_cover_every_key_size():
    # FIPS 186-4 Table C.3 (M-R tests only, 2^-100) for 512-, 1024- and
    # 1536-bit primes; HAC Table 4.4 (2^-80) for the test-only 256-bit ones.
    assert paillier.MILLER_RABIN_ROUNDS == {256: 12, 512: 7, 1024: 4, 1536: 3}
    assert {bits // 2 for bits in paillier.ALLOWED_KEY_BITS} == paillier.MILLER_RABIN_ROUNDS.keys()


@pytest.mark.parametrize("bits", [512, 1024, 2048])
def test_keygen_sets_top_two_bits_and_keeps_the_first_pair(bits, monkeypatch):
    drawn = []
    draw = paillier._random_prime

    def counted(prime_bits, rng):
        drawn.append(draw(prime_bits, rng))
        return drawn[-1]

    monkeypatch.setattr(paillier, "_random_prime", counted)
    pk, sk = paillier.keygen(bits, random.Random(bits), allow_test_key=True)
    assert drawn == [sk.p, sk.q]
    for prime in drawn:
        assert prime.bit_length() == bits // 2 and prime >> (bits // 2 - 2) == 0b11
    assert pk.n == sk.p * sk.q and pk.n.bit_length() == bits


def test_keygen_deterministic_from_seed():
    a = paillier.keygen(512, random.Random(5), allow_test_key=True)
    b = paillier.keygen(512, random.Random(5), allow_test_key=True)
    assert a[0].n == b[0].n


def test_is_probable_prime_matches_a_sieve_below_2_17():
    # Covers the primes above TRIAL_DIVISION_BOUND, which the small-prime
    # gcd cannot reject and the Fermat test must not call composite.
    limit = 1 << 17
    is_prime = np.ones(limit, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    rng = random.Random(17)
    wrong = [
        n for n in range(1, limit, 2)
        if paillier._is_probable_prime(n, rng, rounds=4) != is_prime[n]
    ]
    assert wrong == []


@pytest.mark.parametrize(
    "n",
    [
        341, 561, 1105, 2047, 1373653, 3215031751,  # base-2 pseudoprimes, Carmichael numbers
        65851 * 131701 * 197551,  # Carmichael, every factor above 2^16
    ],
)
def test_is_probable_prime_rejects_pseudoprimes(n):
    assert pow(2, n - 1, n) == 1
    assert not paillier._is_probable_prime(n, random.Random(n), rounds=12)


def test_seeded_keys_are_pinned(test_keypair, test_keypair_1024):
    # The composite filters must not change which candidates are drawn, so
    # seeded keys, and the transcripts built on them, stay as they were.  A
    # skipped witness draw shifts the stream by one candidate-sized word,
    # which changes the key only if that word, read as a candidate, is
    # prime: of the seeds below, only session seed 1 and Random(5) catch it.
    from pppca.protocol import _derived_seed

    for session_seed, fingerprint in ((0, "dacc5c77ac2e3951"), (1, "1b0ed6fec52a624c")):
        pk, _ = paillier.keygen(2048, random.Random(_derived_seed(session_seed, "keygen")))
        assert pk.fingerprint == fingerprint
    pk, _ = paillier.keygen(512, random.Random(5), allow_test_key=True)
    assert pk.fingerprint == "396acbe6ead0d279"
    assert test_keypair[0].fingerprint == "6ee8f670b3a7358a"
    assert test_keypair_1024[0].fingerprint == "b757cd7628e54044"


@needs_gmp
def test_seeded_keys_are_pinned_under_the_builtin_pow(builtin_kernel):
    # The same pins as above with every exponentiation on the fallback, so
    # both kernels are held to the same keys.
    test_seeded_keys_are_pinned(
        paillier.keygen(512, random.Random(0xFEED), allow_test_key=True),
        paillier.keygen(1024, random.Random(0xBEEF)),
    )


@needs_gmp
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    base=st.integers(-(1 << 4096), 1 << 4096),
    exp=st.integers(0, 1 << 1024),
    mod=st.integers(1, 1 << 4096),
)
@example(base=12345, exp=0, mod=1000003)  # exponent 0
@example(base=0, exp=0, mod=97)
@example(base=12345, exp=6789, mod=1)  # modulus 1
@example(base=0, exp=0, mod=1)
@example(base=0, exp=6789, mod=1000003)  # base 0
@example(base=1000003, exp=5, mod=1000003)  # base >= modulus
@example(base=(1 << 2100) + 3, exp=1 << 2048, mod=(1 << 2048) - 159)
@example(base=(1 << 4095) + 12345, exp=(1 << 2047) + 1, mod=(1 << 4096) - 1)  # h^n mod n^2
@example(base=-12345, exp=6789, mod=1000003)  # negative base
@example(base=-(1 << 3000), exp=3, mod=(1 << 2048) + 981)
@example(base=3, exp=-1, mod=7)  # negative exponent of an invertible base
def test_powmod_matches_builtin_pow(base, exp, mod):
    assert paillier._powmod(base, exp, mod) == pow(base, exp, mod)


@needs_gmp
def test_powmod_leaves_what_gmp_cannot_take_to_the_builtin_pow():
    # mpz_powm raises SIGFPE on these, which would kill the process, so the
    # check runs in a child: it must exit cleanly, with pow's ValueErrors.
    code = """
from pppca import paillier
for args in ((6, -1, 9), (3, 5, 0), (3, -1, 0), (0, -2, 7)):
    for power in (pow, paillier._powmod):
        try:
            power(*args)
        except ValueError as exc:
            print(exc)
"""
    lines = _run_child(code)
    assert len(lines) == 8 and lines[0::2] == lines[1::2]


def _run_child(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter that imports this
    ``pppca``; the child must exit cleanly."""
    path = [str(Path(paillier.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_kernel_names_what_runs_the_powers_and_the_tables(test_keypair):
    table = paillier._randomizer_table(test_keypair[0])
    if paillier.KERNEL == "libgmp":
        assert paillier._powmod == paillier._gmp.powmod
        assert type(table) is paillier._FixedBase and table.gmp is paillier._gmp
    else:
        assert paillier.KERNEL == "builtin"
        assert paillier._powmod is pow and paillier._gmp is None
        assert type(table) is paillier._FixedBase and table.gmp is None


def test_kernel_is_the_builtin_pow_when_libgmp_does_not_load():
    code = """
import ctypes

def no_library(name, *args, **kwargs):
    raise OSError(f"{name}: cannot open shared object file")

ctypes.CDLL = no_library
from pppca import paillier
table = paillier._randomizer_table(paillier.PublicKey.from_modulus(1000003 * 1000033))
print(paillier.KERNEL, paillier._powmod is pow, paillier._gmp, type(table).__name__)
print(table.pow(12345) == pow(table.powers[0], 12345, table.mod))
"""
    assert _run_child(code) == ["builtin True None _FixedBase", "True"]


def test_keygen_spends_random_bases_only_on_primes(monkeypatch):
    calls = []
    powmod = paillier._powmod

    def counted(base, exp, mod):
        calls.append((base, exp))
        return powmod(base, exp, mod)

    monkeypatch.setattr(paillier, "_powmod", counted)
    paillier.keygen(1024, random.Random(0xBEEF))
    # Exponent 2 is a Miller-Rabin squaring step, base 2 the Fermat filter.
    random_bases = [call for call in calls if 2 not in call]
    assert len(random_bases) == 2 * paillier.MILLER_RABIN_ROUNDS[512]


def test_closed_form_hp_hq_match_the_l_function(test_keypair, test_keypair_1024):
    for _, sk in (test_keypair, test_keypair_1024):
        p, q, g = sk.p, sk.q, sk.public_key.n + 1
        assert sk.hp == pow(paillier._l_function(pow(g, p - 1, p * p), p), -1, p)
        assert sk.hq == pow(paillier._l_function(pow(g, q - 1, q * q), q), -1, q)
        assert sk.q_inv == pow(q, -1, p)


def test_encrypt_is_probabilistic(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(3)
    seen = {paillier.encrypt(pk, 0, rng).value for _ in range(100)}
    assert len(seen) == 100


def _kernels():
    """The randomizer-table kernels that can run here, by name."""
    yield "builtin", paillier._FixedBase
    if paillier._gmp is not None:
        yield "libgmp", lambda *args: paillier._FixedBase(*args, paillier._gmp)


def test_fixed_base_power_matches_builtin_pow(test_keypair):
    rng = random.Random(18)
    # A 512-bit key's n^2 with its 256-bit exponents, and a 2048-bit
    # modulus squared with the 1024-bit exponents of 2048-bit keys.
    big_n = rng.getrandbits(2048) | 1 << 2047 | 1
    for mod, bits in ((test_keypair[0].n_squared, 256), (big_n * big_n, 1024)):
        base = rng.randrange(2, mod)
        top = RANDOMIZER_WINDOW * (-(-bits // RANDOMIZER_WINDOW) - 1)  # the top window's shift
        edges = [
            0,
            1,
            63,
            64,
            (1 << top) - 1,  # every window below the top at digit 63
            (1 << bits) - 1,  # every window at its largest digit
            1 << top,  # only the top window set
            ((1 << bits) - 1) >> top << top,  # only the top window, at its largest digit
            1 << bits - 1,  # only the top bit
        ]
        xs = edges + [rng.getrandbits(bits) for _ in range(8)]
        expected = [pow(base, x, mod) for x in xs]
        for name, kernel in _kernels():
            table = kernel(base, bits, mod)
            assert [table.pow(x) for x in xs] == expected, name
            for x in (1 << bits, -1):
                with pytest.raises(ValueError):
                    table.pow(x)


@needs_gmp
def test_gmp_table_holds_the_int_tables_powers(test_keypair):
    # The GMP table is built by mpz_powm on its own, not converted from ints.
    gmp = paillier._gmp
    rng = random.Random(19)
    big_n = rng.getrandbits(2048) | 1 << 2047 | 1
    for mod, bits in ((test_keypair[0].n_squared, 256), (big_n * big_n, 1024)):
        base = rng.randrange(2, mod)
        int_table = paillier._FixedBase(base, bits, mod)
        gmp_table = paillier._FixedBase(base, bits, mod, gmp)
        assert len(int_table.powers) == -(-bits // RANDOMIZER_WINDOW)
        assert [gmp.to_int(z) for z in gmp_table.powers] == int_table.powers


@needs_gmp
def test_gmp_power_walks_two_accumulators(monkeypatch):
    # HAC 14.109: a multiplication into B per nonzero window but the first,
    # and one into A per digit below the top nonzero one; two mpz per call.
    gmp = paillier._gmp
    rng = random.Random(21)
    big_n = rng.getrandbits(2048) | 1 << 2047 | 1
    mod, bits = big_n * big_n, 1024
    table = paillier._FixedBase(rng.randrange(2, mod), bits, mod, gmp)
    counts = collections.Counter()
    for name in ("mul", "init"):
        monkeypatch.setattr(gmp, name, _counted(counts, name, getattr(gmp, name)))
    mask = (1 << RANDOMIZER_WINDOW) - 1
    for _ in range(4):
        x = rng.getrandbits(bits)
        digits = [x >> RANDOMIZER_WINDOW * i & mask for i in range(len(table.powers))]
        counts.clear()
        assert table.pow(x) == pow(gmp.to_int(table.powers[0]), x, mod)
        nonzero = sum(1 for d in digits if d)
        assert counts["mul"] == (nonzero - 1) + (max(digits) - 1)
        assert counts["mul"] <= (len(table.powers) - 1) + (2**RANDOMIZER_WINDOW - 2) == 232
        assert counts["init"] <= 3


def _counted(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)

    return counted


def test_concurrent_encryptions_equal_serial_ones(test_keypair_1024):
    # ctypes lets threads run GMP at once, so a scratch value shared
    # through the cached table would mix their ciphertexts.
    pk, _ = test_keypair_1024
    threads, plaintexts = 6, [0, 1, pk.n - 1, 2**200 + 7, 123456789]

    def encrypt_all(seed):
        rng = random.Random(seed)
        return [paillier.encrypt(pk, m, rng).value for m in plaintexts]

    serial = [encrypt_all(seed) for seed in range(threads)]
    start = threading.Barrier(threads)
    concurrent = [None] * threads

    def run(seed):
        start.wait(timeout=30)
        concurrent[seed] = encrypt_all(seed)

    workers = [threading.Thread(target=run, args=(seed,)) for seed in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert concurrent == serial


@needs_gmp
def test_gmp_tables_clear_every_mpz_they_init(monkeypatch):
    gmp = paillier._gmp
    paillier._randomizer_table_for.cache_clear()  # before the counting starts
    # inits keeps every mpz struct alive, so that no address is reused.
    live, inits = collections.Counter(), []
    init, clear = gmp.init, gmp.clear

    def counted_init(z):
        live[ctypes.addressof(z)] += 1
        inits.append(z)
        init(z)

    def counted_clear(z):
        live[ctypes.addressof(z)] -= 1
        clear(z)

    monkeypatch.setattr(gmp, "init", counted_init)
    monkeypatch.setattr(gmp, "clear", counted_clear)
    rng = random.Random(20)
    # The edge exponents of test_fixed_base_power_matches_builtin_pow, at
    # the 256-bit exponents of a 512-bit modulus: no window set, the lowest
    # digit 1, only the top window, every window below the top at digit 63,
    # and every window at its largest digit.
    bits = 256
    top = RANDOMIZER_WINDOW * (-(-bits // RANDOMIZER_WINDOW) - 1)
    edges = [0, 1, 1 << top, (1 << top) - 1, (1 << bits) - 1]
    for cached in range(1, 3 * RANDOMIZER_CACHE_SIZE + 1):
        pk = paillier.PublicKey.from_modulus(rng.getrandbits(512) | 1 << 511 | 1)
        table = paillier._randomizer_table(pk)
        assert table.gmp is gmp
        # Each cached table holds 43 powers (256-bit exponents, 6-bit
        # windows) and its modulus; the tables evicted so far are cleared
        # already, and every power clears the accumulators it made.
        held = min(cached, RANDOMIZER_CACHE_SIZE) * 44
        for x in edges:
            assert table.pow(x) == pow(gmp.to_int(table.powers[0]), x, pk.n_squared)
            assert sum(live.values()) == held
        paillier.encrypt(pk, 5, rng)
        assert sum(live.values()) == held

    # A power that fails with both accumulators made still clears them: digit
    # 63 makes B and then A, and digit 62's first multiplication raises.
    def failing_mul(*args):
        raise RuntimeError("mpz_mul failed")

    monkeypatch.setattr(gmp, "mul", failing_mul)
    with pytest.raises(RuntimeError, match="mpz_mul failed"):
        table.pow(63 | 62 << RANDOMIZER_WINDOW)
    assert sum(live.values()) == RANDOMIZER_CACHE_SIZE * 44
    del table
    paillier._randomizer_table_for.cache_clear()
    assert len(inits) > 3 * RANDOMIZER_CACHE_SIZE * 44
    assert set(live.values()) == {0}


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


# --- encrypted matrices -----------------------------------------------------

# The slot width of the default 128-bit ring at M = 2; a 512-bit key holds
# three such slots per plaintext.
W = 130


def test_slot_count(test_keypair, test_keypair_1024):
    assert paillier.slot_count(test_keypair[0], W) == 3
    assert paillier.slot_count(test_keypair_1024[0], W) == 7
    assert paillier.slot_count(test_keypair[0], 511) == 1
    assert paillier.slot_count(paillier.PublicKey.from_modulus(15), 1) == 3
    with pytest.raises(EncodingRangeError):
        paillier.slot_count(test_keypair[0], 512)


def test_enc_matrix_add_zero_round_trip(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(13)
    a = np.array([[5, 2**100], [3, 2**W - 1]], dtype=object)
    enc_a = paillier.enc_matrix(pk, a, W, rng)
    assert enc_a.shape == (2, 2) and len(enc_a.ciphers) == 2
    enc_zero = paillier.enc_matrix(pk, np.zeros((2, 2), dtype=int), W, rng)
    back = paillier.dec_matrix(sk, paillier.add_enc_matrix(pk, enc_a, enc_zero))
    assert back.shape == (2, 2) and np.array_equal(back, a)
    assert all(type(v) is int for v in back.flat)


def test_enc_matrix_hand_sum(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(14)
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    total = paillier.add_enc_matrix(
        pk, paillier.enc_matrix(pk, a, W, rng), paillier.enc_matrix(pk, b, W, rng)
    )
    assert all(isinstance(c, paillier.Ciphertext) for c in total.ciphers)
    assert [paillier.decrypt(sk, c) for c in total.ciphers] == [
        6 + (8 << W) + (10 << 2 * W),
        12,  # the unused slots of the last plaintext stay 0
    ]
    assert paillier.dec_matrix(sk, total).tolist() == [[6, 8], [10, 12]]


def test_enc_matrix_sum_of_four_matches_plaintext(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(15)
    mats = [
        np.array([[rng.randrange(2**128) for _ in range(11)] for _ in range(11)], dtype=object)
        for _ in range(4)
    ]
    agg = paillier.enc_matrix(pk, mats[0], W, rng)
    for m in mats[1:]:
        agg = paillier.add_enc_matrix(pk, agg, paillier.enc_matrix(pk, m, W, rng))
    assert len(agg.ciphers) == 41  # ceil(121 / 3)
    assert np.array_equal(paillier.dec_matrix(sk, agg), sum(mats))


def test_enc_matrix_shape_mismatch(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(16)
    ones = paillier.enc_matrix(pk, np.ones((2, 2), dtype=int), W, rng)
    for other, width in (((2, 3), W), ((1, 2), W), ((2, 2), W + 1)):
        with pytest.raises(ValueError):
            paillier.add_enc_matrix(
                pk, ones, paillier.enc_matrix(pk, np.ones(other, dtype=int), width, rng)
            )


def test_enc_matrix_rejects_entries_outside_the_slot(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(17)
    for bad in (-1, 2**W):
        with pytest.raises(EncodingRangeError):
            paillier.enc_matrix(pk, [[0, bad]], W, rng)
    with pytest.raises(ValueError):
        paillier.enc_matrix(pk, np.zeros((1, 0), dtype=object), W, rng)
