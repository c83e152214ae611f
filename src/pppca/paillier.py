"""Additive homomorphic encryption (Paillier, g = n + 1 variant).

The product of two ciphertexts decrypts to the sum of their plaintexts.
That is everything the aggregation protocol needs, so addition is the only
homomorphic operation offered.

Matrices travel slot-packed (Bianchi, Piva and Barni, "Composite signal
representation for fast and storage-efficient processing of encrypted
signals", IEEE TIFS 2010): entries are non-negative integers of at most w
bits, and s = floor((bitlen(n) - 1) / w) of them share one plaintext as
sum_i v_i * 2^(i*w), so one encryption, fold and decryption serves s
entries.  Adding two packed plaintexts adds slot by slot, as long as no
slot sum reaches 2^w; choosing w so that it cannot is the caller's part.

The big-integer kernel, named by :data:`KERNEL`, is libgmp, called
through ctypes, when ``libgmp.so.10`` loads, and the builtin ``pow`` with
Python ints otherwise; both give the same results.  It runs the modular
exponentiations (mpz_powm) and the randomizer tables below, one table
class over either kernel.  Two standard speed-ups keep the builtin
fallback usable at 2048 bits:

* decryption works modulo p^2 and q^2 and recombines by the CRT
  (Paillier, Eurocrypt '99, section 7);
* the randomizer is h_s^x mod n^2 with h_s = h^n for a fixed public h
  derived from n and a short random exponent x of ceil(bits/2) bits
  (Damgard-Jurik-Nielsen, IJIS 2010), evaluated from a fixed-base
  windowing table cached per key by the two-accumulator walk of HAC
  Algorithm 14.109.  Its hiding property rests on the DJN assumption that
  such h_s^x cannot be told apart from a uniform r^n.

Key generation draws each prime with its top two bits set, so that n = pq
always has exactly the requested length, and confirms it with the
Miller-Rabin round count FIPS 186-4 gives for its size.  Before those
rounds, a gcd with the product of the odd primes below 2000 and a base-2
Fermat test, which no prime can fail, discard most composites.  The Fermat
test is cheaper than a random-base round only under the builtin ``pow``,
where multiplying by 2 is cheap; under libgmp's mpz_powm a base of 2 costs
what any base costs, and the test saves nothing.  A candidate that Fermat's
test rejects still draws the random witness its first Miller-Rabin round
would have drawn, so a seeded generator yields the same keys as with
Miller-Rabin alone.  hp and hq take their closed forms
for g = n + 1.

Not hardened against side channels (neither GMP's mpz_powm and mpz
multiplication nor the builtin ``pow`` and int multiplication is constant
time) and no zero-knowledge proofs are provided; the threat model is
honest-but-curious protocol participants only.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import random
import threading
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

# Unused here: perfbench/spans.py traces ``paillier.encode_float`` by this
# name, so it stays importable until the benchmark stops patching names.
from .encoding import encode_float  # noqa: F401
from .errors import EncodingRangeError, KeyMismatchError


class _Mpz(ctypes.Structure):
    """GMP's mpz_t: {int alloc; int size; mp_limb_t *d}."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]


class _Gmp:
    """The few mpz functions of libgmp that Paillier needs, through ctypes.

    ctypes releases the interpreter lock during each call, so concurrent
    threads may run GMP at once: an mpz shared between them must only be
    read, and every mpz written to belongs to one call.  The functions are
    instance attributes, looked up at each use, so that tests can wrap them.
    """

    def __init__(self, lib: ctypes.CDLL):
        mpz, size_t, c_int = ctypes.POINTER(_Mpz), ctypes.c_size_t, ctypes.c_int
        # The order, size, endian and nails arguments of mpz_import and mpz_export.
        layout = [c_int, size_t, c_int, size_t]
        for attr, name, restype, argtypes in (
            ("init", "__gmpz_init", None, [mpz]),
            ("clear", "__gmpz_clear", None, [mpz]),
            ("load", "__gmpz_import", None, [mpz, size_t, *layout, ctypes.c_char_p]),
            (
                "store",
                "__gmpz_export",
                ctypes.c_void_p,
                [ctypes.c_void_p, ctypes.POINTER(size_t), *layout, mpz],
            ),
            ("sizeinbase", "__gmpz_sizeinbase", size_t, [mpz, c_int]),
            ("powm", "__gmpz_powm", None, [mpz, mpz, mpz, mpz]),
            ("set", "__gmpz_set", None, [mpz, mpz]),
            ("mul", "__gmpz_mul", None, [mpz, mpz, mpz]),
            ("tdiv_r", "__gmpz_tdiv_r", None, [mpz, mpz, mpz]),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, attr, fn)

    def new(self, value: int = 0) -> _Mpz:
        """A fresh mpz holding ``value`` >= 0; the caller clears it."""
        z = _Mpz()
        self.init(z)
        if value:
            # Big-endian bytes, one byte per word.
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            self.load(z, len(raw), 1, 1, 1, 0, raw)
        return z

    def to_int(self, z: _Mpz) -> int:
        out = ctypes.create_string_buffer((self.sizeinbase(z, 2) + 7) // 8)
        count = ctypes.c_size_t()
        self.store(out, count, 1, 1, 1, 0, z)
        return int.from_bytes(out.raw[: count.value], "big")

    def clear_all(self, zs) -> None:
        for z in zs:
            self.clear(z)

    def powmod(self, base: int, exp: int, mod: int) -> int:
        """pow(base, exp, mod) by mpz_powm; about ten times faster than the
        builtin ``pow`` at 1024-4096 bits."""
        if exp < 0 or mod < 1:
            # GMP raises SIGFPE on a zero modulus, or on a negative exponent
            # of a base without an inverse; pow raises ValueError instead.
            return pow(base, exp, mod)
        args = [self.new(v) for v in (0, base % mod, exp, mod)]
        try:
            self.powm(*args)
            return self.to_int(args[0])
        finally:
            self.clear_all(args)


try:
    # By soname: ctypes.util.find_library would spawn ldconfig or gcc.
    _gmp = _Gmp(ctypes.CDLL("libgmp.so.10"))
except OSError:
    _gmp = None
_powmod = pow if _gmp is None else _gmp.powmod
#: What runs ``_powmod`` and the randomizer tables: "libgmp" or "builtin".
KERNEL = "builtin" if _gmp is None else "libgmp"


DEFAULT_KEY_BITS = 2048
ALLOWED_KEY_BITS = (512, 1024, 2048, 3072)
# Miller-Rabin rounds per prime size in bits.  512-, 1024- and 1536-bit
# primes take FIPS 186-4 Appendix C.3, Table C.3 (M-R tests only), which
# bounds the chance that a random candidate accepted as prime is composite
# by 2^-100.  FIPS has no row for the 256-bit primes of test-only 512-bit
# keys; they take the 12 rounds of Menezes et al., HAC Table 4.4 (2^-80).
MILLER_RABIN_ROUNDS = {256: 12, 512: 7, 1024: 4, 1536: 3}
# Candidates are tested by one gcd against the product of the odd primes
# below this bound.
TRIAL_DIVISION_BOUND = 2000
RANDOMIZER_WINDOW = 6
RANDOMIZER_CACHE_SIZE = 8


def _odd_primes(stop: int) -> list[int]:
    """The odd primes below ``stop``, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * stop
    for p in range(3, math.isqrt(stop) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, stop, 2 * p)))
    return [p for p in range(3, stop, 2) if sieve[p]]


_SMALL_PRIMES = _odd_primes(TRIAL_DIVISION_BOUND)
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)


def _is_probable_prime(n: int, rng: random.Random, rounds: int) -> bool:
    """A gcd with the product of the small primes, a base-2 Fermat test,
    then Miller-Rabin with random bases."""
    if n < 2 or n % 2 == 0:
        return False
    if n < TRIAL_DIVISION_BOUND:
        return n in _SMALL_PRIMES  # any odd composite this small has a small factor
    if math.gcd(_SMALL_PRIMES_PRODUCT, n) != 1:
        return False
    # Every odd prime passes Fermat's test.  A candidate it rejects still
    # draws the witness that the first Miller-Rabin round would have drawn.
    # That round would have returned False on it, unless the witness were a
    # strong liar, which a random composite of key size effectively never
    # has.  So the draws, and with them the keys of a seeded generator,
    # match Miller-Rabin alone.
    if _powmod(2, n - 1, n) != 1:
        rng.randrange(2, n - 1)
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = _powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = _powmod(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A random odd probable prime of ``bits`` bits whose top two bits are
    set, so that the product of two of them has exactly 2 * ``bits`` bits."""
    rounds = MILLER_RABIN_ROUNDS[bits]
    while True:
        candidate = rng.getrandbits(bits) | (0b11 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng, rounds):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """Paillier public key with the simplified generator g = n + 1."""

    n: int
    n_squared: int = field(repr=False)
    fingerprint: str

    @classmethod
    def from_modulus(cls, n: int) -> "PublicKey":
        return cls(n=n, n_squared=n * n, fingerprint=key_fingerprint(n))


@dataclass(frozen=True)
class PrivateKey:
    """Holds the factors of n and the constants for CRT decryption.

    ``hp`` and ``hq`` are the inverses of L_p(g^(p-1) mod p^2) mod p and
    L_q(g^(q-1) mod q^2) mod q; ``q_inv`` is q^-1 mod p.  For g = n + 1,
    g^(p-1) = 1 + (p-1)n mod p^2, so L_p(...) = -q mod p and hp = -q^-1 mod p;
    likewise hq = -p^-1 mod q.
    """

    public_key: PublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    hp: int = field(repr=False)
    hq: int = field(repr=False)
    q_inv: int = field(repr=False)


@dataclass(frozen=True)
class Ciphertext:
    """An integer in [0, n^2) tagged with the key it was produced under."""

    value: int
    public_key: PublicKey

    def __post_init__(self):
        if not 0 <= self.value < self.public_key.n_squared:
            raise ValueError("ciphertext value outside [0, n^2)")
        # n^2 has the prime factors of n, so gcd with n decides, at half the cost.
        if math.gcd(self.value, self.public_key.n) != 1:
            raise ValueError("ciphertext value not coprime to n^2")

    @property
    def fingerprint(self) -> str:
        return self.public_key.fingerprint


def key_fingerprint(n: int) -> str:
    return hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).hexdigest()[:16]


def _l_function(x: int, d: int) -> int:
    """Paillier's L(x) = (x - 1) / d."""
    return (x - 1) // d


class _FixedBase:
    """Powers of one fixed base by the fixed-base windowing method
    (Brickell-Gordon-McCurley-Wilson, Eurocrypt '92; Menezes et al., HAC
    Algorithm 14.109), on either big-integer kernel.

    Stores base^(2^(w*i)) for each w-bit window i of the exponent.  A power
    then walks two accumulators down the window digits d = 2^w - 1 .. 1: B
    takes the table power of every window whose digit is d, and A takes B.
    At the end A is the product of B's values, in which the power of window
    i appears d_i times.  That costs a multiplication per nonzero window
    plus one per digit below the top one, 232 at most for a 1024-bit
    exponent, instead of a full square-and-multiply.

    Without ``gmp``, the table and the walk are Python ints.  With it, the
    table is built by mpz_powm, held as mpz and cleared when collected, and
    each power's two accumulators are mpz of their own call: made on first
    use, multiplied and reduced in place, and cleared on every way out.  A
    table is read-only once built, so threads may share it, even as ctypes
    lets them run GMP at once.
    """

    def __init__(self, base: int, exp_bits: int, mod: int, gmp: _Gmp | None = None):
        self.exp_bits = exp_bits
        self.gmp = gmp
        count = -(-exp_bits // RANDOMIZER_WINDOW)
        if gmp is None:
            self.mod = mod
            self.powers = [base % mod]
            for _ in range(count - 1):
                self.powers.append(pow(self.powers[-1], 1 << RANDOMIZER_WINDOW, mod))
            return
        self.mod = gmp.new(mod)
        step = gmp.new(1 << RANDOMIZER_WINDOW)
        self.powers = [gmp.new(base % mod)]
        for _ in range(count - 1):
            self.powers.append(gmp.new())
            gmp.powm(self.powers[-1], self.powers[-2], step, self.mod)
        gmp.clear(step)
        # Not at exit, where a thread still encrypting could use them; the
        # process's end frees them anyway.
        weakref.finalize(self, gmp.clear_all, [*self.powers, self.mod]).atexit = False

    def pow(self, x: int) -> int:
        if not 0 <= x < 1 << self.exp_bits:
            raise ValueError(f"exponent must lie in [0, 2^{self.exp_bits})")
        mask = (1 << RANDOMIZER_WINDOW) - 1
        groups = [[] for _ in range(mask + 1)]  # the windows of x by their digit
        for i in range(len(self.powers)):
            groups[x & mask].append(i)
            x >>= RANDOMIZER_WINDOW
        gmp = self.gmp
        a = b = None  # each starts as a copy of its first factor
        try:
            for windows in groups[:0:-1]:  # the digits 2^w - 1 down to 1
                for i in windows:
                    b = self._times(b, self.powers[i])
                if b is not None:
                    a = self._times(a, b)
            if a is None:
                return 1
            return a if gmp is None else gmp.to_int(a)
        finally:
            if gmp is not None:
                gmp.clear_all(z for z in (a, b) if z is not None)

    def _times(self, acc, z):
        """acc * z mod the modulus, or a copy of z while acc is None; on
        libgmp, in place in acc, or in a new mpz for the copy."""
        gmp = self.gmp
        if gmp is None:
            return z if acc is None else acc * z % self.mod
        if acc is None:
            acc = gmp.new()
            gmp.set(acc, z)
        else:
            gmp.mul(acc, acc, z)
            gmp.tdiv_r(acc, acc, self.mod)
        return acc


def _djn_generator(n: int) -> int:
    """h = -y^2 mod n with y expanded from a hash of n, so that every holder
    of the modulus derives the same h and the public key needs nothing else."""
    width = (n.bit_length() + 7) // 8 + 8
    seed = n.to_bytes((n.bit_length() + 7) // 8, "big")
    counter = 0
    while True:
        stream = b"".join(
            hashlib.sha256(b"pppca/djn/%d/%d/" % (counter, block) + seed).digest()
            for block in range(-(-width // 32))
        )
        y = int.from_bytes(stream[:width], "big") % n
        if y > 1 and math.gcd(y, n) == 1:
            return (-y * y) % n
        counter += 1


def _randomizer_bits(pk: PublicKey) -> int:
    """Bit length of the short DJN randomizer exponent: ceil(bits / 2)."""
    return (pk.n.bit_length() + 1) // 2


@functools.lru_cache(maxsize=RANDOMIZER_CACHE_SIZE)
def _randomizer_table_for(pk: PublicKey) -> _FixedBase:
    h_s = _powmod(_djn_generator(pk.n), pk.n, pk.n_squared)
    return _FixedBase(h_s, _randomizer_bits(pk), pk.n_squared, _gmp)


# Held while a table is built, so concurrent encrypting parties build it once.
_RANDOMIZER_LOCK = threading.Lock()


def _randomizer_table(pk: PublicKey) -> _FixedBase:
    """The fixed-base table of h_s = h^n mod n^2, built once per key."""
    with _RANDOMIZER_LOCK:
        return _randomizer_table_for(pk)


def check_key_bits(bits: int, allow_test_key: bool = False):
    """Raise ``ValueError`` unless ``bits`` is one of ``ALLOWED_KEY_BITS``.
    512-bit keys are far below a safe size and are admitted only with
    ``allow_test_key``."""
    if bits not in ALLOWED_KEY_BITS:
        raise ValueError(f"key size must be one of {ALLOWED_KEY_BITS}, got {bits}")
    if bits == 512 and not allow_test_key:
        raise ValueError("512-bit keys are test-only; set allow_test_key")


def keygen(
    bits: int = DEFAULT_KEY_BITS,
    rng: random.Random | None = None,
    allow_test_key: bool = False,
) -> tuple[PublicKey, PrivateKey]:
    """Generate a keypair with an n of exactly ``bits`` bits, a size that
    :func:`check_key_bits` admits.  Pass a seeded ``random.Random`` for
    reproducible keys in tests; the default draws from the system entropy
    pool.
    """
    check_key_bits(bits, allow_test_key)
    if rng is None:
        rng = random.SystemRandom()
    p = _random_prime(bits // 2, rng)
    q = _random_prime(bits // 2, rng)
    while q == p:
        q = _random_prime(bits // 2, rng)
    pk = PublicKey.from_modulus(p * q)  # >= (1.5 * 2^(bits/2 - 1))^2 > 2^(bits - 1)
    q_inv = pow(q, -1, p)
    return pk, PrivateKey(
        public_key=pk, p=p, q=q, hp=-q_inv % p, hq=-pow(p, -1, q) % q, q_inv=q_inv
    )


def encrypt(pk: PublicKey, m: int, rng: random.Random | None = None) -> Ciphertext:
    """Probabilistic encryption of m in [0, n): c = (1 + n)^m * h_s^x mod n^2,
    with x drawn from ``rng`` (see the module docstring)."""
    if not 0 <= m < pk.n:
        raise ValueError(f"plaintext must lie in [0, n), got {m}")
    if rng is None:
        rng = random.SystemRandom()
    x = rng.getrandbits(_randomizer_bits(pk))
    # g = n + 1 makes g^m mod n^2 a single multiplication.
    g_m = (1 + pk.n * m) % pk.n_squared
    return Ciphertext(g_m * _randomizer_table(pk).pow(x) % pk.n_squared, pk)


def decrypt(sk: PrivateKey, c: Ciphertext) -> int:
    """Recover the plaintext in [0, n) from its residues mod p and q:
    m_p = L_p(c^(p-1) mod p^2) * hp mod p, likewise m_q, joined by the CRT."""
    pk = sk.public_key
    if c.fingerprint != pk.fingerprint:
        raise KeyMismatchError(
            f"ciphertext under key {c.fingerprint} cannot be decrypted "
            f"with key {pk.fingerprint}"
        )
    p, q = sk.p, sk.q
    m_p = _l_function(_powmod(c.value, p - 1, p * p), p) * sk.hp % p
    m_q = _l_function(_powmod(c.value, q - 1, q * q), q) * sk.hq % q
    return m_q + (m_p - m_q) * sk.q_inv % p * q


def _check_same_key(pk: PublicKey, *ciphers: Ciphertext):
    for c in ciphers:
        if c.fingerprint != pk.fingerprint:
            raise KeyMismatchError(
                f"ciphertext under key {c.fingerprint}, expected {pk.fingerprint}"
            )


def add_cipher(pk: PublicKey, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Homomorphic addition: the product decrypts to (u + v) mod n."""
    _check_same_key(pk, c1, c2)
    return Ciphertext(c1.value * c2.value % pk.n_squared, pk)


def slot_count(pk: PublicKey, slot_bits: int) -> int:
    """How many ``slot_bits``-bit slots fit below 2^(bitlen(n) - 1) < n."""
    slots = (pk.n.bit_length() - 1) // slot_bits
    if slots < 1:
        raise EncodingRangeError(
            f"a {pk.n.bit_length()}-bit modulus has no room for a {slot_bits}-bit slot"
        )
    return slots


@dataclass(frozen=True)
class EncryptedMatrix:
    """A matrix of ``slot_bits``-bit entries under one key, packed in
    row-major order: ciphertext j holds entries j*s .. j*s + s - 1, entry
    j*s + i in bits [i*w, (i+1)*w) of its plaintext, for w = ``slot_bits``
    and s = :func:`slot_count`.  Unused slots of the last plaintext are 0.
    """

    shape: tuple[int, int]
    slot_bits: int
    ciphers: tuple[Ciphertext, ...]


def enc_matrix(
    pk: PublicKey, m, slot_bits: int, rng: random.Random | None = None
) -> EncryptedMatrix:
    """Encrypt a matrix of integers in [0, 2^slot_bits), s entries to a
    ciphertext."""
    m = np.atleast_2d(np.asarray(m, dtype=object))
    if m.size == 0:
        raise ValueError("cannot encrypt a matrix without entries")
    if np.count_nonzero(m >> slot_bits):  # 0 exactly for ints in [0, 2^slot_bits)
        raise EncodingRangeError(f"matrix entries must lie in [0, 2^{slot_bits})")
    slots = slot_count(pk, slot_bits)
    flat = [int(v) for v in m.flat]
    plaintexts = (
        sum(v << (i * slot_bits) for i, v in enumerate(flat[at : at + slots]))
        for at in range(0, len(flat), slots)
    )
    return EncryptedMatrix(m.shape, slot_bits, tuple(encrypt(pk, v, rng) for v in plaintexts))


def add_enc_matrix(pk: PublicKey, a: EncryptedMatrix, b: EncryptedMatrix) -> EncryptedMatrix:
    """Slot-wise homomorphic sum of two encrypted matrices."""
    if (a.shape, a.slot_bits) != (b.shape, b.slot_bits):
        raise ValueError(
            f"layout mismatch: {a.shape} in {a.slot_bits}-bit slots vs "
            f"{b.shape} in {b.slot_bits}-bit slots"
        )
    return replace(a, ciphers=tuple(map(functools.partial(add_cipher, pk), a.ciphers, b.ciphers)))


def dec_matrix(sk: PrivateKey, c: EncryptedMatrix) -> np.ndarray:
    """Decrypt and unpack an encrypted matrix into a 2-D object array of
    slot values."""
    w = c.slot_bits
    mask = (1 << w) - 1
    slots = range(slot_count(sk.public_key, w))
    plaintexts = [decrypt(sk, cipher) for cipher in c.ciphers]
    flat = [v >> (i * w) & mask for v in plaintexts for i in slots]
    rows, cols = c.shape
    return np.array(flat[: rows * cols], dtype=object).reshape(rows, cols)
