"""Additive homomorphic encryption (Paillier, g = n + 1 variant).

The product of two ciphertexts decrypts to the sum of their plaintexts, and
raising a ciphertext to a plaintext power multiplies the underlying value.
That is everything the aggregation protocol needs; there is deliberately no
ciphertext-times-ciphertext operation.

Signed values are mapped into [0, n) by reducing mod n; decoded values above
n/2 are interpreted as negative.  Big-integer arithmetic uses gmpy2 when
available and falls back to the builtins otherwise.

Two standard speed-ups keep the builtin fallback usable at 2048 bits:

* decryption works modulo p^2 and q^2 and recombines by the CRT
  (Paillier, Eurocrypt '99, section 7);
* the randomizer is h_s^x mod n^2 with h_s = h^n for a fixed public h
  derived from n and a short random exponent x of ceil(bits/2) bits
  (Damgard-Jurik-Nielsen, IJIS 2010), evaluated with a fixed-base
  windowing table cached per key.  Its hiding property rests on the DJN
  assumption that such h_s^x cannot be told apart from a uniform r^n.

Not hardened against side channels (big-integer operations are not constant
time) and no zero-knowledge proofs are provided; the threat model is
honest-but-curious protocol participants only.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import threading
from dataclasses import dataclass, field

import numpy as np

# Unused here: perfbench/spans.py traces ``paillier.encode_float`` by this
# name, so it stays importable until the benchmark stops patching names.
from .encoding import encode_float  # noqa: F401
from .errors import EncodingRangeError, KeyMismatchError

try:
    import gmpy2

    def _powmod(base: int, exp: int, mod: int) -> int:
        return int(gmpy2.powmod(base, exp, mod))

    _bigint = gmpy2.mpz

except ImportError:  # pragma: no cover - exercised only without gmpy2

    def _powmod(base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)

    _bigint = int


DEFAULT_KEY_BITS = 2048
ALLOWED_KEY_BITS = (512, 1024, 2048, 3072)
MILLER_RABIN_ROUNDS = 40
RANDOMIZER_WINDOW = 6
RANDOMIZER_CACHE_SIZE = 8

_SMALL_PRIMES = [p for p in range(3, 2000) if all(p % q for q in range(2, p))]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Trial division by small primes, then Miller-Rabin with random bases."""
    if n < 2 or n % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
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
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """Paillier public key with the simplified generator g = n + 1."""

    n: int
    n_squared: int = field(repr=False)
    fingerprint: str

    @property
    def g(self) -> int:
        return self.n + 1

    @property
    def max_plaintext(self) -> int:
        """Largest magnitude of a signed plaintext (n/2 threshold mapping)."""
        return self.n // 2

    @classmethod
    def from_modulus(cls, n: int) -> "PublicKey":
        return cls(n=n, n_squared=n * n, fingerprint=key_fingerprint(n))


@dataclass(frozen=True)
class PrivateKey:
    """Holds the factors of n and the constants for CRT decryption.

    ``hp`` and ``hq`` are the inverses of L_p(g^(p-1) mod p^2) mod p and
    L_q(g^(q-1) mod q^2) mod q; ``q_inv`` is q^-1 mod p.
    """

    public_key: PublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    hp: int = field(repr=False)
    hq: int = field(repr=False)
    q_inv: int = field(repr=False)


@dataclass(frozen=True)
class Ciphertext:
    """An integer in [0, n^2) tagged with the key it was produced under.

    ``cipher * s`` for a non-negative int s yields an encryption of s times
    the plaintext; ``a + b`` multiplies the raw values, encrypting the sum.
    """

    value: int
    public_key: PublicKey

    def __post_init__(self):
        if not 0 <= self.value < self.public_key.n_squared:
            raise ValueError("ciphertext value outside [0, n^2)")
        if math.gcd(self.value, self.public_key.n_squared) != 1:
            raise ValueError("ciphertext value not coprime to n^2")

    @property
    def fingerprint(self) -> str:
        return self.public_key.fingerprint

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        return add_cipher(self.public_key, self, other)

    def __mul__(self, scalar: int) -> "Ciphertext":
        return mul_plain(self.public_key, self, scalar)

    __rmul__ = __mul__


def key_fingerprint(n: int) -> str:
    return hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).hexdigest()[:16]


def _l_function(x: int, d: int) -> int:
    """Paillier's L(x) = (x - 1) / d."""
    return (x - 1) // d


class _FixedBase:
    """Powers of one fixed base by the fixed-base windowing method
    (Brickell-Gordon-McCurley-Wilson; Menezes et al., HAC Algorithm 14.109).

    Stores base^(2^(w*i)) for each w-bit window of the exponent; one power
    then costs a multiplication per nonzero window plus about 2^(w+1)
    bucket multiplications, instead of a full square-and-multiply.
    """

    def __init__(self, base: int, exp_bits: int, mod: int):
        self.mod = mod
        self.exp_bits = exp_bits
        powers = [_bigint(base) % mod]
        for _ in range(-(-exp_bits // RANDOMIZER_WINDOW) - 1):
            v = powers[-1]
            for _ in range(RANDOMIZER_WINDOW):
                v = v * v % mod
            powers.append(v)
        self.powers = powers

    def pow(self, x: int) -> int:
        if not 0 <= x < 1 << self.exp_bits:
            raise ValueError(f"exponent must lie in [0, 2^{self.exp_bits})")
        mod = self.mod
        mask = (1 << RANDOMIZER_WINDOW) - 1
        buckets = [None] * (mask + 1)
        for power in self.powers:
            digit = x & mask
            if digit:
                b = buckets[digit]
                buckets[digit] = power if b is None else b * power % mod
            x >>= RANDOMIZER_WINDOW
        acc = running = None
        for digit in range(mask, 0, -1):
            b = buckets[digit]
            if b is not None:
                running = b if running is None else running * b % mod
            if running is not None:
                acc = running if acc is None else acc * running % mod
        return 1 if acc is None else int(acc)


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
    return _FixedBase(h_s, _randomizer_bits(pk), pk.n_squared)


# Held while a table is built, so concurrent encrypting parties build it once.
_RANDOMIZER_LOCK = threading.Lock()


def _randomizer_table(pk: PublicKey) -> _FixedBase:
    """The fixed-base table of h_s = h^n mod n^2, built once per key."""
    with _RANDOMIZER_LOCK:
        return _randomizer_table_for(pk)


def keygen(
    bits: int = DEFAULT_KEY_BITS,
    rng: random.Random | None = None,
    allow_test_key: bool = False,
) -> tuple[PublicKey, PrivateKey]:
    """Generate a keypair with an n of exactly ``bits`` bits.

    512-bit keys are far below a safe size and are admitted only with
    ``allow_test_key=True``.  Pass a seeded ``random.Random`` for
    reproducible keys in tests; the default draws from the system entropy
    pool.
    """
    if bits not in ALLOWED_KEY_BITS:
        raise ValueError(f"key size must be one of {ALLOWED_KEY_BITS}, got {bits}")
    if bits == 512 and not allow_test_key:
        raise ValueError("512-bit keys are test-only; pass allow_test_key=True")
    if rng is None:
        rng = random.SystemRandom()
    while True:
        p = _random_prime(bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() == bits:
            break
    pk = PublicKey.from_modulus(n)
    g = pk.g
    return pk, PrivateKey(
        public_key=pk,
        p=p,
        q=q,
        hp=pow(_l_function(_powmod(g, p - 1, p * p), p), -1, p),
        hq=pow(_l_function(_powmod(g, q - 1, q * q), q), -1, q),
        q_inv=pow(q, -1, p),
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


def mul_plain(pk: PublicKey, c: Ciphertext, s: int) -> Ciphertext:
    """Homomorphic scalar multiplication: c^s decrypts to s * u mod n."""
    _check_same_key(pk, c)
    if not isinstance(s, int):
        raise TypeError(f"scalar must be int, got {type(s).__name__}")
    if s < 0:
        raise ValueError(f"scalar must be non-negative, got {s}")
    if s >= pk.n:
        raise EncodingRangeError("scalar exceeds the plaintext space")
    return Ciphertext(_powmod(c.value, s, pk.n_squared), pk)


def encode_signed(pk: PublicKey, m: int) -> int:
    """Map a signed integer into [0, n); magnitudes must stay below n/2."""
    if abs(m) > pk.max_plaintext:
        raise EncodingRangeError(
            f"|{m}| exceeds the signed plaintext bound n/2 (~2^{pk.n.bit_length() - 1})"
        )
    return m % pk.n


def decode_signed(pk: PublicKey, v: int) -> int:
    """Inverse of :func:`encode_signed`: values above n/2 are negative."""
    if not 0 <= v < pk.n:
        raise ValueError("value outside [0, n)")
    return v - pk.n if v > pk.max_plaintext else v


def enc_matrix(pk: PublicKey, m, rng: random.Random | None = None) -> np.ndarray:
    """Encrypt a matrix of signed integers element-wise, in row-major order,
    into a 2-D object array of :class:`Ciphertext`."""
    m = np.atleast_2d(np.asarray(m, dtype=object))
    cells = [encrypt(pk, encode_signed(pk, int(v)), rng) for v in m.flat]
    return np.array(cells, dtype=object).reshape(m.shape)


def add_enc_matrix(pk: PublicKey, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise homomorphic sum of two encrypted matrices."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.frompyfunc(functools.partial(add_cipher, pk), 2, 1)(a, b)


def dec_matrix(sk: PrivateKey, c: np.ndarray) -> np.ndarray:
    """Decrypt an encrypted matrix back to a 2-D object array of signed ints."""
    return np.frompyfunc(lambda v: decode_signed(sk.public_key, decrypt(sk, v)), 1, 1)(c)
