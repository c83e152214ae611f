"""The private PCA protocol: roles, sessions, and secure aggregation.

Three roles cooperate so that no party ever sees another party's plaintext
rows:

* data providers (parties 1..M) hold the horizontally partitioned rows,
* the server (party 0) decrypts or reconstructs aggregates, eigendecomposes
  the covariance, and broadcasts the transfer matrix,
* the data consumer (party M+1) receives only the dimension-reduced rows.

Secure addition is pluggable (:class:`SecureSum`): the HE back end encrypts
local matrices under the server's Paillier key and lets provider 1 fold
the ciphertexts; the SS back end additively secret-shares local matrices
among the providers and lets the server reconstruct only the sum of local
share sums.  Either way a round has two hops: every provider masks its
values and sends one piece to each *combiner* other than itself; each
combiner adds the pieces it holds and sends the result to the server, which
opens the total.

Session flow; a phase number names the same step under both back ends and
appears in transcripts and error messages:

    0  providers exchange sample counts with the server and each other
    1  HE only: the server broadcasts its public key
    2  providers send masked column sums and sums of squares to the combiners
    3  combiners send their sums to the server, which opens the total
    4  the server broadcasts the mean and one scale exponent per column
    6  providers center locally and send masked covariance terms, scaled by
       the exponents; only the d(d+1)/2 upper-triangle entries of the
       symmetric matrix
    7  combiners send their sums to the server, which opens the total,
       scales it back and mirrors it into the covariance
    8  the server broadcasts the transfer matrix, or aborts if the
       fixed-point grid may leave it unresolved (``MAX_ANGLE_BOUND``)
    9  providers send reduced rows to the consumer

Phase 5 is unused.

    back end  masking                                   combiners
    he        Paillier encryption of offset ring         provider 1
              elements, floor((bitlen(n) - 1) / w) of
              them in w-bit slots of each plaintext
    ss        n-of-n shares of ring elements; each      every provider
              provider keeps the balancing share and
              sends each other combiner only a 32-byte
              seed, whatever d is, that expands
              (SHAKE-128) to that combiner's share

Each round encodes into a fixed-point ring Z_{2^l} (``SessionConfig.rings``):
``ss`` shares the ring elements.  ``he`` flips bit l-1 of each, which turns
the two's-complement element of z = round(x * 2^f) into z + 2^(l-1) in
[0, 2^l), and packs these into slots of w = l + ceil(log2 M) + 1 bits, so
that a slot of the folded sum holds sum(z) + M * 2^(l-1) < 2^w and no carry
crosses into the next; the server subtracts M * 2^(l-1) from each slot and
reduces mod 2^l.  Each provider's values must stay below 2^(l-f-1)/M, and
both back ends open bit-identical sums.

Round 0 also opens the sums of squares, on a coarser grid
(:func:`_squares_grid`), from which the server bounds each column's variance
and broadcasts, with the mean, exponents e_j that scale every covariance
term (s, t), times 2^-(e_s + e_t), to at most 1 (``ServerRole._exponents``).
So round 1 runs on a 64-bit ring whose grid follows each column's scale.
Providers learn each e_j, the binary order of a column's global spread; the
server learns nothing it could not compute from the mean and covariance.

Sample counts travel in plaintext: both the mean (divide by n) and each
local covariance term (scale by 1/(n-1)) need the global row count.  They
are treated as non-sensitive session metadata; deployments for which row
counts are themselves secret need a different protocol.

``SessionConfig.timeout`` means one of two things.  When every role runs in
one process (:func:`run_session`), receives do not time out; the timeout is
the session's stall window instead.  A session that is alive never aborts;
one in which every unfinished role is waiting, and nothing is consumed and
no role finishes for a whole window, aborts with an error naming the
waiting parties and their phases.  A role run on its own (``pppca role``)
cannot see its peers, so there the timeout bounds each receive, and one
that times out ends the role.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import threading
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from . import linalg, paillier, ring
from .encoding import FixedPointConfig, matrix_decode_fixed, matrix_encode_fixed
from .errors import ConfigError, DimensionError, FrameFormatError, ProtocolAbort, TransportClosed
from .messages import (
    MsgType,
    ProtocolMessage,
    Transcript,
    decode_encrypted_matrix,
    decode_public_key,
    decode_real_matrix,
    decode_sample_count,
    decode_seed_share,
    decode_share_matrix,
    encode_encrypted_matrix,
    encode_public_key,
    encode_real_matrix,
    encode_sample_count,
    encode_seed_share,
    encode_share_matrix,
    make_step,
    real_matrix_payload,
)
from .sharing import CounterPRG, add_local_matrix, reconstruct_matrix, share_matrix
from .transport import DEFAULT_TIMEOUT, SimulatedNetwork, TcpNetwork

SERVER = 0
# Parties are addressed by 16-bit header fields, and the consumer is party
# parties + 1.
MAX_PARTIES = (1 << 16) - 2

METHOD_HE = "he"
METHOD_SS = "ss"

PHASE_SAMPLE_COUNT = 0
PHASE_PUBLIC_KEY = 1
PHASE_SUMS = 2
PHASE_MEAN = 4
PHASE_COV = 6
PHASE_TRANSFER = 8
PHASE_REDUCED = 9
# The hop-1 and hop-2 phases of round r: the column sums, then the covariance.
ROUND_PHASES = ((PHASE_SUMS, PHASE_SUMS + 1), (PHASE_COV, PHASE_COV + 1))
# The server aborts rather than broadcast a transfer matrix whose largest
# principal angle to the exact covariance's top-k subspace may have a sine
# above this (``ServerRole._angle_bound``).
MAX_ANGLE_BOUND = 1e-5


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session needs beyond the data itself.

    ``seed`` switches the session into reproducible test mode: share
    randomness, key generation, and encryption randomness all derive from
    it.  Leave it ``None`` for entropy-pool randomness.
    """

    method: str
    parties: int
    k: int
    fixed_point: FixedPointConfig = field(default_factory=FixedPointConfig)
    key_bits: int = paillier.DEFAULT_KEY_BITS
    allow_test_key: bool = False
    seed: int | None = None
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        for name, kinds in (("method", str), ("parties", Integral), ("k", Integral),
                            ("key_bits", Integral), ("timeout", Real), ("allow_test_key", bool),
                            ("seed", (Integral, type(None))), ("fixed_point", FixedPointConfig)):
            value = getattr(self, name)
            # A bool is an Integral, but True is no count, seed or timeout.
            if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
                kinds = kinds if isinstance(kinds, tuple) else (kinds,)
                names = " or ".join(kind.__name__ for kind in kinds)
                raise ConfigError(f"{name} must be of type {names}, got {value!r}")
        if self.method not in SECURE_SUMS:
            raise ConfigError(f"method must be '{METHOD_HE}' or '{METHOD_SS}'")
        if not 2 <= self.parties <= MAX_PARTIES:
            raise ConfigError(f"need 2 to {MAX_PARTIES} data providers, got {self.parties}")
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if not 0 < self.timeout < math.inf:  # False for NaN too
            raise ConfigError(f"timeout must be finite and positive, got {self.timeout}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self.secure_sum.check_config(self)

    @property
    def secure_sum(self) -> type[SecureSum]:
        """The secure-sum back end; the one place ``method`` is read."""
        return SECURE_SUMS[self.method]

    @property
    def rings(self) -> tuple[FixedPointConfig, FixedPointConfig]:
        """The fixed-point ring of each round: ``fixed_point`` for the column
        sums and squares, and Z_{2^64} with 62 - ceil(log2 M) fractional bits
        for the covariance terms, which the exponents scale to at most 1."""
        return self.fixed_point, FixedPointConfig(64, 62 - (self.parties - 1).bit_length())

    @property
    def aggregator(self) -> int:
        """The provider that folds the ``he`` ciphertexts."""
        return 1

    @property
    def consumer(self) -> int:
        return self.parties + 1

    @property
    def providers(self) -> list[int]:
        return list(range(1, self.parties + 1))


def _squares_grid(fp: FixedPointConfig, parties: int, fewest: int) -> int:
    """The fractional bits g of round 0's sums of squares, at most ``fp.f``.

    A provider of n_i >= ``fewest`` rows whose entries stay below the column
    sums' budget per row, |x| < B / n_i with B = 2^(l-f-1) / M, has a sum of
    squares below B^2 / n_i.  At g = 2f - l + floor(log2 M) + floor(log2
    fewest) that is below half of B 2^(f-g), the squares' budget once each
    is scaled by 2^(g-f) and encoded on ``fp``'s grid, so round 0 admits
    every such |x| whatever its float sum's rounding.
    """
    g = 2 * fp.f - fp.l + parties.bit_length() - 1 + max(fewest, 1).bit_length() - 1
    return min(fp.f, g)


def _derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _rng_for(cfg: SessionConfig, label: str) -> random.Random:
    if cfg.seed is None:
        return random.SystemRandom()
    return random.Random(_derived_seed(cfg.seed, label))


def _prg_for(cfg: SessionConfig, label: str) -> CounterPRG:
    if cfg.seed is None:
        return CounterPRG(CounterPRG.random_seed())
    return CounterPRG(_derived_seed(cfg.seed, label))


# --- secure-sum back ends ---------------------------------------------------


class SecureSum:
    """A secure sum of one matrix per provider, as a declared route table
    plus three steps.

    Table: ``setup`` (the server's broadcasts before round 0, as (type,
    phase) pairs), ``rounds`` (the hop-1 and hop-2 message types of the sums
    and the covariance round, sent in the phases of ``ROUND_PHASES``) and
    :meth:`combiners` (the hop-1 receivers and hop-2 senders).  Every
    provider sends hop 1 to every combiner other than itself.

    Steps: :meth:`mask` turns a provider's values into one piece per
    combiner, :meth:`combine` adds the pieces a combiner holds, and
    :meth:`open` turns the combined pieces into the plaintext sum, on the
    round's fixed-point ring ``fp``.  ``encode`` carries a piece as the
    payload of a message of the given type, and ``decoder`` gives that
    type's payload decoder for pieces of the given shape (None: any) on the
    ring ``fp``.  One back end serves a role's whole session, so each round
    draws its randomness on from the last.
    """

    setup: tuple[tuple[MsgType, int], ...] = ()
    rounds: tuple[tuple[MsgType, MsgType], ...]

    @staticmethod
    def combiners(cfg: SessionConfig) -> list[int]:
        raise NotImplementedError

    @staticmethod
    def check_config(cfg: SessionConfig):
        pass

    def setup_server(self, role: ServerRole, ep):
        pass

    def setup_provider(self, role: ProviderRole, ep):
        pass


class PaillierSum(SecureSum):
    """Paillier encryption under the server's key; provider p folds.  On
    the ring ``fp``, entries offset by 2^(l-1) fill ``slot_bits(fp)``-bit slots."""

    setup = ((MsgType.PUBLIC_KEY, PHASE_PUBLIC_KEY),)
    rounds = (
        (MsgType.ENCRYPTED_SUMS, MsgType.ENCRYPTED_SUM_AGGREGATE),
        (MsgType.ENCRYPTED_COV, MsgType.ENCRYPTED_COV_AGGREGATE),
    )

    def __init__(self, parties: int, pk=None, sk=None, rng=None):
        self.parties, self.pk, self.sk, self.rng = parties, pk, sk, rng

    def slot_bits(self, fp: FixedPointConfig) -> int:
        # A slot carries the sum of M offset entries, each in [0, 2^l), so it
        # stays below M * 2^l <= 2^(l + ceil(log2 M)); one more bit to spare.
        return fp.l + (self.parties - 1).bit_length() + 1

    @classmethod
    def for_party(cls, cfg: SessionConfig, party: int) -> PaillierSum:
        return cls(cfg.parties, rng=_rng_for(cfg, f"encrypt/{party}"))

    @staticmethod
    def combiners(cfg: SessionConfig) -> list[int]:
        return [cfg.aggregator]

    @staticmethod
    def check_config(cfg: SessionConfig):
        try:
            paillier.check_key_bits(cfg.key_bits, cfg.allow_test_key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def setup_server(self, role: ServerRole, ep):
        cfg = role.cfg
        role.phase = PHASE_PUBLIC_KEY
        started = time.perf_counter()
        self.pk, self.sk = paillier.keygen(
            cfg.key_bits, _rng_for(cfg, "keygen"), allow_test_key=cfg.allow_test_key
        )
        role.timings["keygen"] = time.perf_counter() - started
        role._broadcast(ep, MsgType.PUBLIC_KEY, PHASE_PUBLIC_KEY, encode_public_key(self.pk))

    def setup_provider(self, role: ProviderRole, ep):
        self.pk = role._recv(ep, SERVER, MsgType.PUBLIC_KEY, PHASE_PUBLIC_KEY, decode_public_key)
        bits = self.pk.n.bit_length()
        if bits != role.cfg.key_bits:
            raise ProtocolAbort(
                PHASE_PUBLIC_KEY,
                f"server sent a {bits}-bit modulus, configured for {role.cfg.key_bits}-bit keys",
            )

    def mask(self, values, secret_id: str, fp: FixedPointConfig) -> list:
        # The signed integers z offset by 2^(l-1), not the ring elements: a
        # slot summing two's-complement values would carry one 2^l per
        # negative term, and so count them.  For a ring element of z, that
        # offset is a flip of its top bit, l - 1.
        shifted = matrix_encode_fixed(values, fp) ^ ring.from_ints(1 << (fp.l - 1))
        return [paillier.enc_matrix(self.pk, ring.to_ints(shifted), self.slot_bits(fp), self.rng)]

    def combine(self, pieces: list):
        return functools.reduce(functools.partial(paillier.add_enc_matrix, self.pk), pieces)

    def open(self, pieces: list, fp: FixedPointConfig) -> np.ndarray:
        slots = paillier.dec_matrix(self.sk, pieces[0])
        sums = (slots - (self.parties << (fp.l - 1))) % fp.modulus
        return matrix_decode_fixed(ring.from_ints(sums), fp)

    def encode(self, piece, msg_type: MsgType) -> bytes:
        return encode_encrypted_matrix(piece)

    def decoder(self, msg_type: MsgType, shape, fp: FixedPointConfig):
        slot_bits = self.slot_bits(fp)
        return lambda payload: decode_encrypted_matrix(payload, self.pk, slot_bits, shape)


class SharedSum(SecureSum):
    """n-of-n additive shares of fixed-point values; every provider combines.

    A provider keeps the balancing share of its own values and sends every
    other combiner only the seed of that combiner's share.
    """

    rounds = ((MsgType.SHARE_BUNDLE, MsgType.LOCAL_SHARE_SUM),) * 2

    def __init__(self, parties: int, prg: CounterPRG, balance: int | None = None):
        self.parties, self.prg, self.balance = parties, prg, balance

    @classmethod
    def for_party(cls, cfg: SessionConfig, party: int) -> SharedSum:
        # Share i goes to provider i + 1; the server never masks.
        balance = party - 1 if party in cfg.providers else None
        return cls(cfg.parties, _prg_for(cfg, f"shares/{party}"), balance)

    @staticmethod
    def combiners(cfg: SessionConfig) -> list[int]:
        return cfg.providers

    def mask(self, values, secret_id: str, fp: FixedPointConfig) -> list:
        encoded = matrix_encode_fixed(values, fp)
        return share_matrix(
            encoded, self.parties, fp.l, self.prg, secret_id=secret_id, balance=self.balance
        )

    def combine(self, pieces: list):
        return add_local_matrix(pieces)

    def open(self, pieces: list, fp: FixedPointConfig) -> np.ndarray:
        return matrix_decode_fixed(reconstruct_matrix(pieces, party_count=self.parties), fp)

    def encode(self, piece, msg_type: MsgType) -> bytes:
        if msg_type == MsgType.SHARE_BUNDLE:
            return encode_seed_share(piece)
        return encode_share_matrix(piece)

    def decoder(self, msg_type: MsgType, shape, fp: FixedPointConfig):
        decode = decode_seed_share if msg_type == MsgType.SHARE_BUNDLE else decode_share_matrix
        return lambda payload: decode(payload, shape)


SECURE_SUMS: dict[str, type[SecureSum]] = {METHOD_HE: PaillierSum, METHOD_SS: SharedSum}


@dataclass
class SessionResult:
    """All role outputs of one ``run_session``, whose ``SessionConfig`` holds its settings."""

    reduced: np.ndarray
    transfer: np.ndarray
    covariance: np.ndarray
    mean: np.ndarray
    eigenvalues: np.ndarray
    sample_count: int
    angle_bound: float  # on the transfer matrix's error; ServerRole._angle_bound
    transcript: Transcript
    timings: dict[str, float]


class _Role:
    """Shared plumbing: message construction, typed and decoded receive,
    phase tracking, and the one place a failure becomes an abort."""

    def __init__(self, party: int, cfg: SessionConfig):
        self.party = party
        self.cfg = cfg
        self.phase = PHASE_SAMPLE_COUNT
        self.waiting = False  # inside a receive; run_session watches this

    def play(self, ep):
        """Run this role on ``ep``.  Whatever escapes becomes one
        ``ProtocolAbort`` whose reason names this party once: an abort the
        role raised keeps its phase and cause, and anything else is the
        cause of an abort in the role's current phase."""
        try:
            self.run(ep)
        except ProtocolAbort as exc:
            raise ProtocolAbort(exc.phase, f"party {self.party}: {exc.reason}", exc.cause) from exc
        except Exception as exc:
            raise ProtocolAbort(self.phase, f"party {self.party}: {exc}", exc) from exc

    def _send(self, ep, receiver: int, msg_type: MsgType, phase: int, payload: bytes):
        ep.send(
            ProtocolMessage(
                msg_type=msg_type,
                sender=self.party,
                receiver=receiver,
                step=make_step(phase, receiver),
                payload=payload,
            )
        )

    def _recv(self, ep, sender: int, msg_type: MsgType, phase: int, decode, *args):
        """The payload of the next message from ``sender``, a ``msg_type``
        of ``phase``, as ``decode(payload, *args)`` reads it."""
        self.phase = phase
        self.waiting = True
        try:
            msg = ep.recv(sender=sender)
        finally:
            self.waiting = False
        if msg.msg_type != msg_type or msg.phase != phase:
            raise ProtocolAbort(
                phase,
                f"expected {msg_type.name} in phase {phase} from party {sender}, "
                f"got {msg.msg_type.name} in phase {msg.phase}",
            )
        try:
            return decode(msg.payload, *args)
        except FrameFormatError as exc:
            raise ProtocolAbort(
                phase, f"malformed {msg_type.name} from party {sender}: {exc}", exc
            ) from exc

    def _sample_counts(self, ep, rows: int = 0) -> list[int]:
        """Phase 0: a provider sends its row count to the server and every
        other provider; every party holds every provider's count, in
        provider order."""
        others = [j for j in self.cfg.providers if j != self.party]
        if self.party in self.cfg.providers:
            payload = encode_sample_count(rows)
            for receiver in [SERVER, *others]:
                self._send(ep, receiver, MsgType.SAMPLE_COUNT, PHASE_SAMPLE_COUNT, payload)
        return [
            rows if j == self.party
            else self._recv(ep, j, MsgType.SAMPLE_COUNT, PHASE_SAMPLE_COUNT, decode_sample_count)
            for j in self.cfg.providers
        ]


class ProviderRole(_Role):
    """A data provider: owns rows, participates in secure aggregation."""

    def __init__(self, index: int, data, cfg: SessionConfig):
        super().__init__(index, cfg)
        self.data = linalg.check_matrix(data, name=f"provider {index} data")
        self.sum = cfg.secure_sum.for_party(cfg, index)

    def _check_range(self, values: np.ndarray, what: str, fp: FixedPointConfig):
        """Eager overflow guard: the global sum of M local terms, each below
        2^(l-f-1)/M, still fits the round's fixed-point ring ``fp``."""
        bound = fp.max_magnitude / self.cfg.parties
        worst = float(np.max(np.abs(values)))
        if worst >= bound:
            raise ProtocolAbort(
                self.phase,
                f"{what} magnitude {worst:g} exceeds the fixed-point budget {bound:g} "
                f"(l={fp.l}, f={fp.f}, {self.cfg.parties} providers)",
            )

    def _sums_and_squares(self, grid: int) -> np.ndarray:
        """Round 0's values: the column sums, then the sums of squares scaled
        by 2^(g - f), which puts them on a 2^-g grid of the ring.  One past
        its budget (only rows whose sums cancel reach it) is held at half of
        it; the covariance round's budget then stops any term its exponent
        leaves too large."""
        fp = self.cfg.fixed_point
        sums = linalg.column_sums(self.data)
        with np.errstate(over="ignore"):  # an infinite square is held too
            squares = np.ldexp(np.einsum("ij,ij->j", self.data, self.data), grid - fp.f)
        cap = fp.max_magnitude / self.cfg.parties / 2
        return np.concatenate([sums, np.minimum(squares, cap)])

    def _round(self, ep, r: int, local, tag: str, what: str):
        """Round ``r`` of the secure sum: compute the local values as
        ``local()`` in the round's first phase, mask them, send one piece to
        each other combiner, and, as a combiner, add the pieces held and
        send the result to the server."""
        cfg, backend, fp = self.cfg, self.sum, self.cfg.rings[r]
        hop1, hop2 = backend.rounds[r]
        first, second = ROUND_PHASES[r]
        self.phase = first
        values = local().reshape(1, -1)
        self._check_range(values, what, fp)
        combiners = backend.combiners(cfg)
        pieces = dict(zip(combiners, backend.mask(values, f"{tag}/{self.party}", fp)))
        for c in combiners:
            if c != self.party:
                self._send(ep, c, hop1, first, backend.encode(pieces[c], hop1))
        if self.party not in pieces:
            return
        decode = backend.decoder(hop1, values.shape, fp)  # the others' values have this shape
        held = [
            pieces[j] if j == self.party else self._recv(ep, j, hop1, first, decode)
            for j in cfg.providers
        ]
        self._send(ep, SERVER, hop2, second, backend.encode(backend.combine(held), hop2))

    def run(self, ep):
        cfg = self.cfg
        rows, d = self.data.shape
        counts = self._sample_counts(ep, rows)
        n = sum(counts)
        self.sum.setup_provider(self, ep)

        grid = _squares_grid(cfg.fixed_point, cfg.parties, min(counts))
        self._round(ep, 0, lambda: self._sums_and_squares(grid), "sums", "column sums and squares")

        broadcast = self._recv(
            ep, SERVER, MsgType.PLAIN_MEAN, PHASE_MEAN, decode_real_matrix, (2, d)
        )
        mean, scales = linalg.check_vector(broadcast[0], d, "mean"), broadcast[1]
        if not (np.all(np.abs(scales) < 1 << 15) and np.all(scales % 1 == 0)):  # NaN fails too
            raise ProtocolAbort(PHASE_MEAN, "the scale exponents are not integers below 2^15")
        exponents = scales.astype(np.int32)
        # gram centers one row block at a time, so no centered copy is made.
        self._round(
            ep, 1,
            lambda: np.ldexp(
                linalg.upper_triangle(linalg.gram(self.data, mean) / (n - 1)),
                -_pair_exponents(exponents),
            ),
            "cov", "scaled covariance terms",
        )

        transfer = self._recv(
            ep, SERVER, MsgType.TRANSFER_MATRIX, PHASE_TRANSFER, decode_real_matrix, (d, cfg.k)
        )
        self.phase = PHASE_REDUCED
        # project centers one row block at a time and writes its product,
        # big-endian, straight into the payload: the one copy of the rows.
        payload, entries = real_matrix_payload(rows, cfg.k)
        linalg.project(self.data, transfer, mean, entries)
        self._send(ep, cfg.consumer, MsgType.REDUCED_ROWS, PHASE_REDUCED, payload)


class ServerRole(_Role):
    """Decrypts/reconstructs aggregates, eigendecomposes, broadcasts T.

    Has no data input and never sees per-provider values, only sums.
    """

    def __init__(self, cfg: SessionConfig):
        super().__init__(SERVER, cfg)
        self.covariance: np.ndarray | None = None
        self.mean: np.ndarray | None = None
        self.transfer: np.ndarray | None = None
        self.eigenvalues: np.ndarray | None = None
        self.exponents: np.ndarray | None = None  # of the covariance round's scales
        self.sample_count: int | None = None
        self.angle_bound: float | None = None
        self.timings: dict[str, float] = {}
        self.sum = cfg.secure_sum.for_party(cfg, SERVER)

    def _broadcast(self, ep, msg_type: MsgType, phase: int, payload: bytes):
        for j in self.cfg.providers:
            self._send(ep, j, msg_type, phase, payload)

    def _open(self, ep, r: int, shape) -> np.ndarray:
        """Collect round ``r``'s combined pieces, each of ``shape`` (None:
        any), and open their sum."""
        backend, fp = self.sum, self.cfg.rings[r]
        phase = ROUND_PHASES[r][1]
        msg_type = backend.rounds[r][1]
        decode = backend.decoder(msg_type, shape, fp)
        return backend.open(
            [self._recv(ep, c, msg_type, phase, decode) for c in backend.combiners(self.cfg)], fp
        )

    def run(self, ep):
        cfg = self.cfg
        counts = self._sample_counts(ep)
        n = sum(counts)
        if n < 2:
            raise ProtocolAbort(
                PHASE_SAMPLE_COUNT, f"need at least 2 rows overall for covariance, got {n}"
            )
        self.sample_count = n
        self.sum.setup_server(self, ep)
        # Any width: d is learnt here, and full-form pieces bound their own size.
        sums, squares = self._open(ep, 0, None).reshape(2, -1)
        grid = _squares_grid(cfg.fixed_point, cfg.parties, min(counts))
        self.mean = sums / n
        self.exponents = self._exponents(sums, np.ldexp(squares, cfg.fixed_point.f - grid), n, grid)
        self._broadcast(
            ep, MsgType.PLAIN_MEAN, PHASE_MEAN, encode_real_matrix([self.mean, self.exponents])
        )
        d = self.mean.size
        upper = self._open(ep, 1, (1, d * (d + 1) // 2))
        self.covariance = linalg.symmetric_from_upper(
            np.ldexp(upper, _pair_exponents(self.exponents)), d
        )

        if not 1 <= cfg.k < d:
            raise ProtocolAbort(
                PHASE_TRANSFER,
                f"k={cfg.k} must satisfy 1 <= k < d={d}",
            )
        started = time.perf_counter()
        pairs = linalg.jacobi_eigh(self.covariance)
        self.transfer = linalg.top_k_transfer(pairs, cfg.k)
        self.eigenvalues = pairs.values
        self.timings["eigendecomposition"] = time.perf_counter() - started
        self.angle_bound, gap, error = self._angle_bound(n)
        if self.angle_bound > MAX_ANGLE_BOUND:
            fp = cfg.fixed_point
            grid = f"the fixed-point grid of (l, f) = ({fp.l}, {fp.f})"
            if gap <= error:  # C's own gap at k may be zero, which no f resolves
                cause = (
                    f"the opened eigengap at k={cfg.k}, g = {gap:.3g}, is within the "
                    f"error E = {error:.3g} of {grid}: the top-{cfg.k} subspace is "
                    f"unresolved; choose another k, use a larger f or rescale the data"
                )
            else:
                cause = (
                    f"{grid} leaves the transfer matrix unresolved: the sine of its "
                    f"largest principal angle may reach {self.angle_bound:.3g}, above "
                    f"{MAX_ANGLE_BOUND:g}, from the opened eigengap at k={cfg.k}, "
                    f"g = {gap:.3g}, and the grid's error E = {error:.3g}; "
                    f"use a larger f or rescale the data"
                )
            raise ProtocolAbort(PHASE_TRANSFER, cause)
        self._broadcast(
            ep, MsgType.TRANSFER_MATRIX, PHASE_TRANSFER, encode_real_matrix(self.transfer)
        )

    def _exponents(self, sums, squares, n: int, grid: int) -> np.ndarray:
        """Per column j, an e_j with 2^(2 e_j) at least Y_j / (n - 1), and
        within a factor of four of the bound below.  Y_j sums fl(x_j - m_j)^2
        over all rows, for the broadcast mean m, so that by Cauchy-Schwarz a
        provider's covariance term (s, t), at most sqrt(Y_s Y_t) / (n - 1)
        up to its own rounding, is at most 1 once scaled by 2^-(e_s + e_t).

        With S and Q the exact column sums and sums of squares, S' and Q'
        the opened ones, M providers and u = 2^-53:

        - Q <= Q+ = (Q' + M 2^-g) / (1 - gamma_n): each provider's float
          sum of squares is within gamma_n = n u / (1 - n u) of its exact
          one, and its encoding within 2^-(g+1), and what scaling by
          2^(g-f) may drop;
        - |S' - S| <= eps = M 2^-(f+1) + u sqrt(n Q+): each provider's
          column sum is correctly rounded, and sum_i |S_i| <= sqrt(n Q);
        - the mean is off by delta, |delta| <= (u |S'| + eps) / n, its own
          rounding included, and Y <= (1 + u)^2 ((n - 1) C + n delta^2);
        - (n - 1) C = Q - S^2 / n <= Q+ - max(0, |S'| - eps)^2 / n.

        This computation's own rounding is covered by adding 2^-40 Q+, and
        the providers' (the centering, the Gram's rounding and the division
        by n - 1) by a factor 1 + 2^-20.
        """
        fp, m, u = self.cfg.fixed_point, self.cfg.parties, 2.0**-53
        # Honest sums of squares are not negative; a corrupt one costs no NaN.
        high = (np.maximum(squares, 0.0) + m * 2.0**-grid) / (1 - n * u / (1 - n * u))
        eps = m * 2.0 ** -(fp.f + 1) + u * np.sqrt(n * high)
        low = np.maximum(np.abs(sums) - eps, 0.0)
        delta = (u * np.abs(sums) + eps) / n
        bound = (high - low * low / n + n * delta * delta + 2.0**-40 * high) / (n - 1)
        # bound (1 + 2^-20) < 2^k, so 2^(2 e) for e = ceil(k / 2) is above it.
        return -(-np.frexp(bound * (1 + 2.0**-20))[1] // 2)

    def _angle_bound(self, n: int) -> tuple[float, float, float]:
        """A bound on the sine of the largest principal angle between the
        transfer matrix and the top-k eigenvectors of the exact covariance C,
        with the opened eigengap g at k and the grids' error E it rests on.

        Every provider rounds its covariance term (s, t) to the covariance
        ring's 2^-f' grid at the scale 2^(e_s + e_t), so the opened entry is
        off by at most M 2^-(f'+1) 2^(e_s + e_t), and the opened covariance
        by E = M 2^-(f'+1) sum_s 2^(2 e_s) in Frobenius norm, plus the
        mean's share: centering at a mean off by delta, itself round 0's
        2^-f grid over n, adds n/(n-1) delta delta^T.  By Weyl, C's eigengap
        at k is at least the opened one, g, less E, and by Davis and Kahan's
        sin-theta theorem the sine is at most E / (g - E); infinite when
        g <= E.
        """
        cfg, values = self.cfg, self.eigenvalues
        d, m = values.size, cfg.parties
        step, cov_step = (2.0 ** -(fp.f + 1) for fp in cfg.rings)
        scales = float(np.sum(np.ldexp(1.0, 2 * self.exponents)))
        error = m * cov_step * scales + n / (n - 1) * d * (m * step / n) ** 2
        gap = float(values[cfg.k - 1] - values[cfg.k])
        return (error / (gap - error) if gap > error else math.inf), gap, error


class ConsumerRole(_Role):
    """Receives the reduced rows, stacked in provider order."""

    def __init__(self, cfg: SessionConfig):
        super().__init__(cfg.consumer, cfg)
        self.reduced: np.ndarray | None = None

    def run(self, ep):
        shape = (None, self.cfg.k)  # any number of rows, each k wide
        blocks = [  # big-endian views of the payloads, converted once below
            self._recv(ep, j, MsgType.REDUCED_ROWS, PHASE_REDUCED, decode_real_matrix, shape)
            for j in self.cfg.providers
        ]
        self.reduced = np.concatenate(blocks, dtype=np.float64)


def _pair_exponents(exponents: np.ndarray) -> np.ndarray:
    """e_s + e_t for each upper-triangle entry (s, t), in the order of
    ``linalg.upper_triangle``.  The exponents are int32, which keeps
    ``np.ldexp`` on its vector loop; int64 ones take a libm call per entry."""
    rows, cols = np.triu_indices(len(exponents))
    return exponents[rows] + exponents[cols]


def _provider_roles(cfg: SessionConfig, data) -> list[ProviderRole]:
    """One role per provider, over its checked block, once the blocks agree
    with each other and with the config."""
    if len(data) != cfg.parties:
        raise ConfigError(
            f"config names {cfg.parties} providers but {len(data)} matrices given"
        )
    providers = [ProviderRole(i, x, cfg) for i, x in zip(cfg.providers, data)]
    matrices = [p.data for p in providers]
    widths = {m.shape[1] for m in matrices}
    if len(widths) != 1:
        raise DimensionError(
            f"providers disagree on column count: {sorted(widths)}"
        )
    d = widths.pop()
    if not 1 <= cfg.k < d:
        raise ConfigError(f"k={cfg.k} must satisfy 1 <= k < d={d}")
    return providers


_NETWORKS = {"sim": SimulatedNetwork, "tcp": TcpNetwork}


def _watch(
    threads: list[threading.Thread], roles: list[_Role], network, window: float
) -> ProtocolAbort | None:
    """Join the role threads, aborting the network if the session stalls.

    The session is stalled when two checks a whole ``window`` apart both
    find every unfinished role waiting, the same number of messages
    consumed and the same number of roles finished.  Returns the stall, in
    the lowest phase any waiting role is in, or None if there was none.
    """
    last = stall = None
    while True:
        deadline = time.monotonic() + window
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
        running = [role for role, t in zip(roles, threads) if t.is_alive()]
        if not running:
            return stall
        state = None
        if all(role.waiting for role in running):
            state = (len(network.transcript), len(running))
            if state == last and stall is None:
                reason = (
                    f"session stalled: no progress within {window:g}s ("
                    + ", ".join(f"party {r.party} in phase {r.phase}" for r in running)
                    + ")"
                )
                stall = ProtocolAbort(min(r.phase for r in running), reason)
                network.abort(reason)
        last = state


def run_session(
    cfg: SessionConfig, data, transport: str = "sim"
) -> SessionResult:
    """Execute a full session with every role in this process.

    ``transport`` names the network, built from the party list: the
    in-process bus (``"sim"``) or loopback TCP (``"tcp"``); both produce
    identical transcripts for identical seeds.  Receives do not time out;
    instead the session is watched, and aborted once it has stalled for
    ``cfg.timeout`` seconds.  A role that fails ends its channels, as its
    process ending would, and the session raises the first root failure in
    party order: server, providers, consumer.
    """
    providers = _provider_roles(cfg, data)
    if transport not in _NETWORKS:
        raise ConfigError(f"unknown transport {transport!r}")
    server = ServerRole(cfg)
    consumer = ConsumerRole(cfg)
    roles = [server, *providers, consumer]
    network = _NETWORKS[transport]([role.party for role in roles], timeout=None)
    failures: list[BaseException | None] = [None] * len(roles)  # one slot per role

    def _drive(slot: int, role: _Role):
        try:
            role.play(network.endpoint(role.party))
        except BaseException as exc:  # noqa: BLE001 - must end its channels
            failures[slot] = exc
            network.leave(role.party, str(exc))

    started = time.perf_counter()
    threads = [
        threading.Thread(target=_drive, args=(slot, role), name=f"pppca-party-{role.party}")
        for slot, role in enumerate(roles)
    ]
    try:
        for t in threads:
            t.start()
        stall = _watch(threads, roles, network, cfg.timeout)
    except BaseException:
        network.abort("session interrupted")
        raise
    finally:
        network.close()
    total = time.perf_counter() - started

    if stall is not None:
        # Every role then fails with TransportClosed, which blames no one.
        raise stall
    failed = [exc for exc in failures if exc is not None]
    if failed:
        # Not the TransportClosed cascade of the channels that failed roles ended.
        raise min(
            failed, key=lambda exc: isinstance(getattr(exc, "cause", None), TransportClosed)
        )

    timings = {"total": total, **{f"server.{k}": v for k, v in server.timings.items()}}
    return SessionResult(
        reduced=consumer.reduced,
        transfer=server.transfer,
        covariance=server.covariance,
        mean=server.mean,
        eigenvalues=server.eigenvalues,
        sample_count=server.sample_count,
        angle_bound=server.angle_bound,
        transcript=network.transcript,
        timings=timings,
    )


# --- secure sums without a transport, for direct verification ----------------


def _terms(matrices) -> list[np.ndarray]:
    arrays = [np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise DimensionError(f"mismatched shapes {sorted(shapes)}")
    return arrays


def _sum_without_transport(backend: SecureSum, arrays: list, fp: FixedPointConfig) -> np.ndarray:
    """Mask every term, let each combiner add the pieces meant for it, and
    open the combined pieces on the ring ``fp``: a session's round with the
    hops as calls."""
    masked = [backend.mask(a, f"term/{i}", fp) for i, a in enumerate(arrays)]
    return backend.open([backend.combine(list(held)) for held in zip(*masked)], fp)


def secure_sum_he(
    matrices,
    pk: paillier.PublicKey,
    sk: paillier.PrivateKey,
    rng: random.Random | None = None,
    fixed_point: FixedPointConfig = FixedPointConfig(),
) -> np.ndarray:
    """The HE aggregation dataflow: encrypt each matrix, fold ciphertexts,
    decrypt the single aggregate.  Unlike a session, it checks no term
    against a budget and opens the ring sum mod 2^l: a true sum beyond the
    ring's range wraps, as in ``secure_sum_ss``."""
    arrays = _terms(matrices)
    return _sum_without_transport(PaillierSum(len(arrays), pk, sk, rng), arrays, fixed_point)


def secure_sum_ss(
    matrices,
    fixed_point: FixedPointConfig = FixedPointConfig(),
    prg: CounterPRG | None = None,
) -> np.ndarray:
    """The SS aggregation dataflow: share each matrix among the holders,
    sum shares locally per party, reconstruct only the total.  Unlike a
    session, it checks no term against a budget and opens the ring sum mod
    2^l, so a true sum beyond the ring's range wraps: at (l, f) = (64, 24)
    two terms of 2^38.5 sum to -3.22e11, not 7.77e11."""
    generator = prg if prg is not None else CounterPRG(CounterPRG.random_seed())
    arrays = _terms(matrices)
    if len(arrays) == 1:
        # Degenerate single holder: nothing to share, just the encoding trip.
        return matrix_decode_fixed(matrix_encode_fixed(arrays[0], fixed_point), fixed_point)
    return _sum_without_transport(SharedSum(len(arrays), generator), arrays, fixed_point)
