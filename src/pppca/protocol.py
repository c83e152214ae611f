"""The private PCA protocol: roles, sessions, and secure aggregation.

Three roles cooperate so that no party ever sees another party's plaintext
rows:

* data providers (parties 1..M) hold the horizontally partitioned rows,
* the server (party 0) decrypts or reconstructs aggregates, eigendecomposes
  the covariance, and broadcasts the transfer matrix,
* the data consumer (party M+1) receives only the dimension-reduced rows.

Secure addition is pluggable (:class:`SecureSum`): the HE back end encrypts
local matrices under the server's Paillier key and lets one designated
provider p fold ciphertexts; the SS back end additively secret-shares local
matrices among the providers and lets the server reconstruct only the sum of
local share sums.  Either way a round has two hops: every provider masks its
values and sends one piece to each *combiner* other than itself; each
combiner adds the pieces it holds and sends the result to the server, which
opens the total.

Session flow (phases appear in transcripts and error messages); s is the
back end's first phase:

    0    providers exchange sample counts with the server and each other
    1    HE only: the server broadcasts its public key
    s    providers send masked column sums to the combiners
    s+1  combiners send their sums to the server, which opens the total
    s+2  the server broadcasts the mean
    s+4  providers center locally and send masked covariance terms, only
         the d(d+1)/2 upper-triangle entries of the symmetric matrix
    s+5  combiners send their sums to the server, which opens the total
         and mirrors it into the covariance
    8    the server broadcasts the transfer matrix
    9    providers send reduced rows to the consumer

    back end  s  masking                                  combiners
    he        2  Paillier encryption of signed ring ints  provider p
    ss        1  n-of-n shares of ring elements           every provider

Both back ends encode into one fixed-point ring Z_{2^l}
(``SessionConfig.fixed_point``): ``ss`` shares the ring elements, ``he``
encrypts their signed reading round(x * 2^f) and reduces the decrypted sum
mod 2^l.  Each provider's values must stay below 2^(l-f-1)/M, and both back
ends open bit-identical sums.

Sample counts travel in plaintext: both the mean (divide by n) and each
local covariance term (scale by 1/(n-1)) need the global row count.  They
are treated as non-sensitive session metadata; deployments for which row
counts are themselves secret need a different protocol.

``SessionConfig.timeout`` bounds a single receive.  When every role runs in
one process (:func:`run_session`), a receive that times out waits again
while any other role is still computing, so a session that is alive never
aborts; only a stalled session, in which every unfinished role is waiting
and none has moved for a whole timeout, aborts with an error naming the
waiting parties and their phases.  A role run on its own (``pppca role``)
cannot see its peers, and a timed-out receive ends it.
"""

from __future__ import annotations

import functools
import hashlib
import random
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, paillier
from .encoding import (
    FixedPointConfig,
    matrix_decode_fixed,
    matrix_encode_fixed,
    matrix_signed,
)
from .errors import (
    ConfigError,
    DimensionError,
    ProtocolAbort,
    TransportError,
    TransportTimeout,
)
from .messages import (
    MsgType,
    ProtocolMessage,
    Transcript,
    decode_encrypted_matrix,
    decode_public_key,
    decode_real_matrix,
    decode_sample_count,
    decode_share_matrix,
    encode_encrypted_matrix,
    encode_public_key,
    encode_real_matrix,
    encode_sample_count,
    encode_share_matrix,
    make_step,
)
from .sharing import CounterPRG, add_local_matrix, reconstruct_matrix, share_matrix
from .transport import DEFAULT_TIMEOUT, SimulatedNetwork, TcpNetwork

SERVER = 0

METHOD_HE = "he"
METHOD_SS = "ss"

PHASE_SAMPLE_COUNT = 0
PHASE_PUBLIC_KEY = 1
PHASE_SHARE_COV = 5  # the SS covariance round's first hop
PHASE_TRANSFER = 8
PHASE_REDUCED = 9


def consumer_index(parties: int) -> int:
    return parties + 1


def provider_indices(parties: int) -> list[int]:
    return list(range(1, parties + 1))


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
    aggregator: int = 1
    fixed_point: FixedPointConfig = field(default_factory=FixedPointConfig)
    key_bits: int = paillier.DEFAULT_KEY_BITS
    allow_test_key: bool = False
    seed: int | None = None
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if self.method not in SECURE_SUMS:
            raise ConfigError(f"method must be '{METHOD_HE}' or '{METHOD_SS}'")
        if self.parties < 2:
            raise ConfigError(f"need at least 2 data providers, got {self.parties}")
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        self.secure_sum.check_config(self)

    @property
    def secure_sum(self) -> type[SecureSum]:
        """The secure-sum back end; the one place ``method`` is read."""
        return SECURE_SUMS[self.method]

    @property
    def consumer(self) -> int:
        return consumer_index(self.parties)

    @property
    def providers(self) -> list[int]:
        return provider_indices(self.parties)


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

    Table: ``first_phase`` s (round r uses phases s+4r and s+4r+1, the mean
    goes out in s+2), ``setup`` (the server's broadcasts before round 0, as
    (type, phase) pairs), ``rounds`` (the hop-1 and hop-2 message types of
    the sums and the covariance round) and :meth:`combiners` (the hop-1
    receivers and hop-2 senders).  Every provider sends hop 1 to every
    combiner other than itself.

    Steps: :meth:`mask` turns a provider's values into one piece per
    combiner, :meth:`combine` adds the pieces a combiner holds, and
    :meth:`open` turns the combined pieces into the plaintext sum.
    """

    first_phase: int
    setup: tuple[tuple[MsgType, int], ...] = ()
    rounds: tuple[tuple[MsgType, MsgType], ...]

    @classmethod
    def phases(cls, r: int) -> tuple[int, int]:
        return cls.first_phase + 4 * r, cls.first_phase + 4 * r + 1

    @classmethod
    def mean_phase(cls) -> int:
        return cls.first_phase + 2

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
    """Paillier encryption under the server's key; provider p folds."""

    first_phase = 2
    setup = ((MsgType.PUBLIC_KEY, PHASE_PUBLIC_KEY),)
    rounds = (
        (MsgType.ENCRYPTED_SUMS, MsgType.ENCRYPTED_SUM_AGGREGATE),
        (MsgType.ENCRYPTED_COV, MsgType.ENCRYPTED_COV_AGGREGATE),
    )

    def __init__(self, fixed_point: FixedPointConfig, pk=None, sk=None, rng=None):
        self.fp, self.pk, self.sk, self.rng = fixed_point, pk, sk, rng

    @classmethod
    def for_party(cls, cfg: SessionConfig, party: int) -> PaillierSum:
        return cls(cfg.fixed_point, rng=_rng_for(cfg, f"encrypt/{party}"))

    @staticmethod
    def combiners(cfg: SessionConfig) -> list[int]:
        return [cfg.aggregator]

    @staticmethod
    def check_config(cfg: SessionConfig):
        if not 1 <= cfg.aggregator <= cfg.parties - 1:
            raise ConfigError(
                f"aggregator must be a provider index in [1, {cfg.parties - 1}], "
                f"got {cfg.aggregator}"
            )

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
        msg = role._recv(ep, SERVER, MsgType.PUBLIC_KEY, PHASE_PUBLIC_KEY)
        self.pk = decode_public_key(msg.payload)

    def mask(self, values, secret_id: str) -> list:
        # The signed integers, not the ring elements: a sum of two's-complement
        # values would carry one 2^l per negative term into the plaintext.
        signed = matrix_signed(matrix_encode_fixed(values, self.fp), self.fp)
        return [paillier.enc_matrix(self.pk, signed, self.rng)]

    def combine(self, pieces: list):
        return functools.reduce(functools.partial(paillier.add_enc_matrix, self.pk), pieces)

    def open(self, pieces: list) -> np.ndarray:
        ring = paillier.dec_matrix(self.sk, pieces[0]) % self.fp.modulus
        return matrix_decode_fixed(ring, self.fp)

    def encode(self, piece) -> bytes:
        return encode_encrypted_matrix(piece)

    def decode(self, payload: bytes):
        return decode_encrypted_matrix(payload, self.pk)


class SharedSum(SecureSum):
    """n-of-n additive shares of fixed-point values; every provider combines."""

    first_phase = 1
    rounds = ((MsgType.SHARE_BUNDLE, MsgType.LOCAL_SHARE_SUM),) * 2

    def __init__(self, fixed_point: FixedPointConfig, parties: int, prg: CounterPRG):
        self.fp, self.parties, self.prg = fixed_point, parties, prg

    @classmethod
    def for_party(cls, cfg: SessionConfig, party: int) -> SharedSum:
        return cls(cfg.fixed_point, cfg.parties, _prg_for(cfg, f"shares/{party}"))

    @staticmethod
    def combiners(cfg: SessionConfig) -> list[int]:
        return cfg.providers

    def mask(self, values, secret_id: str) -> list:
        ring = matrix_encode_fixed(values, self.fp)
        return share_matrix(ring, self.parties, self.fp.l, self.prg, secret_id=secret_id)

    def combine(self, pieces: list):
        return add_local_matrix(pieces)

    def open(self, pieces: list) -> np.ndarray:
        ring = reconstruct_matrix(pieces, party_count=self.parties)
        return matrix_decode_fixed(ring, self.fp)

    def encode(self, piece) -> bytes:
        return encode_share_matrix(piece)

    def decode(self, payload: bytes):
        return decode_share_matrix(payload)


SECURE_SUMS: dict[str, type[SecureSum]] = {METHOD_HE: PaillierSum, METHOD_SS: SharedSum}


@dataclass
class SessionResult:
    """Combined view of all role outputs after a simulated session."""

    method: str
    reduced: np.ndarray
    transfer: np.ndarray
    covariance: np.ndarray
    mean: np.ndarray
    eigenvalues: np.ndarray
    sample_count: int
    transcript: Transcript
    timings: dict[str, float]


class _SessionMonitor:
    """Which roles of an in-process session are computing, blocked in a
    receive, or finished.

    Every change of state counts as progress.  The session is stalled when
    every unfinished role is blocked and nothing has changed since a given
    mark.
    """

    def __init__(self, parties):
        self._lock = threading.Lock()
        self._unfinished = set(parties)
        self._waiting: dict[int, int] = {}
        self._progress = 0

    def _changed(self):
        self._progress += 1
        return self._progress

    def blocked(self, party: int, phase: int) -> int:
        """Mark ``party`` as waiting in ``phase``; returns the progress mark."""
        with self._lock:
            self._waiting[party] = phase
            return self._changed()

    def resumed(self, party: int):
        with self._lock:
            self._waiting.pop(party, None)
            self._changed()

    def finished(self, party: int):
        with self._lock:
            self._waiting.pop(party, None)
            self._unfinished.discard(party)
            self._changed()

    def check(self, mark: int) -> tuple[int, str | None]:
        """After a timed-out wait begun at ``mark``: return a fresh mark and
        ``None`` while the session is alive, else a description of the stall."""
        with self._lock:
            if self._progress != mark or self._unfinished - self._waiting.keys():
                return self._progress, None
            return mark, ", ".join(
                f"party {j} in phase {phase}"
                for j, phase in sorted(self._waiting.items())
            )


class _Role:
    """Shared plumbing: message construction, typed receive, phase tracking."""

    def __init__(self, party: int, cfg: SessionConfig):
        self.party = party
        self.cfg = cfg
        self.phase = PHASE_SAMPLE_COUNT
        # Set by run_session; a role run on its own has no view of its peers.
        self.monitor: _SessionMonitor | None = None

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

    def _recv(self, ep, sender: int, msg_type: MsgType, phase: int) -> ProtocolMessage:
        self.phase = phase
        monitor = self.monitor
        if monitor is None:
            msg = ep.recv(sender=sender)
        else:
            msg = self._recv_monitored(ep, monitor, sender, phase)
        if msg.msg_type != msg_type or msg.phase != phase:
            raise ProtocolAbort(
                phase,
                f"party {self.party} expected {msg_type.name} in phase {phase} "
                f"from party {sender}, got {msg.msg_type.name} in phase {msg.phase}",
            )
        return msg

    def _recv_monitored(
        self, ep, monitor: _SessionMonitor, sender: int, phase: int
    ) -> ProtocolMessage:
        """Receive, waiting out timeouts for as long as the session moves."""
        mark = monitor.blocked(self.party, phase)
        try:
            while True:
                try:
                    return ep.recv(sender=sender)
                except TransportTimeout:
                    mark, stall = monitor.check(mark)
                    if stall is not None:
                        raise ProtocolAbort(
                            phase,
                            f"party {self.party}: session stalled waiting for "
                            f"party {sender}: no progress within "
                            f"{self.cfg.timeout:g}s ({stall})",
                        ) from None
        finally:
            monitor.resumed(self.party)

    def _exchange_sample_counts(self, ep, rows: int) -> int:
        """Phase 0: broadcast own row count, collect the others', return n."""
        cfg = self.cfg
        payload = encode_sample_count(rows)
        receivers = [SERVER] + [j for j in cfg.providers if j != self.party]
        for receiver in sorted(receivers):
            self._send(ep, receiver, MsgType.SAMPLE_COUNT, PHASE_SAMPLE_COUNT, payload)
        total = rows
        for j in cfg.providers:
            if j == self.party:
                continue
            msg = self._recv(ep, j, MsgType.SAMPLE_COUNT, PHASE_SAMPLE_COUNT)
            total += decode_sample_count(msg.payload)
        return total


class ProviderRole(_Role):
    """A data provider: owns rows, participates in secure aggregation."""

    def __init__(self, index: int, data, cfg: SessionConfig):
        super().__init__(index, cfg)
        self.data = linalg.check_matrix(data, name=f"provider {index} data")
        self.sum = cfg.secure_sum.for_party(cfg, index)

    def _check_range(self, values: np.ndarray, what: str):
        """Eager overflow guard: the global sum of M local terms, each below
        2^(l-f-1)/M, still fits the fixed-point ring."""
        bound = self.cfg.fixed_point.max_magnitude / self.cfg.parties
        worst = float(np.max(np.abs(values)))
        if worst >= bound:
            raise ProtocolAbort(
                self.phase,
                f"party {self.party}: {what} magnitude {worst:g} exceeds the "
                f"fixed-point budget {bound:g} (l={self.cfg.fixed_point.l}, "
                f"f={self.cfg.fixed_point.f}, {self.cfg.parties} providers)",
            )

    def _round(self, ep, r: int, values: np.ndarray, tag: str, what: str):
        """Round ``r`` of the secure sum: mask local values, send one piece
        to each other combiner, and, as a combiner, add the pieces held and
        send the result to the server."""
        cfg, backend = self.cfg, self.sum
        hop1, hop2 = backend.rounds[r]
        first, second = backend.phases(r)
        self.phase = first
        self._check_range(values, what)
        combiners = backend.combiners(cfg)
        pieces = dict(zip(combiners, backend.mask(values, f"{tag}/{self.party}")))
        for c in combiners:
            if c != self.party:
                self._send(ep, c, hop1, first, backend.encode(pieces[c]))
        if self.party not in pieces:
            return
        held = [
            pieces[j] if j == self.party
            else backend.decode(self._recv(ep, j, hop1, first).payload)
            for j in cfg.providers
        ]
        self._send(ep, SERVER, hop2, second, backend.encode(backend.combine(held)))

    def run(self, ep):
        cfg = self.cfg
        n = self._exchange_sample_counts(ep, self.data.shape[0])
        self.sum.setup_provider(self, ep)

        sums = linalg.column_sums(self.data).reshape(1, -1)
        self._round(ep, 0, sums, "sums", "column sums")

        msg = self._recv(ep, SERVER, MsgType.PLAIN_MEAN, self.sum.mean_phase())
        mean = decode_real_matrix(msg.payload).ravel()
        centered = linalg.center_columns(self.data, mean)

        local_cov = linalg.gram(centered) / (n - 1)
        triangle = linalg.upper_triangle(local_cov).reshape(1, -1)
        self._round(ep, 1, triangle, "cov", "covariance terms")

        msg = self._recv(ep, SERVER, MsgType.TRANSFER_MATRIX, PHASE_TRANSFER)
        transfer = decode_real_matrix(msg.payload)
        self.phase = PHASE_REDUCED
        reduced = linalg.project(centered, transfer)
        self._send(
            ep,
            cfg.consumer,
            MsgType.REDUCED_ROWS,
            PHASE_REDUCED,
            encode_real_matrix(reduced),
        )


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
        self.sample_count: int | None = None
        self.timings: dict[str, float] = {}
        self.sum = cfg.secure_sum.for_party(cfg, SERVER)

    def _collect_sample_counts(self, ep) -> int:
        total = 0
        for j in self.cfg.providers:
            msg = self._recv(ep, j, MsgType.SAMPLE_COUNT, PHASE_SAMPLE_COUNT)
            total += decode_sample_count(msg.payload)
        if total < 2:
            raise ProtocolAbort(
                PHASE_SAMPLE_COUNT,
                f"need at least 2 rows overall for covariance, got {total}",
            )
        self.sample_count = total
        return total

    def _broadcast(self, ep, msg_type: MsgType, phase: int, payload: bytes):
        for j in self.cfg.providers:
            self._send(ep, j, msg_type, phase, payload)

    def _open(self, ep, r: int) -> np.ndarray:
        """Collect round ``r``'s combined pieces and open their sum."""
        backend = self.sum
        _, phase = backend.phases(r)
        self.phase = phase
        msg_type = backend.rounds[r][1]
        return backend.open([
            backend.decode(self._recv(ep, c, msg_type, phase).payload)
            for c in backend.combiners(self.cfg)
        ])

    def run(self, ep):
        cfg = self.cfg
        n = self._collect_sample_counts(ep)
        self.sum.setup_server(self, ep)
        self.mean = (self._open(ep, 0) / n).ravel()
        self._broadcast(
            ep,
            MsgType.PLAIN_MEAN,
            self.sum.mean_phase(),
            encode_real_matrix(self.mean.reshape(1, -1)),
        )
        d = self.mean.size
        self.covariance = linalg.symmetric_from_upper(self._open(ep, 1), d)

        started = time.perf_counter()
        pairs = linalg.jacobi_eigh(self.covariance)
        if not 1 <= cfg.k < d:
            raise ProtocolAbort(
                PHASE_TRANSFER,
                f"k={cfg.k} must satisfy 1 <= k < d={d}",
            )
        self.transfer = linalg.top_k_transfer(pairs, cfg.k)
        self.eigenvalues = pairs.values
        self.timings["eigendecomposition"] = time.perf_counter() - started
        self._broadcast(
            ep, MsgType.TRANSFER_MATRIX, PHASE_TRANSFER, encode_real_matrix(self.transfer)
        )


class ConsumerRole(_Role):
    """Receives the reduced rows, stacked in provider order."""

    def __init__(self, cfg: SessionConfig):
        super().__init__(consumer_index(cfg.parties), cfg)
        self.reduced: np.ndarray | None = None

    def run(self, ep):
        blocks = []
        for j in self.cfg.providers:
            msg = self._recv(ep, j, MsgType.REDUCED_ROWS, PHASE_REDUCED)
            blocks.append(decode_real_matrix(msg.payload))
        widths = {b.shape[1] for b in blocks}
        if len(widths) != 1:
            raise ProtocolAbort(
                PHASE_REDUCED, f"providers sent mismatched widths {sorted(widths)}"
            )
        self.reduced = np.vstack(blocks)


def _validate_inputs(cfg: SessionConfig, data) -> list[np.ndarray]:
    if len(data) != cfg.parties:
        raise ConfigError(
            f"config names {cfg.parties} providers but {len(data)} matrices given"
        )
    matrices = [
        linalg.check_matrix(x, name=f"provider {i} data")
        for i, x in zip(cfg.providers, data)
    ]
    widths = {m.shape[1] for m in matrices}
    if len(widths) != 1:
        raise DimensionError(
            f"providers disagree on column count: {sorted(widths)}"
        )
    d = widths.pop()
    if not 1 <= cfg.k < d:
        raise ConfigError(f"k={cfg.k} must satisfy 1 <= k < d={d}")
    if sum(m.shape[0] for m in matrices) < 2:
        raise ConfigError("need at least 2 rows overall")
    return matrices


def run_session(
    cfg: SessionConfig, data, transport: str = "sim"
) -> SessionResult:
    """Execute a full session with every role in this process.

    ``transport`` selects the in-process bus (``"sim"``) or loopback TCP
    (``"tcp"``); both produce identical transcripts for identical seeds.
    """
    matrices = _validate_inputs(cfg, data)
    parties = [SERVER] + cfg.providers + [cfg.consumer]
    transcript = Transcript()
    if transport == "sim":
        network = SimulatedNetwork(transcript, timeout=cfg.timeout)
        endpoints = {party: network.endpoint(party) for party in parties}
    elif transport == "tcp":
        network = TcpNetwork(parties, transcript, timeout=cfg.timeout)
        endpoints = {party: network.endpoint(party) for party in parties}
    else:
        raise ConfigError(f"unknown transport {transport!r}")

    server = ServerRole(cfg)
    providers = [
        ProviderRole(i, m, cfg) for i, m in zip(cfg.providers, matrices)
    ]
    consumer = ConsumerRole(cfg)
    roles = [server, *providers, consumer]
    monitor = _SessionMonitor(parties)
    for role in roles:
        role.monitor = monitor

    failures: list[tuple[_Role, BaseException]] = []
    failure_lock = threading.Lock()

    def _drive(role: _Role):
        try:
            role.run(endpoints[role.party])
        except BaseException as exc:  # noqa: BLE001 - must fan out the abort
            with failure_lock:
                failures.append((role, exc))
            network.abort(f"party {role.party} failed: {exc}")
        finally:
            monitor.finished(role.party)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=_drive, args=(role,), name=f"pppca-party-{role.party}")
        for role in roles
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = time.perf_counter() - started
    if transport == "tcp":
        network.close()

    if failures:
        # Report the root cause, not the TransportClosed cascade it triggers.
        root = min(
            failures,
            key=lambda item: isinstance(item[1], TransportError),
        )
        role, exc = root
        if isinstance(exc, ProtocolAbort):
            raise exc
        raise ProtocolAbort(
            role.phase, f"party {role.party}: {exc}", cause=exc
        ) from exc

    timings = {"total": total, **{f"server.{k}": v for k, v in server.timings.items()}}
    return SessionResult(
        method=cfg.method,
        reduced=consumer.reduced,
        transfer=server.transfer,
        covariance=server.covariance,
        mean=server.mean,
        eigenvalues=server.eigenvalues,
        sample_count=server.sample_count,
        transcript=transcript,
        timings=timings,
    )


def run_he(cfg: SessionConfig, data) -> SessionResult:
    """Run the homomorphic-encryption session on the simulation bus."""
    return run_session(replace(cfg, method=METHOD_HE), data, transport="sim")


def run_ss(cfg: SessionConfig, data) -> SessionResult:
    """Run the secret-sharing session on the simulation bus."""
    return run_session(replace(cfg, method=METHOD_SS), data, transport="sim")


# --- secure sums without a transport, for direct verification ----------------


def _terms(matrices) -> list[np.ndarray]:
    arrays = [np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise DimensionError(f"mismatched shapes {sorted(shapes)}")
    return arrays


def _sum_without_transport(backend: SecureSum, arrays: list[np.ndarray]) -> np.ndarray:
    """Mask every term, let each combiner add the pieces meant for it, and
    open the combined pieces: a session's round with the hops as calls."""
    masked = [backend.mask(a, f"term/{i}") for i, a in enumerate(arrays)]
    return backend.open([backend.combine(list(held)) for held in zip(*masked)])


def secure_sum_he(
    matrices,
    pk: paillier.PublicKey,
    sk: paillier.PrivateKey,
    rng: random.Random | None = None,
    fixed_point: FixedPointConfig | None = None,
) -> np.ndarray:
    """The HE aggregation dataflow: encrypt each matrix, fold ciphertexts,
    decrypt the single aggregate."""
    fp = fixed_point if fixed_point is not None else FixedPointConfig()
    return _sum_without_transport(PaillierSum(fp, pk, sk, rng), _terms(matrices))


def secure_sum_ss(
    matrices,
    fixed_point: FixedPointConfig | None = None,
    prg: CounterPRG | None = None,
) -> np.ndarray:
    """The SS aggregation dataflow: share each matrix among the holders,
    sum shares locally per party, reconstruct only the total."""
    fp = fixed_point if fixed_point is not None else FixedPointConfig()
    generator = prg if prg is not None else CounterPRG(CounterPRG.random_seed())
    arrays = _terms(matrices)
    if len(arrays) == 1:
        # Degenerate single holder: nothing to share, just the encoding trip.
        return matrix_decode_fixed(matrix_encode_fixed(arrays[0], fp), fp)
    return _sum_without_transport(SharedSum(fp, len(arrays), generator), arrays)
