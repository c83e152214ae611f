"""Transcript audits: what each party is allowed to see.

The protocol is honest-but-curious secure only if the message routing obeys
a closed policy:

* reduced rows travel exclusively to the data consumer,
* under ``he``, provider 1, which folds the ciphertexts, receives, beyond
  broadcasts, only ciphertext payloads (never a plaintext sum),
* the server receives only aggregates, never a per-provider term,
* ordinary providers receive only the public key, the broadcast mean and
  transfer matrix, share bundles, and sample counts,
* the consumer receives nothing but reduced rows.

:func:`assert_privacy` replays a transcript against this policy (and against
the exact route table of the configured method) and returns the list of
violations; an empty list is a pass.
"""

from __future__ import annotations

from collections import Counter

from .messages import MsgType, ProtocolMessage, Transcript
from .protocol import (
    METHOD_HE,
    PHASE_MEAN,
    PHASE_REDUCED,
    PHASE_SAMPLE_COUNT,
    PHASE_TRANSFER,
    ROUND_PHASES,
    SERVER,
    SessionConfig,
)

BROADCAST_TYPES = frozenset(
    {MsgType.PUBLIC_KEY, MsgType.PLAIN_MEAN, MsgType.TRANSFER_MATRIX}
)
CIPHERTEXT_TYPES = frozenset({MsgType.ENCRYPTED_SUMS, MsgType.ENCRYPTED_COV})
AGGREGATE_TYPES = frozenset(
    {
        MsgType.ENCRYPTED_SUM_AGGREGATE,
        MsgType.ENCRYPTED_COV_AGGREGATE,
        MsgType.LOCAL_SHARE_SUM,
    }
)
# Sample counts are session metadata every provider and the server may see.
PROVIDER_TYPES = frozenset(
    {
        MsgType.PUBLIC_KEY,
        MsgType.PLAIN_MEAN,
        MsgType.TRANSFER_MATRIX,
        MsgType.SHARE_BUNDLE,
        MsgType.SAMPLE_COUNT,
    }
)


def legal_routes(cfg: SessionConfig) -> set[tuple[MsgType, int, int, int]]:
    """Every (type, phase, sender, receiver) the algorithm permits, derived
    from the route table of the session's secure-sum back end."""
    backend = cfg.secure_sum
    providers = cfg.providers
    broadcasts = [
        *backend.setup,
        (MsgType.PLAIN_MEAN, PHASE_MEAN),
        (MsgType.TRANSFER_MATRIX, PHASE_TRANSFER),
    ]
    routes: set[tuple[MsgType, int, int, int]] = set()
    for i in providers:
        for j in [SERVER, *providers]:
            if i != j:
                routes.add((MsgType.SAMPLE_COUNT, PHASE_SAMPLE_COUNT, i, j))
        routes.update((t, phase, SERVER, i) for t, phase in broadcasts)
        routes.add((MsgType.REDUCED_ROWS, PHASE_REDUCED, i, cfg.consumer))
    for (hop1, hop2), (first, second) in zip(backend.rounds, ROUND_PHASES):
        for c in backend.combiners(cfg):
            routes.update((hop1, first, i, c) for i in providers if i != c)
            routes.add((hop2, second, c, SERVER))
    return routes


def expected_sequence(cfg: SessionConfig) -> list[tuple[MsgType, int, int, int]]:
    """The full message sequence of a correct run, in canonical order."""
    return sorted(legal_routes(cfg), key=lambda r: (r[1], r[2], r[3]))


def _allowed_types(cfg: SessionConfig, receiver: int) -> frozenset[MsgType]:
    if receiver == SERVER:
        return AGGREGATE_TYPES | {MsgType.SAMPLE_COUNT}
    if receiver == cfg.consumer:
        return frozenset({MsgType.REDUCED_ROWS})
    if cfg.method == METHOD_HE and receiver == cfg.aggregator:
        return CIPHERTEXT_TYPES | BROADCAST_TYPES | {MsgType.SAMPLE_COUNT}
    return PROVIDER_TYPES


def assert_privacy(transcript: Transcript, cfg: SessionConfig) -> list[str]:
    """Audit a transcript; returns the (possibly empty) list of violations."""
    violations: list[str] = []
    routes = legal_routes(cfg)
    known = {SERVER, cfg.consumer, *cfg.providers}

    def note(msg: ProtocolMessage, why: str):
        violations.append(
            f"{msg.msg_type.name} from party {msg.sender} to party "
            f"{msg.receiver} in phase {msg.phase}: {why}"
        )

    for msg in transcript.entries():
        if msg.sender not in known or msg.receiver not in known:
            note(msg, "unknown party")
            continue
        if msg.msg_type == MsgType.REDUCED_ROWS and msg.receiver != cfg.consumer:
            note(msg, "row-level data may go only to the data consumer")
        allowed = _allowed_types(cfg, msg.receiver)
        if msg.msg_type not in allowed:
            note(
                msg,
                f"receiver may only see "
                f"{sorted(t.name for t in allowed)}",
            )
        if (msg.msg_type, msg.phase, msg.sender, msg.receiver) not in routes:
            note(msg, "not a route of the configured protocol")
    return violations


def check_step_order(transcript: Transcript, cfg: SessionConfig) -> list[str]:
    """Verify a complete transcript matches the algorithm's line order."""
    got = [
        (m.msg_type, m.phase, m.sender, m.receiver) for m in transcript.entries()
    ]
    want = expected_sequence(cfg)
    problems = []
    if got != want:
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                problems.append(f"position {i}: got {g}, expected {w}")
                break
        if len(got) != len(want):
            problems.append(
                f"transcript has {len(got)} messages, expected {len(want)}"
            )
    return problems


def message_counts_by_type(transcript: Transcript) -> dict[str, int]:
    return {t.name: c for t, c in sorted(transcript.type_counts().items())}


def expected_message_counts(cfg: SessionConfig) -> dict[str, int]:
    """Exact per-type message counts implied by the algorithm (hardware
    independent; used by the party-scaling bench).  Each route carries
    exactly one message."""
    counts = Counter(route[0] for route in legal_routes(cfg))
    return {t.name: c for t, c in sorted(counts.items())}
