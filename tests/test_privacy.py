import random

import numpy as np
import pytest

from pppca import paillier
from pppca.encoding import FixedPointConfig
from pppca.messages import (
    MsgType,
    ProtocolMessage,
    Transcript,
    encode_real_matrix,
    make_step,
)
from pppca.privacy import (
    assert_privacy,
    check_step_order,
    expected_message_counts,
    message_counts_by_type,
)
from pppca.protocol import SERVER, PaillierSum, SessionConfig, run_session


@pytest.fixture(scope="module")
def he_session():
    rng = np.random.default_rng(1)
    cfg = SessionConfig(
        method="he", parties=3, k=2, seed=9, key_bits=512, allow_test_key=True
    )
    data = [rng.normal(size=(6, 4)) for _ in range(3)]
    return cfg, run_session(cfg, data)


@pytest.fixture(scope="module")
def ss_session():
    rng = np.random.default_rng(2)
    cfg = SessionConfig(method="ss", parties=4, k=2, seed=9)
    data = [rng.normal(size=(5, 4)) for _ in range(4)]
    return cfg, run_session(cfg, data)


def _clone(transcript: Transcript) -> Transcript:
    out = Transcript()
    for msg in transcript.raw():
        out.append(msg)
    return out


def _forged(msg_type, sender, receiver, phase, payload=b""):
    return ProtocolMessage(
        msg_type=msg_type,
        sender=sender,
        receiver=receiver,
        step=make_step(phase, receiver),
        payload=payload,
    )


def test_correct_he_run_passes(he_session):
    cfg, result = he_session
    assert assert_privacy(result.transcript, cfg) == []
    assert check_step_order(result.transcript, cfg) == []


def test_correct_ss_run_passes(ss_session):
    cfg, result = ss_session
    assert assert_privacy(result.transcript, cfg) == []
    assert check_step_order(result.transcript, cfg) == []


def test_forged_encrypted_sums_to_server_flagged(he_session):
    cfg, result = he_session
    forged = _clone(result.transcript)
    # Provider 1 shipping its (encrypted) per-provider sums straight to the
    # server violates the aggregates-only rule.
    forged.append(_forged(MsgType.ENCRYPTED_SUMS, 1, SERVER, 2))
    violations = assert_privacy(forged, cfg)
    assert violations, "per-provider sums at the server must be flagged"
    assert any("ENCRYPTED_SUMS" in v for v in violations)


def test_forged_raw_rows_to_server_flagged(he_session):
    cfg, result = he_session
    forged = _clone(result.transcript)
    rows = encode_real_matrix(np.ones((4, 3)))
    forged.append(_forged(MsgType.REDUCED_ROWS, 2, SERVER, 9, rows))
    violations = assert_privacy(forged, cfg)
    assert any("only to the data consumer" in v for v in violations)


def test_forged_plaintext_sums_to_aggregator_flagged(he_session):
    cfg, result = he_session
    forged = _clone(result.transcript)
    sums = encode_real_matrix(np.ones((1, 4)))
    forged.append(_forged(MsgType.PLAIN_MEAN, 3, cfg.aggregator, 2, sums))
    violations = assert_privacy(forged, cfg)
    assert any("not a route" in v for v in violations)


def test_forged_reduced_rows_to_provider_flagged(ss_session):
    cfg, result = ss_session
    forged = _clone(result.transcript)
    rows = encode_real_matrix(np.ones((2, 2)))
    forged.append(_forged(MsgType.REDUCED_ROWS, 1, 2, 9, rows))
    violations = assert_privacy(forged, cfg)
    assert any("only to the data consumer" in v for v in violations)


def test_forged_share_bundle_to_consumer_flagged(ss_session):
    cfg, result = ss_session
    forged = _clone(result.transcript)
    forged.append(_forged(MsgType.SHARE_BUNDLE, 1, cfg.consumer, 1))
    violations = assert_privacy(forged, cfg)
    assert any("REDUCED_ROWS" in v for v in violations)


def test_unknown_party_flagged(ss_session):
    cfg, result = ss_session
    forged = _clone(result.transcript)
    forged.append(_forged(MsgType.SAMPLE_COUNT, 42, SERVER, 0))
    assert any("unknown party" in v for v in assert_privacy(forged, cfg))


def test_message_accounting_exact(he_session, ss_session):
    for cfg, result in (he_session, ss_session):
        assert message_counts_by_type(result.transcript) == expected_message_counts(
            cfg
        )


def test_ss_share_traffic_scales_quadratically():
    # M*(M-1) share bundles per sharing round, two rounds per session.
    for parties in (2, 3, 4):
        cfg = SessionConfig(method="ss", parties=parties, k=1, seed=0)
        counts = expected_message_counts(cfg)
        assert counts["SHARE_BUNDLE"] == 2 * parties * (parties - 1)


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
@pytest.mark.parametrize("method", ["he", "ss"])
def test_message_counts_match_closed_form(method, parties):
    # Independent of the route table the counts are derived from.
    m = parties
    want = {
        "SAMPLE_COUNT": m * (m - 1) + m,
        "TRANSFER_MATRIX": m,
        "PLAIN_MEAN": m,
        "REDUCED_ROWS": m,
    }
    if method == "he":
        want.update(
            PUBLIC_KEY=m,
            ENCRYPTED_SUMS=m - 1,
            ENCRYPTED_COV=m - 1,
            ENCRYPTED_SUM_AGGREGATE=1,
            ENCRYPTED_COV_AGGREGATE=1,
        )
    else:
        want.update(SHARE_BUNDLE=2 * m * (m - 1), LOCAL_SHARE_SUM=2 * m)
    cfg = SessionConfig(method=method, parties=m, k=1, seed=0)
    assert expected_message_counts(cfg) == want


def test_step_order_detects_shuffled_transcript(ss_session):
    cfg, result = ss_session
    shuffled = Transcript()
    entries = result.transcript.entries()
    # Swap two phases by re-tagging a late message with an early step.
    tampered = entries[-1]
    early = ProtocolMessage(
        msg_type=tampered.msg_type,
        sender=tampered.sender,
        receiver=tampered.receiver,
        step=make_step(0, tampered.receiver),
        payload=tampered.payload,
    )
    for msg in entries[:-1]:
        shuffled.append(msg)
    shuffled.append(early)
    assert check_step_order(shuffled, cfg) != []


def test_he_plaintexts_do_not_reveal_sign_patterns(test_keypair):
    # The same totals from different signs, e.g. (-1, 2) and (1, 0).  Had the
    # providers packed two's-complement ring elements, each negative term
    # would add 2^l to its slot of what the server decrypts, counting the
    # negative terms.
    pk, sk = test_keypair
    fp = FixedPointConfig()
    parties, w = 2, fp.l + 1 + 1  # w = l + ceil(log2 M) + 1
    patterns = (
        ([[-1.0, 2.0, -3.5]], [[2.0, -1.0, -0.5]]),
        ([[1.0, 0.0, -2.0]], [[0.0, 1.0, -2.0]]),
        ([[3.0, -4.0, 1.0]], [[-2.0, 5.0, -5.0]]),
    )
    decrypted = []
    for terms in patterns:
        backend = PaillierSum(parties, pk, sk, random.Random(3))
        folded = backend.combine([backend.mask(t, f"t/{i}", fp)[0] for i, t in enumerate(terms)])
        decrypted.append([paillier.decrypt(sk, c) for c in folded.ciphers])
        assert backend.open([folded], fp).tolist() == [[1.0, 1.0, -4.0]]
    totals = [fp.scale, fp.scale, -4 * fp.scale]
    offset = parties << (fp.l - 1)
    packed = sum((total + offset) << (i * w) for i, total in enumerate(totals))
    assert decrypted == [[packed]] * len(patterns)
