import random
import time

import numpy as np
import pytest

from pppca import linalg
from pppca.encoding import FixedPointConfig
from pppca.errors import ConfigError, DimensionError, ProtocolAbort
from pppca.messages import (
    MsgType,
    decode_encrypted_matrix,
    decode_public_key,
    decode_share_matrix,
)
from pppca.protocol import (
    PHASE_REDUCED,
    PHASE_SHARE_COV,
    ProviderRole,
    SessionConfig,
    run_he,
    run_session,
    run_ss,
    secure_sum_he,
    secure_sum_ss,
)
from pppca.sharing import CounterPRG

HAND_DATA = np.array(
    [
        [2.0, 1.0, 0.5],
        [4.0, 0.5, 1.5],
        [6.0, 1.5, 2.5],
        [8.0, 0.0, 3.5],
        [10.0, 2.0, 4.5],
        [12.0, 1.0, 5.5],
    ]
)


def he_cfg(parties=2, k=2, seed=0, **kw):
    return SessionConfig(
        method="he",
        parties=parties,
        k=k,
        seed=seed,
        key_bits=512,
        allow_test_key=True,
        **kw,
    )


def ss_cfg(parties=2, k=2, seed=0, **kw):
    return SessionConfig(method="ss", parties=parties, k=k, seed=seed, **kw)


def split(data, parts):
    return np.array_split(data, parts)


# --- run_he -------------------------------------------------------------------


def test_he_two_providers_match_centralized_oracle():
    result = run_he(he_cfg(), split(HAND_DATA, 2))
    transfer, reduced = linalg.centralized_pca(HAND_DATA, 2)
    assert np.max(np.abs(result.reduced - reduced)) <= 1e-6
    assert np.max(np.abs(result.transfer - transfer)) <= 1e-6


def test_single_provider_rejected():
    with pytest.raises(ConfigError):
        SessionConfig(method="he", parties=1, k=1)


def test_he_replicated_data_covariance_oracle():
    rng = np.random.default_rng(5)
    block = rng.normal(size=(7, 4))
    result = run_he(he_cfg(k=2), [block, block])
    n = 14
    centered = linalg.center_columns(block, linalg.column_means(block))
    expected = 2 * linalg.gram(centered) / (n - 1)
    assert np.max(np.abs(result.covariance - expected)) < 1e-9


def test_he_aggregator_choice():
    data = split(HAND_DATA, 3)
    base = run_he(he_cfg(parties=3, k=2), data)
    moved = run_he(he_cfg(parties=3, k=2, aggregator=2), data)
    assert np.allclose(base.covariance, moved.covariance, atol=1e-9)
    with pytest.raises(ConfigError):
        he_cfg(parties=3, aggregator=3)  # p must be at most M - 1
    with pytest.raises(ConfigError):
        he_cfg(parties=3, aggregator=0)


# --- run_ss ---------------------------------------------------------------------


def test_ss_two_providers_match_centralized_oracle():
    # The tolerance below is the fixed-point error, which must dominate the
    # binary64 rounding: at the default f = 64 it would sit below one ulp.
    cfg = ss_cfg(fixed_point=FixedPointConfig(l=64, f=24))
    result = run_ss(cfg, split(HAND_DATA, 2))
    transfer, reduced = linalg.centralized_pca(HAND_DATA, 2)
    tol = 2.0 ** (-cfg.fixed_point.f + 4)
    assert np.max(np.abs(result.reduced - reduced)) <= tol
    assert np.max(np.abs(result.transfer - transfer)) <= tol


def test_ss_zero_variance_column_completes():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(12, 4))
    data[:, 2] = 3.25  # constant in every partition
    result = run_ss(ss_cfg(k=3), split(data, 2))
    assert result.reduced.shape == (12, 3)
    assert abs(result.eigenvalues[-1]) < 1e-6


def test_ss_split_invariance_two_vs_four():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(40, 5)) * [1, 2, 3, 4, 5]
    r2 = run_ss(ss_cfg(parties=2, k=3), split(data, 2))
    r4 = run_ss(ss_cfg(parties=4, k=3), split(data, 4))
    assert np.max(np.abs(r2.covariance - r4.covariance)) <= 4 * 2**-22
    assert np.max(np.abs(r2.transfer - r4.transfer)) <= 1e-5


SESSION_OUTPUTS = ("mean", "covariance", "eigenvalues", "transfer", "reduced")


def test_method_equivalence_he_vs_ss():
    # Both back ends open the same sums in the same fixed-point ring, so
    # everything downstream is bit-identical.
    rng = np.random.default_rng(8)
    for parties in (2, 3, 4):
        data = [rng.normal(size=(9 + 2 * i, 4)) * 3 for i in range(parties)]
        he = run_he(he_cfg(parties=parties, k=2), data)
        ss = run_ss(ss_cfg(parties=parties, k=2), data)
        for name in SESSION_OUTPUTS:
            assert np.array_equal(getattr(he, name), getattr(ss, name)), (parties, name)


def test_method_equivalence_he_vs_ss_over_sim_and_tcp():
    rng = np.random.default_rng(11)
    data = [rng.normal(size=(7, 5)) * 4 for _ in range(3)]
    first, *others = [
        run_session(cfg, data, transport=transport)
        for cfg in (he_cfg(parties=3, k=3), ss_cfg(parties=3, k=3))
        for transport in ("sim", "tcp")
    ]
    for other in others:
        for name in SESSION_OUTPUTS:
            assert np.array_equal(getattr(first, name), getattr(other, name)), name


def test_party_count_invariance_of_covariance():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(24, 4)) * 2
    covs = [
        run_ss(ss_cfg(parties=m, k=2), split(data, m)).covariance for m in (2, 3, 4)
    ]
    transfers = [
        run_ss(ss_cfg(parties=m, k=2), split(data, m)).transfer for m in (2, 3, 4)
    ]
    for cov in covs[1:]:
        assert np.max(np.abs(cov - covs[0])) <= 4 * 2**-22
    for t in transfers[1:]:
        assert np.max(np.abs(t - transfers[0])) <= 1e-5


def test_reduced_rows_stack_in_provider_order():
    parts = split(HAND_DATA, 3)
    result = run_ss(ss_cfg(parties=3, k=1), parts)
    offset = 0
    transfer = result.transfer
    for part in parts:
        centered = part - result.mean
        expected = centered @ transfer
        got = result.reduced[offset : offset + part.shape[0]]
        assert np.allclose(got, expected, atol=1e-9)
        offset += part.shape[0]


def test_protocol_determinism_byte_identical_transcripts():
    data = split(HAND_DATA, 2)
    a = run_ss(ss_cfg(seed=123), data)
    b = run_ss(ss_cfg(seed=123), data)
    assert a.transcript.canonical_bytes() == b.transcript.canonical_bytes()
    c = run_ss(ss_cfg(seed=124), data)
    assert a.transcript.canonical_bytes() != c.transcript.canonical_bytes()

    ha = run_he(he_cfg(seed=5), data)
    hb = run_he(he_cfg(seed=5), data)
    assert ha.transcript.canonical_bytes() == hb.transcript.canonical_bytes()


def test_transport_equivalence_sim_vs_tcp():
    rng = np.random.default_rng(10)
    data = split(rng.normal(size=(40, 5)), 2)
    cfg = ss_cfg(parties=2, k=3, seed=2024)
    sim = run_session(cfg, data, transport="sim")
    tcp = run_session(cfg, data, transport="tcp")
    assert sim.transcript.canonical_bytes() == tcp.transcript.canonical_bytes()
    assert np.array_equal(sim.reduced, tcp.reduced)


def test_covariance_round_carries_the_upper_triangle():
    rng = np.random.default_rng(13)
    d = 4
    data = [rng.normal(size=(6, d)) for _ in range(3)]
    triangle = (1, d * (d + 1) // 2)

    ss = run_ss(ss_cfg(parties=3, k=2), data)
    cov_phases = (PHASE_SHARE_COV, PHASE_SHARE_COV + 1)
    shared = [
        m for m in ss.transcript.entries()
        if m.msg_type in (MsgType.SHARE_BUNDLE, MsgType.LOCAL_SHARE_SUM)
        and m.phase in cov_phases
    ]
    assert {m.msg_type for m in shared} == {MsgType.SHARE_BUNDLE, MsgType.LOCAL_SHARE_SUM}
    assert all(decode_share_matrix(m.payload).shape == triangle for m in shared)
    assert np.array_equal(ss.covariance, ss.covariance.T)

    he = run_he(he_cfg(parties=3, k=2), data)
    entries = he.transcript.entries()
    pk = decode_public_key(
        next(m for m in entries if m.msg_type == MsgType.PUBLIC_KEY).payload
    )
    encrypted = [
        m for m in entries
        if m.msg_type in (MsgType.ENCRYPTED_COV, MsgType.ENCRYPTED_COV_AGGREGATE)
    ]
    assert len(encrypted) == 3
    for m in encrypted:
        rows = decode_encrypted_matrix(m.payload, pk)
        assert (len(rows), len(rows[0])) == triangle


# --- aborts ---------------------------------------------------------------------


def test_abort_on_mismatched_columns():
    rng = np.random.default_rng(11)
    with pytest.raises(DimensionError):
        run_ss(ss_cfg(), [rng.normal(size=(4, 3)), rng.normal(size=(4, 4))])


def test_abort_on_bad_k():
    with pytest.raises(ConfigError):
        run_ss(ss_cfg(k=3), split(HAND_DATA, 2))  # k == d
    with pytest.raises(ConfigError):
        ss_cfg(k=0)


@pytest.mark.parametrize("make_cfg, phase", [(ss_cfg, 1), (he_cfg, 2)], ids=["ss", "he"])
def test_abort_on_fixed_point_overflow_names_step(make_cfg, phase):
    # Entries above 2^63 / M: the column sums blow the fixed-point budget of
    # the default (l, f) = (128, 64) at M = 2, for either back end.
    huge = np.full((4, 3), 1.5 * 2.0**62)
    with pytest.raises(ProtocolAbort) as err:
        run_session(make_cfg(), split(huge, 2))
    assert err.value.step == phase  # the masking phase for column sums
    assert "fixed-point budget" in str(err.value)


def test_abort_on_empty_provider():
    from pppca.errors import MatrixValidationError

    with pytest.raises(MatrixValidationError):
        run_ss(ss_cfg(), [np.ones((1, 3)) * 2, np.zeros((0, 3))])


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_live_session_outlasts_receive_timeout(monkeypatch, transport):
    data = split(HAND_DATA, 2)
    expected = run_session(ss_cfg(), data, transport=transport)
    real_check = ProviderRole._check_range

    def slow_check(self, values, what):
        if self.party == 2 and self.phase == PHASE_SHARE_COV:
            time.sleep(1.0)  # five receive timeouts with nobody sending
        real_check(self, values, what)

    monkeypatch.setattr(ProviderRole, "_check_range", slow_check)
    started = time.perf_counter()
    result = run_session(ss_cfg(timeout=0.2), data, transport=transport)
    assert time.perf_counter() - started >= 1.0
    assert np.array_equal(result.reduced, expected.reduced)
    assert result.transcript.canonical_bytes() == expected.transcript.canonical_bytes()


def test_stalled_session_aborts_naming_party_and_phase(monkeypatch):
    real_send = ProviderRole._send

    def silent_send(self, ep, receiver, msg_type, phase, payload):
        if self.party != 2:
            real_send(self, ep, receiver, msg_type, phase, payload)

    monkeypatch.setattr(ProviderRole, "_send", silent_send)
    timeout = 0.2
    started = time.perf_counter()
    with pytest.raises(ProtocolAbort) as err:
        run_session(ss_cfg(timeout=timeout), split(HAND_DATA, 2))
    assert time.perf_counter() - started < 10 * timeout
    message = str(err.value)
    assert "stalled" in message
    assert f"at step {err.value.step}" in message
    # Every waiting party is named with its phase, the consumer included.
    assert f"party 3 in phase {PHASE_REDUCED}" in message
    assert "party 0 in phase 0" in message


# --- secure sums ------------------------------------------------------------------


def test_secure_sum_he_identities(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(1)
    eye = np.eye(3)
    got = secure_sum_he([eye, eye, eye], pk, sk, rng)
    assert np.allclose(got, 3 * eye, atol=1e-12)
    single = secure_sum_he([HAND_DATA], pk, sk, rng)
    assert np.array_equal(single, HAND_DATA)


def test_secure_sum_he_random_matches_plaintext(test_keypair):
    pk, sk = test_keypair
    rng = random.Random(2)
    nprng = np.random.default_rng(2)
    mats = [nprng.normal(size=(5, 5)) * 10 for _ in range(4)]
    got = secure_sum_he(mats, pk, sk, rng)
    assert np.max(np.abs(got - sum(mats))) < 1e-9


@pytest.mark.parametrize(
    "fp", [FixedPointConfig(), FixedPointConfig(l=64, f=24)], ids=["128-64", "64-24"]
)
def test_secure_sum_he_equals_secure_sum_ss_bit_for_bit(test_keypair, fp):
    pk, sk = test_keypair
    nprng = np.random.default_rng(4)
    mats = [nprng.normal(size=(3, 4)) * 10.0 ** nprng.integers(-3, 4) for _ in range(3)]
    he = secure_sum_he(mats, pk, sk, random.Random(4), fixed_point=fp)
    ss = secure_sum_ss(mats, fixed_point=fp, prg=CounterPRG(4))
    assert np.array_equal(he, ss)


def test_secure_sum_ss_identities():
    eye = np.eye(3)
    got = secure_sum_ss([eye, eye, eye], prg=CounterPRG(1))
    assert np.max(np.abs(got - 3 * eye)) <= 3 * 2**-24
    single = secure_sum_ss([HAND_DATA], prg=CounterPRG(2))
    assert np.max(np.abs(single - HAND_DATA)) <= 2**-24


def test_secure_sum_ss_random_matches_plaintext():
    nprng = np.random.default_rng(3)
    mats = [nprng.normal(size=(5, 5)) * 10 for _ in range(4)]
    got = secure_sum_ss(mats, prg=CounterPRG(3))
    assert np.max(np.abs(got - sum(mats))) <= 4 * 2**-24


def test_secure_sum_shape_mismatch():
    with pytest.raises(DimensionError):
        secure_sum_ss([np.ones((2, 2)), np.ones((2, 3))], prg=CounterPRG(4))


# --- brute-force randomized oracle (desk-scale slice of the acceptance run) -------


def test_randomized_instances_match_direct_covariance():
    rng = np.random.default_rng(12)
    fp = FixedPointConfig()
    for trial in range(10):
        parties = int(rng.integers(2, 5))
        d = int(rng.integers(3, 7))
        k = int(rng.integers(1, d))
        rows = [int(rng.integers(2, 8)) for _ in range(parties)]
        data = [rng.normal(size=(r, d)) * 5 for r in rows]
        pooled = np.vstack(data)
        centered = linalg.center_columns(pooled, linalg.column_means(pooled))
        direct = linalg.gram(centered) / (pooled.shape[0] - 1)

        result = run_ss(ss_cfg(parties=parties, k=k, seed=trial), data)
        assert np.max(np.abs(result.covariance - direct)) <= parties * 2**-22
