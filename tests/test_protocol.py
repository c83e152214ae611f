import inspect
import math
import random
import re
import struct
import threading
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from pppca import linalg, protocol
from pppca.encoding import FixedPointConfig
from pppca.errors import ConfigError, DimensionError, ProtocolAbort, TransportClosed
from pppca.messages import (
    MsgType,
    decode_encrypted_matrix,
    decode_public_key,
    decode_real_matrix,
    decode_seed_share,
    decode_share_matrix,
)
from pppca.protocol import (
    PHASE_COV,
    PHASE_MEAN,
    PHASE_PUBLIC_KEY,
    PHASE_REDUCED,
    PHASE_SAMPLE_COUNT,
    PHASE_SUMS,
    PHASE_TRANSFER,
    ROUND_PHASES,
    SERVER,
    ConsumerRole,
    ProviderRole,
    ServerRole,
    SessionConfig,
    run_session,
    secure_sum_he,
    secure_sum_ss,
)
from pppca.sharing import CounterPRG
from pppca.transport import SimulatedNetwork

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


U = 2.0**-53  # binary64's unit roundoff


def covariance_tolerance(result, data):
    """Per entry, how far an ``ss`` session's covariance may lie from the
    exact covariance of the pooled ``data``, in the gamma_{n+4} form of
    perfbench/checks.py, from the grids of the default config:

    - binary64 rounding of the centered products, their sums, the division
      by n - 1 and the decoding: gamma_{n+4} sum |x_s - m_s| |x_t - m_t| / (n - 1);
    - the covariance ring's half step M 2^-(f'+1), f' = 62 - ceil(log2 M),
      at each entry's scale 2^(e_s + e_t), the exponents read off the
      session's PLAIN_MEAN frame;
    - the n/(n - 1) delta delta^T that centering at a mean off by delta adds,
      delta within round 0's half step M 2^-65 at (l, f) = (128, 64) and
      the column sums' rounding, over n.

    The grids are written out, not read from the config, so that a session
    on a coarser ring fails the bound.
    """
    pooled = np.vstack(data)
    n, d = pooled.shape
    parties = len(data)
    frame = next(m for m in result.transcript.entries() if m.msg_type == MsgType.PLAIN_MEAN)
    e = decode_real_matrix(frame.payload, (2, d))[1].astype(int)
    centered = np.abs(pooled - pooled.mean(axis=0))
    spread = centered.T @ centered / (n - 1)
    cov_step = parties * 2.0 ** -(62 - (parties - 1).bit_length() + 1)
    delta = (parties * 2.0**-65 + 3 * U * np.abs(pooled).sum(axis=0)) / n
    return (
        (n + 4) * U * spread
        + np.ldexp(cov_step, e[:, None] + e)
        + n / (n - 1) * np.outer(delta, delta)
    )


# --- he sessions --------------------------------------------------------


def test_he_two_providers_match_centralized_oracle():
    result = run_session(he_cfg(), split(HAND_DATA, 2))
    transfer, reduced = linalg.centralized_pca(HAND_DATA, 2)
    assert np.max(np.abs(result.reduced - reduced)) <= 1e-6
    assert np.max(np.abs(result.transfer - transfer)) <= 1e-6


def test_single_provider_rejected():
    with pytest.raises(ConfigError):
        SessionConfig(method="he", parties=1, k=1)


def test_he_replicated_data_covariance_oracle():
    rng = np.random.default_rng(5)
    block = rng.normal(size=(7, 4))
    result = run_session(he_cfg(k=2), [block, block])
    n = 14
    centered = linalg.center_columns(block, linalg.column_means(block))
    expected = 2 * linalg.gram(centered) / (n - 1)
    assert np.max(np.abs(result.covariance - expected)) < 1e-9


@pytest.mark.parametrize("parties", [2, 3, 4])
def test_he_ciphertexts_are_folded_by_provider_1(parties):
    result = run_session(he_cfg(parties=parties, k=2), split(HAND_DATA, parties))
    frames = result.transcript.raw()
    for kind, total in ((MsgType.ENCRYPTED_SUMS, MsgType.ENCRYPTED_SUM_AGGREGATE),
                        (MsgType.ENCRYPTED_COV, MsgType.ENCRYPTED_COV_AGGREGATE)):
        sent = [(m.sender, m.receiver) for m in frames if m.msg_type == kind]
        assert sent == [(j, 1) for j in range(2, parties + 1)]
        assert [(m.sender, m.receiver) for m in frames if m.msg_type == total] == [(1, SERVER)]


def test_the_folding_provider_is_not_a_setting():
    assert [f.name for f in fields(SessionConfig)] == [
        "method", "parties", "k", "fixed_point", "key_bits", "allow_test_key", "seed", "timeout",
    ]
    for make_cfg in (he_cfg, ss_cfg):
        with pytest.raises(TypeError, match="aggregator"):
            make_cfg(parties=3, aggregator=2)
        for parties in (2, 3, 4):
            cfg = make_cfg(parties=parties)
            assert cfg.aggregator == 1
            with pytest.raises(AttributeError):
                cfg.aggregator = 2


def test_he_config_checks_the_key_size():
    with pytest.raises(ConfigError):
        replace(he_cfg(), key_bits=768)
    with pytest.raises(ConfigError):
        SessionConfig(method="he", parties=2, k=1, key_bits=512)  # test-only size


def test_parties_must_fit_the_frame_header():
    # The consumer is party parties + 1, and frames address 16-bit parties.
    assert SessionConfig(method="ss", parties=65534, k=1).consumer == 65535
    with pytest.raises(ConfigError, match="65534"):
        SessionConfig(method="ss", parties=65535, k=1)


def _run_roles(server_cfg, provider_cfgs, consumer_cfg, data):
    """Every role on one simulated network, each with its own config as in
    role mode (one per provider, in party order), and each endpoint waiting
    its own role's timeout; the roles, and the abort each failed role
    raised, by party."""
    roles = [
        ServerRole(server_cfg),
        *(ProviderRole(i, x, cfg) for i, (x, cfg) in enumerate(zip(data, provider_cfgs), 1)),
        ConsumerRole(consumer_cfg),
    ]
    network = SimulatedNetwork([role.party for role in roles])
    for role in roles:
        network.endpoint(role.party).timeout = role.cfg.timeout
    errors = {}

    def drive(role):
        try:
            role.play(network.endpoint(role.party))
        except ProtocolAbort as exc:
            errors[role.party] = exc
            network.abort(f"party {role.party} failed")

    threads = [threading.Thread(target=drive, args=(role,)) for role in roles]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    return roles, errors


def _root_aborts(errors):
    """The aborts not caused by the closed bus that a first abort leaves."""
    return {j: e for j, e in errors.items() if not isinstance(e.cause, TransportClosed)}


@pytest.mark.parametrize("server_bits, provider_bits", [(512, 1024), (1024, 512)])
def test_provider_rejects_a_key_of_another_size(server_bits, provider_bits):
    # Role mode gives each process its own config; here two of them meet on
    # the simulated network.
    server_cfg = replace(he_cfg(timeout=1.0), key_bits=server_bits)
    provider_cfg = replace(server_cfg, key_bits=provider_bits)
    _, errors = _run_roles(server_cfg, [provider_cfg] * 2, provider_cfg, split(HAND_DATA, 2))
    # The first provider to see the key aborts; the rest may see the closed bus.
    aborts = _root_aborts(errors)
    assert set(aborts) & set(provider_cfg.providers)
    for j, e in aborts.items():
        assert e.phase == PHASE_PUBLIC_KEY
        assert (
            f"party {j}: server sent a {server_bits}-bit modulus, "
            f"configured for {provider_bits}-bit keys" in str(e)
        )


def test_a_provider_configured_for_another_k_rejects_the_transfer_matrix():
    server_cfg = ss_cfg(k=2, timeout=1.0)
    provider_cfg = replace(server_cfg, k=1)
    _, errors = _run_roles(server_cfg, [provider_cfg] * 2, provider_cfg, split(HAND_DATA, 2))
    aborts = _root_aborts(errors)
    assert set(aborts) & set(provider_cfg.providers)
    for j, e in aborts.items():
        assert j in provider_cfg.providers and e.phase == PHASE_TRANSFER
        assert (
            f"party {j}: malformed TRANSFER_MATRIX from party 0: "
            "real matrix 3x2 is not the expected 3x1" in str(e)
        )


def test_a_consumer_configured_for_another_k_names_the_provider():
    data = np.random.default_rng(8).normal(size=(20, 4))
    others = ss_cfg(k=2, timeout=1.0)
    consumer_cfg = replace(others, k=3)
    _, errors = _run_roles(others, [others] * 2, consumer_cfg, split(data, 2))
    assert set(errors) == {consumer_cfg.consumer}
    e = errors[consumer_cfg.consumer]
    assert isinstance(e, ProtocolAbort) and e.phase == PHASE_REDUCED
    assert (
        "party 3: malformed REDUCED_ROWS from party 1: "
        "real matrix 10x2 is not the expected *x3" in str(e)
    )


@pytest.mark.parametrize("make_cfg", [ss_cfg, he_cfg], ids=["ss", "he"])
def test_seed_and_timeout_are_each_roles_own(make_cfg):
    # Role mode parties agree on every other setting; these two each role
    # sets alone, and they change no opened sum, transfer matrix or row.
    data = split(np.random.default_rng(21).normal(size=(30, 4)), 3)
    expected = run_session(make_cfg(parties=3, k=2), data)
    server_cfg, *provider_cfgs, consumer_cfg = (
        make_cfg(parties=3, k=2, seed=seed, timeout=timeout)
        for seed, timeout in ((None, 9.0), (1, 7.5), (2, 8.0), (3, 10.0), (4, 6.0))
    )
    roles, errors = _run_roles(server_cfg, provider_cfgs, consumer_cfg, data)
    assert errors == {}
    server, consumer = roles[0], roles[-1]
    assert np.array_equal(server.covariance, expected.covariance)
    assert np.array_equal(server.transfer, expected.transfer)
    assert np.array_equal(consumer.reduced, expected.reduced)


def test_a_seed_share_of_another_shape_aborts_the_provider_it_reaches(monkeypatch):
    # Provider 1's column-sum bundle to provider 2, replaced by 52 bytes whose
    # header claims 1024x1024 entries at l = 128 where the round's are 1x8:
    # four column sums and four sums of squares.
    bad = struct.pack(">HHH", 1, 128, 6) + b"sums/1" + struct.pack(">II", 1024, 1024) + bytes(32)
    assert len(bad) == 52
    send = ProviderRole._send

    def replacing(self, ep, receiver, msg_type, phase, payload):
        if (self.party, receiver, msg_type, phase) == (1, 2, MsgType.SHARE_BUNDLE, PHASE_SUMS):
            payload = bad
        send(self, ep, receiver, msg_type, phase, payload)

    monkeypatch.setattr(ProviderRole, "_send", replacing)
    data = split(np.random.default_rng(3).normal(size=(12, 4)), 3)
    with pytest.raises(ProtocolAbort) as info:
        run_session(ss_cfg(parties=3, seed=4), data)
    assert info.value.phase == PHASE_SUMS
    assert str(info.value) == (
        "protocol aborted in phase 2: party 2: malformed SHARE_BUNDLE from party 1: "
        "seeded share 1024x1024 is not the expected 1x8"
    )


MATRIX_DECODERS = (
    "decode_real_matrix", "decode_encrypted_matrix", "decode_share_matrix", "decode_seed_share"
)


@pytest.mark.parametrize("transport", ["sim", "tcp"])
@pytest.mark.parametrize("make_cfg", [ss_cfg, he_cfg], ids=["ss", "he"])
def test_every_matrix_receive_states_its_shape_but_the_servers_first_sums(
    monkeypatch, make_cfg, transport
):
    receiving = threading.local()  # the receive each role thread is in
    decoded = []  # ((party, type, phase), the shape the receive stated)
    recv = protocol._Role._recv

    def traced_recv(self, ep, sender, msg_type, phase, decode, *args):
        receiving.at = (self.party, msg_type, phase)
        return recv(self, ep, sender, msg_type, phase, decode, *args)

    def tracing(decode):
        signature = inspect.signature(decode)

        def traced(*args, **kwargs):
            shape = signature.bind(*args, **kwargs).arguments.get("shape")
            decoded.append((receiving.at, shape))
            return decode(*args, **kwargs)

        return traced

    monkeypatch.setattr(protocol._Role, "_recv", traced_recv)
    for name in MATRIX_DECODERS:
        monkeypatch.setattr(protocol, name, tracing(getattr(protocol, name)))
    data = split(np.random.default_rng(5).normal(size=(15, 4)), 3)
    result = run_session(make_cfg(parties=3, seed=6), data, transport)

    matrices = sorted(
        (m.receiver, m.msg_type, m.phase) for m in result.transcript.entries()
        if m.msg_type not in (MsgType.SAMPLE_COUNT, MsgType.PUBLIC_KEY)
    )
    assert sorted(at for at, _ in decoded) == matrices  # each decoded once
    free = [at for at, shape in decoded if shape is None]
    first_sums = ROUND_PHASES[0][1]
    assert free and all(party == SERVER and phase == first_sums for party, _, phase in free)
    assert len(free) == len([m for m in matrices if m[0] == SERVER and m[2] == first_sums])


def test_the_server_checks_k_before_the_eigendecomposition(monkeypatch):
    def eigh(matrix):
        raise AssertionError("eigendecomposition run for a k it cannot serve")

    monkeypatch.setattr(linalg, "jacobi_eigh", eigh)
    cfg = ss_cfg(k=3, timeout=1.0)  # as in role mode, where no role checks k against d
    e = _run_roles(cfg, [cfg] * 2, cfg, split(HAND_DATA, 2))[1][SERVER]
    assert isinstance(e, ProtocolAbort) and e.phase == PHASE_TRANSFER
    assert "k=3 must satisfy 1 <= k < d=3" in str(e)
    assert "protocol aborted in phase 8: party 0: k=3" in str(e)


# --- ss sessions ----------------------------------------------------------


def test_ss_two_providers_match_centralized_oracle():
    # The tolerance below is the fixed-point error, which must dominate the
    # binary64 rounding: at the default f = 64 it would sit below one ulp.
    cfg = ss_cfg(fixed_point=FixedPointConfig(l=64, f=24))
    result = run_session(cfg, split(HAND_DATA, 2))
    transfer, reduced = linalg.centralized_pca(HAND_DATA, 2)
    tol = 2.0 ** (-cfg.fixed_point.f + 4)
    assert np.max(np.abs(result.reduced - reduced)) <= tol
    assert np.max(np.abs(result.transfer - transfer)) <= tol


def test_ss_zero_variance_column_completes():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(12, 4))
    data[:, 2] = 3.25  # constant in every partition
    result = run_session(ss_cfg(k=3), split(data, 2))
    assert result.reduced.shape == (12, 3)
    assert abs(result.eigenvalues[-1]) < 1e-6


def test_ss_split_invariance_two_vs_four():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(40, 5)) * [1, 2, 3, 4, 5]
    r2 = run_session(ss_cfg(parties=2, k=3), split(data, 2))
    r4 = run_session(ss_cfg(parties=4, k=3), split(data, 4))
    tol = covariance_tolerance(r2, split(data, 2)) + covariance_tolerance(r4, split(data, 4))
    assert np.all(np.abs(r2.covariance - r4.covariance) <= tol)
    assert np.max(np.abs(r2.transfer - r4.transfer)) <= 1e-5


SESSION_OUTPUTS = ("mean", "covariance", "eigenvalues", "transfer", "reduced")


def test_method_equivalence_he_vs_ss():
    # Both back ends open the same sums in the same fixed-point ring, so
    # everything downstream is bit-identical.
    rng = np.random.default_rng(8)
    for parties in (2, 3, 4):
        data = [rng.normal(size=(9 + 2 * i, 4)) * 3 for i in range(parties)]
        he = run_session(he_cfg(parties=parties, k=2), data)
        ss = run_session(ss_cfg(parties=parties, k=2), data)
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
    results = {m: run_session(ss_cfg(parties=m, k=2), split(data, m)) for m in (2, 3, 4)}
    tols = {m: covariance_tolerance(r, split(data, m)) for m, r in results.items()}
    for m in (3, 4):
        assert np.all(np.abs(results[m].covariance - results[2].covariance) <= tols[m] + tols[2])
        assert np.max(np.abs(results[m].transfer - results[2].transfer)) <= 1e-5


def test_reduced_rows_stack_in_provider_order():
    parts = split(HAND_DATA, 3)
    result = run_session(ss_cfg(parties=3, k=1), parts)
    offset = 0
    transfer = result.transfer
    for part in parts:
        centered = part - result.mean
        expected = centered @ transfer
        got = result.reduced[offset : offset + part.shape[0]]
        assert np.allclose(got, expected, atol=1e-9)
        offset += part.shape[0]


def test_each_provider_block_is_checked_once_and_no_centered_copy_is_made(monkeypatch):
    # The block at construction only, since column_sums and gram screen the
    # entries on a pass they make anyway, and gram and project take the mean
    # as a shift and center one row block at a time, so no other matrix of
    # a block's shape is ever made to be checked.
    checked = []
    check = linalg.check_matrix

    def counting(x, *args, **kwargs):
        checked.append(np.array(x, dtype=float))
        return check(x, *args, **kwargs)

    monkeypatch.setattr(linalg, "check_matrix", counting)
    rng = np.random.default_rng(17)
    parts = [rng.normal(size=(rows, 4)) for rows in (30, 31, 32)]
    run_session(ss_cfg(parties=3, k=2), parts)
    shapes = [m.shape for m in checked]
    assert [shapes.count(part.shape) for part in parts] == [1, 1, 1]
    blocks = {part.shape: part for part in parts}
    for m in checked:
        if m.shape in blocks:
            assert np.array_equal(m, blocks[m.shape])


def _tall_session_traced_peak(transport: str) -> float:
    """The ``tracemalloc`` peak of one session of ss-tall's shape, in reduced
    rows: one provider holds 97 % of the rows, so the peak is that
    provider's whatever the overlap of the role threads."""
    rng = np.random.default_rng(23)
    basis = np.linalg.qr(rng.normal(size=(16, 8)))[0]
    signal = (rng.normal(size=(100_000, 8)) * np.geomspace(10.0, 5.0, 8)) @ basis.T
    data = rng.uniform(-10.0, 10.0, 16) + signal + rng.normal(size=(100_000, 16))
    parts = [np.ascontiguousarray(p) for p in np.split(data, [97_000, 98_000, 99_000])]
    del basis, signal, data
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run_session(ss_cfg(parties=4, k=8, seed=3), parts, transport=transport)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.reduced.shape == (100_000, 8)
    return (peak - start) / result.reduced.nbytes


def test_ss_session_traced_peak_is_one_providers_two_copies_of_its_rows():
    # Over the simulated bus.  gram and project center one row block at a
    # time, and project writes the provider's reduced rows into its payload,
    # so at most two copies of them coexist: that payload and the bytes
    # delivered from it; then the delivered payloads of every provider and
    # the consumer's stacked rows.  That reads 2.01 times the reduced rows.
    # Joining each frame and splitting it again made two copies of every
    # payload, 2.96 times; keeping the centered block and the rows until the
    # send read 5.9 times.
    assert _tall_session_traced_peak("sim") <= 2.25


def test_ss_session_over_tcp_traced_peak_is_one_providers_two_copies_of_its_rows():
    # The same session over TCP, whose reader threads take each payload in
    # one recv: 2.03-2.06 times the reduced rows.  Projecting a centered
    # copy, then encoding the projection through a big-endian copy into a
    # joined payload, read 2.94-2.99 times.
    assert _tall_session_traced_peak("tcp") <= 2.5


def test_protocol_determinism_byte_identical_transcripts():
    data = split(HAND_DATA, 2)
    a = run_session(ss_cfg(seed=123), data)
    b = run_session(ss_cfg(seed=123), data)
    assert a.transcript.canonical_bytes() == b.transcript.canonical_bytes()
    c = run_session(ss_cfg(seed=124), data)
    assert a.transcript.canonical_bytes() != c.transcript.canonical_bytes()

    ha = run_session(he_cfg(seed=5), data)
    hb = run_session(he_cfg(seed=5), data)
    assert ha.transcript.canonical_bytes() == hb.transcript.canonical_bytes()


def test_transport_equivalence_sim_vs_tcp():
    rng = np.random.default_rng(10)
    data = split(rng.normal(size=(40, 5)), 2)
    cfg = ss_cfg(parties=2, k=3, seed=2024)
    sim = run_session(cfg, data, transport="sim")
    tcp = run_session(cfg, data, transport="tcp")
    assert sim.transcript.canonical_bytes() == tcp.transcript.canonical_bytes()
    assert np.array_equal(sim.reduced, tcp.reduced)


def test_share_bundles_carry_seeds_whose_size_does_not_depend_on_d():
    lengths = {}
    for d in (5, 40):
        rng = np.random.default_rng(50 + d)
        data = split(rng.normal(size=(30, d)), 3)
        cfg = ss_cfg(parties=3, k=2, seed=14)
        sim = run_session(cfg, data, transport="sim")
        tcp = run_session(cfg, data, transport="tcp")
        assert sim.transcript.canonical_bytes() == tcp.transcript.canonical_bytes()
        bundles = [m for m in sim.transcript.entries() if m.msg_type == MsgType.SHARE_BUNDLE]
        assert len(bundles) == 2 * 3 * 2
        lengths[d] = {(m.phase, len(m.payload)) for m in bundles}
    # One length per round (the secret ids of the two rounds differ in
    # length), and the same at both widths.
    assert lengths[5] == lengths[40]
    assert len(lengths[5]) == 2


def test_covariance_round_carries_the_upper_triangle():
    rng = np.random.default_rng(13)
    d = 4
    data = [rng.normal(size=(6, d)) for _ in range(3)]
    triangle = (1, d * (d + 1) // 2)

    ss = run_session(ss_cfg(parties=3, k=2), data)
    cov_phases = ROUND_PHASES[1]
    shared = [
        m for m in ss.transcript.entries()
        if m.msg_type in (MsgType.SHARE_BUNDLE, MsgType.LOCAL_SHARE_SUM)
        and m.phase in cov_phases
    ]
    assert {m.msg_type for m in shared} == {MsgType.SHARE_BUNDLE, MsgType.LOCAL_SHARE_SUM}
    decode = {MsgType.SHARE_BUNDLE: decode_seed_share, MsgType.LOCAL_SHARE_SUM: decode_share_matrix}
    assert all(decode[m.msg_type](m.payload, triangle).shape == triangle for m in shared)
    assert np.array_equal(ss.covariance, ss.covariance.T)

    he = run_session(he_cfg(parties=3, k=2), data)
    entries = he.transcript.entries()
    pk = decode_public_key(
        next(m for m in entries if m.msg_type == MsgType.PUBLIC_KEY).payload
    )
    encrypted = [
        m for m in entries
        if m.msg_type in (MsgType.ENCRYPTED_COV, MsgType.ENCRYPTED_COV_AGGREGATE)
    ]
    assert len(encrypted) == 3
    w = SessionConfig(method="he", parties=3, k=2).rings[1].l + math.ceil(math.log2(3)) + 1
    assert w == 64 + 2 + 1
    slots = (pk.n.bit_length() - 1) // w
    for m in encrypted:
        packed = decode_encrypted_matrix(m.payload, pk, w, triangle)
        assert packed.shape == triangle
        assert len(packed.ciphers) == math.ceil(triangle[1] / slots)


def test_a_phase_names_the_same_step_under_both_back_ends():
    rng = np.random.default_rng(17)
    data = [rng.normal(size=(5, 4)) for _ in range(3)]
    shared = {
        MsgType.SAMPLE_COUNT: {PHASE_SAMPLE_COUNT},
        MsgType.PLAIN_MEAN: {PHASE_MEAN},
        MsgType.TRANSFER_MATRIX: {PHASE_TRANSFER},
        MsgType.REDUCED_ROWS: {PHASE_REDUCED},
    }
    for cfg in (he_cfg(parties=3, seed=5), ss_cfg(parties=3, seed=5)):
        seen = {(m.msg_type, m.phase) for m in run_session(cfg, data).transcript.entries()}
        for msg_type, phases in shared.items():
            assert {p for t, p in seen if t == msg_type} == phases, (cfg.method, msg_type)
        hops = {t for pair in cfg.secure_sum.rounds for t in pair}
        assert {(t, p) for t, p in seen if t in hops} == {
            (t, p)
            for types, phases in zip(cfg.secure_sum.rounds, ROUND_PHASES)
            for t, p in zip(types, phases)
        }, cfg.method
    assert ROUND_PHASES == ((PHASE_SUMS, PHASE_SUMS + 1), (PHASE_COV, PHASE_COV + 1))


# --- aborts ---------------------------------------------------------------------


def test_abort_on_mismatched_columns():
    rng = np.random.default_rng(11)
    with pytest.raises(DimensionError):
        run_session(ss_cfg(), [rng.normal(size=(4, 3)), rng.normal(size=(4, 4))])


def test_abort_on_bad_k():
    with pytest.raises(ConfigError):
        run_session(ss_cfg(k=3), split(HAND_DATA, 2))  # k == d
    with pytest.raises(ConfigError):
        ss_cfg(k=0)


@pytest.mark.parametrize(
    "start, message",
    [
        (lambda: run_session(ss_cfg(), split(HAND_DATA, 3)),
         "config names 2 providers but 3 matrices given"),
        (lambda: run_session(ss_cfg(), split(HAND_DATA, 2), transport="udp"),
         "unknown transport 'udp'"),
        (lambda: SessionConfig(method="xx", parties=2, k=1), "method must be 'he' or 'ss'"),
    ],
    ids=["matrix-count", "transport", "method"],
)
def test_a_session_that_cannot_start_as_configured_is_a_config_error(start, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        start()


@pytest.mark.parametrize("make_cfg", [ss_cfg, he_cfg], ids=["ss", "he"])
def test_abort_on_fixed_point_overflow_names_step(make_cfg):
    # Entries above 2^63 / M: the column sums blow the fixed-point budget of
    # the default (l, f) = (128, 64) at M = 2, for either back end.
    huge = np.full((4, 3), 1.5 * 2.0**62)
    with pytest.raises(ProtocolAbort) as err:
        run_session(make_cfg(), split(huge, 2))
    assert err.value.phase == PHASE_SUMS  # the masking phase for column sums
    assert "fixed-point budget" in str(err.value)


@pytest.mark.parametrize("fp", [FixedPointConfig(), FixedPointConfig(64, 24)], ids=str)
def test_small_scales_abort_naming_l_and_f_instead_of_a_wrong_transfer(fp):
    # One table of 3 x 400 rows, d = 6, k = 3, in units ever smaller against
    # the 2^-f grid: each session matches the pooled PCA within the
    # acceptance tolerances (1e-5 for he, 1e-3 for ss) or aborts before the
    # transfer matrix goes out; none answers wrongly.
    rng = np.random.default_rng(8)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    spread = rng.normal(size=(1200, 6)) * [4.0, 3.0, 2.0, 1.0, 0.7, 0.5]
    table = rng.uniform(-3.0, 3.0, size=6) + spread @ basis.T
    outcomes = set()
    for make_cfg, tolerance in ((he_cfg, 1e-5), (ss_cfg, 1e-3)):
        for scale in (1.0, 1e-4, 1e-8, 1e-12):
            data = split(table * scale, 3)
            oracle, _ = linalg.centralized_pca(table * scale, 3)
            try:
                result = run_session(make_cfg(parties=3, k=3, fixed_point=fp), data)
            except ProtocolAbort as err:
                assert err.phase == PHASE_TRANSFER
                assert f"(l, f) = ({fp.l}, {fp.f})" in str(err)
                outcomes.add("abort")
                continue
            angle = linalg.largest_principal_angle(result.transfer, oracle)
            assert angle <= tolerance and result.angle_bound <= 1e-5
            outcomes.add("answer")
    assert outcomes == {"abort", "answer"}


@pytest.mark.parametrize("make_cfg", [ss_cfg, he_cfg], ids=["ss", "he"])
def test_a_zero_eigengap_aborts_with_the_gap_the_grid_error_and_another_k(monkeypatch, make_cfg):
    # Tied eigenvalues ([3I; -3I], d = 4) and every row the same: the
    # pooled covariance's own eigengap at k = 1 is zero, so no f resolves
    # its top-k subspace, and the abort must not offer a larger f alone.
    # E is the covariance round's half step 2^-(f'+1) = 2^-62 at each
    # column's scale 2^(2 e_j), read off the mean's frames, plus the mean's
    # share at the default f = 64's half step.
    d, parties, n, step = 4, 2, 8, 2.0**-65
    same_rows = np.tile([1.0, 2.0, 3.0, 4.0], (4, 1))
    for data in ([3 * np.eye(d), -3 * np.eye(d)], [same_rows, same_rows.copy()]):
        network = SimulatedNetwork(list(range(parties + 2)), timeout=None)
        monkeypatch.setattr(protocol, "_NETWORKS", {"sim": lambda parties, timeout: network})
        with pytest.raises(ProtocolAbort) as err:
            run_session(make_cfg(k=1, seed=1), data)
        means = [m for m in network.transcript.entries() if m.msg_type == MsgType.PLAIN_MEAN]
        assert len(means) == parties
        exponents = decode_real_matrix(means[0].payload, (2, d))[1]
        scales = float(np.sum(np.ldexp(1.0, 2 * exponents.astype(int))))
        error = parties * 2.0**-62 * scales + n / (n - 1) * d * (parties * step / n) ** 2
        assert err.value.phase == PHASE_TRANSFER
        found = re.search(r"g = (\S+), is within the error E = (\S+) of", str(err.value))
        assert found, str(err.value)
        assert float(found[1]) <= error and found[2] == f"{error:.3g}"
        assert "(l, f) = (128, 64)" in str(err.value)
        assert "choose another k" in str(err.value)


def test_abort_on_empty_provider():
    from pppca.errors import MatrixValidationError

    with pytest.raises(MatrixValidationError):
        run_session(ss_cfg(), [np.ones((1, 3)) * 2, np.zeros((0, 3))])


def test_config_rejects_a_timeout_that_is_not_finite_and_positive():
    for timeout in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="timeout"):
            ss_cfg(timeout=timeout)


def test_config_rejects_fields_of_the_wrong_type():
    # A config file's "3" or [2, 3] must not reach the comparisons as is.
    for name, value in (
        ("k", "3"), ("parties", [2, 3]), ("timeout", "20"),
        ("allow_test_key", "false"), ("seed", "3"), ("fixed_point", {"l": 64, "f": 24}),
        # A bool passes as an Integral; k=True would run with k = 1.
        ("k", True), ("parties", True), ("key_bits", True),
        ("timeout", True), ("seed", True), ("seed", -1),
    ):
        with pytest.raises(ConfigError, match=name):
            ss_cfg(**{name: value})
    with pytest.raises(ConfigError, match="method"):
        SessionConfig(method=["ss"], parties=2, k=1)
    assert ss_cfg(parties=np.int64(3), k=np.int64(2), timeout=np.float64(5)).parties == 3


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_live_session_outlasts_receive_timeout(monkeypatch, transport):
    data = split(HAND_DATA, 2)
    expected = run_session(ss_cfg(), data, transport=transport)
    real_check = ProviderRole._check_range

    def slow_check(self, values, what, fp):
        if self.party == 2 and self.phase == PHASE_COV:
            time.sleep(1.0)  # five receive timeouts with nobody sending
        real_check(self, values, what, fp)

    monkeypatch.setattr(ProviderRole, "_check_range", slow_check)
    started = time.perf_counter()
    result = run_session(ss_cfg(timeout=0.2), data, transport=transport)
    assert time.perf_counter() - started >= 1.0
    assert np.array_equal(result.reduced, expected.reduced)
    assert result.transcript.canonical_bytes() == expected.transcript.canonical_bytes()


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_stalled_session_aborts_naming_party_and_phase(monkeypatch, transport):
    real_send = ProviderRole._send

    def silent_send(self, ep, receiver, msg_type, phase, payload):
        if self.party != 2:
            real_send(self, ep, receiver, msg_type, phase, payload)

    monkeypatch.setattr(ProviderRole, "_send", silent_send)
    timeout = 0.2
    started = time.perf_counter()
    with pytest.raises(ProtocolAbort) as err:
        run_session(ss_cfg(timeout=timeout), split(HAND_DATA, 2), transport=transport)
    assert time.perf_counter() - started < 10 * timeout
    message = str(err.value)
    assert "stalled" in message
    assert f"in phase {err.value.phase}:" in message
    # Every waiting party is named with its phase, the consumer included.
    assert f"party 3 in phase {PHASE_REDUCED}" in message
    assert "party 0 in phase 0" in message
    # The stall is blamed on no single party: the phase up front is the
    # lowest any waiting party is in, and no "party N:" prefix names one.
    assert err.value.phase == 0
    assert re.search(r"party \d+:", message) is None, message


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_a_session_where_every_provider_fails_names_the_first_each_time(transport):
    # At 1e12 every provider's column sums blow the (64, 24) budget in phase
    # 2; the root failure named is party 1's, whichever fails first.
    rng = np.random.default_rng(0)
    data = [rng.normal(size=(50, 3)) * 1e12 for _ in range(3)]
    cfg = ss_cfg(parties=3, fixed_point=FixedPointConfig(64, 24))
    for _ in range(10):
        with pytest.raises(ProtocolAbort) as err:
            run_session(cfg, data, transport=transport)
        assert str(err.value).startswith("protocol aborted in phase 2: party 1: column sums")


_BIG = np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]]) * 1e200


@pytest.mark.parametrize("cfg", [ss_cfg(k=1, seed=1), he_cfg(k=1, seed=1)], ids=["ss", "he"])
@pytest.mark.parametrize(
    "data, reason",
    [
        # Provider 1's column sum leaves float64's range: the sums round.
        ([np.array([[1e308, 1.0], [1e308, 2.0], [0.0, 3.0]]), HAND_DATA[:2, :2]],
         "phase 2: party 1: the sum of column 0 leaves"),
        # Column sums of 0, but a Gram beyond float64's range: the covariance round.
        ([_BIG, _BIG], "phase 6: party 1: Gram entry (0, 0) leaves"),
    ],
    ids=["sums", "gram"],
)
def test_a_providers_local_terms_fail_in_the_phase_of_their_round(cfg, data, reason):
    with pytest.raises(ProtocolAbort) as err:
        run_session(cfg, data)
    assert str(err.value).startswith(f"protocol aborted in {reason}")


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


@pytest.mark.parametrize("parties", [2, 3, 5, 9, 16])  # where ceil(log2 M) grows
@pytest.mark.parametrize("shape", [(2, 2), (1, 11), (1, 66)], ids=["4", "11", "66"])
def test_he_slots_at_the_range_edges_equal_ss_bit_for_bit(test_keypair, parties, shape):
    # s = 3 slots per 512-bit plaintext, so no count fills its last one.
    # Every entry just inside the session bound max_magnitude / M, and just
    # inside the ring itself, where an offset slot sum nears M * 2^l: the
    # largest a slot can carry.  Both back ends open the ring sum mod 2^l.
    # A carry out of a slot adds 2^-f to the next entry, which only a zero
    # there shows after rounding to binary64.
    pk, sk = test_keypair
    fp = FixedPointConfig()
    size = shape[0] * shape[1]
    alternating = np.resize([1.0, -1.0], size).reshape(shape)
    gapped = np.resize([1.0, 0.0], size).reshape(shape)
    for bound in (fp.max_magnitude / parties, fp.max_magnitude):
        edge = math.nextafter(bound, 0.0)
        for signs in (np.ones(shape), -np.ones(shape), alternating, gapped):
            mats = [signs * edge] * parties
            he = secure_sum_he(mats, pk, sk, random.Random(parties))
            ss = secure_sum_ss(mats, prg=CounterPRG(parties))
            assert np.array_equal(he, ss)


def test_secure_sum_ss_identities():
    eye = np.eye(3)
    # Dyadic entries that sum exactly on any ring's grid.
    got = secure_sum_ss([eye, eye, eye], prg=CounterPRG(1))
    assert np.array_equal(got, 3 * eye)
    single = secure_sum_ss([HAND_DATA], prg=CounterPRG(2))
    assert np.array_equal(single, HAND_DATA)


def test_secure_sum_ss_random_matches_plaintext():
    nprng = np.random.default_rng(3)
    mats = [nprng.normal(size=(5, 5)) * 10 for _ in range(4)]
    got = secure_sum_ss(mats, prg=CounterPRG(3))
    # The default ring's half step M 2^-(f+1) at f = 64, written out so that
    # a coarser default fails, and the binary64 rounding of the decoding and
    # of the reference sum, gamma_{M+4} sum |x|.
    tol = len(mats) * 2.0**-65 + (len(mats) + 4) * U * sum(np.abs(m) for m in mats)
    assert np.all(np.abs(got - sum(mats)) <= tol)


def test_secure_sum_shape_mismatch():
    with pytest.raises(DimensionError):
        secure_sum_ss([np.ones((2, 2)), np.ones((2, 3))], prg=CounterPRG(4))


# --- brute-force randomized oracle (desk-scale slice of the acceptance run) -------


def test_randomized_instances_match_direct_covariance():
    rng = np.random.default_rng(12)
    for trial in range(10):
        parties = int(rng.integers(2, 5))
        d = int(rng.integers(3, 7))
        k = int(rng.integers(1, d))
        rows = [int(rng.integers(2, 8)) for _ in range(parties)]
        data = [rng.normal(size=(r, d)) * 5 for r in rows]
        pooled = np.vstack(data)
        centered = linalg.center_columns(pooled, linalg.column_means(pooled))
        direct = linalg.gram(centered) / (pooled.shape[0] - 1)

        result = run_session(ss_cfg(parties=parties, k=k, seed=trial), data)
        # direct rounds as a session does, less the grids, so it lies within
        # the session's tolerance of the exact covariance too.
        tol = 2 * covariance_tolerance(result, data)
        assert np.all(np.abs(result.covariance - direct) <= tol)
