import random
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppca import messages, paillier
from pppca.errors import FrameFormatError, TransportClosed, TransportTimeout
from pppca.messages import (
    MsgType,
    ProtocolMessage,
    Transcript,
    decode_encrypted_matrix,
    decode_public_key,
    decode_real_matrix,
    decode_sample_count,
    decode_share_matrix,
    deserialize,
    encode_encrypted_matrix,
    encode_public_key,
    encode_real_matrix,
    encode_sample_count,
    encode_share_matrix,
    make_step,
    serialize,
)
from pppca.sharing import CounterPRG, share_matrix
from pppca.transport import SimulatedNetwork, TcpNetwork


def _msg(msg_type, sender, receiver, phase, payload):
    return ProtocolMessage(
        msg_type=msg_type,
        sender=sender,
        receiver=receiver,
        step=make_step(phase, receiver),
        payload=payload,
    )


def test_plain_mean_round_trip_stable_bytes():
    msg = _msg(MsgType.PLAIN_MEAN, 0, 1, 4, encode_real_matrix([[0.0, 1.5]]))
    data = serialize(msg)
    again = deserialize(data)
    assert again == msg
    assert serialize(again) == data
    assert np.array_equal(decode_real_matrix(again.payload), [[0.0, 1.5]])


def test_real_matrix_golden_bytes():
    # Header rows, cols as >II, then big-endian binary64 in row-major order.
    x = np.array([[-0.0, np.inf], [5e-324, 1.5]])
    payload = encode_real_matrix(x)
    assert payload == bytes.fromhex(
        "00000002" "00000002"
        "8000000000000000" "7ff0000000000000"
        "0000000000000001" "3ff8000000000000"
    )
    back = decode_real_matrix(payload)
    assert back.dtype == np.float64 and back.dtype.isnative
    assert back.flags.writeable
    assert np.array_equal(back, x) and np.signbit(back[0, 0])
    back[0, 0] = 2.0  # a copy, not a view of the payload
    # Same bytes as packing each entry on its own.
    y = np.random.default_rng(4).normal(size=(3, 5))
    assert encode_real_matrix(y) == struct.pack(">II", 3, 5) + b"".join(
        struct.pack(">d", v) for v in y.ravel()
    )
    for bad in (payload[:7], payload[:-1], payload + b"\x00"):
        with pytest.raises(FrameFormatError):
            decode_real_matrix(bad)


def test_truncated_frame_rejected():
    data = serialize(_msg(MsgType.SAMPLE_COUNT, 1, 0, 0, encode_sample_count(7)))
    for cut in (0, 3, len(data) - 1):
        with pytest.raises(FrameFormatError):
            deserialize(data[:cut])
    with pytest.raises(FrameFormatError):
        deserialize(data + b"\x00")


def test_bad_magic_and_version():
    data = serialize(_msg(MsgType.SAMPLE_COUNT, 1, 0, 0, encode_sample_count(7)))
    with pytest.raises(FrameFormatError, match="magic"):
        deserialize(b"XXXX" + data[4:])
    with pytest.raises(FrameFormatError, match="version"):
        deserialize(data[:4] + b"\x09" + data[5:])
    with pytest.raises(FrameFormatError, match="type"):
        deserialize(data[:5] + b"\xee" + data[6:])


def test_ciphertext_matrix_round_trip(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(1)
    mat = paillier.enc_matrix(pk, [[1, -2, 3], [0, 2**127 - 1, -(2**127)]], rng)
    payload = encode_encrypted_matrix(mat)
    assert len(payload) == 8 + 6 * ((pk.n_squared.bit_length() + 7) // 8)
    back = decode_encrypted_matrix(payload, pk)
    assert back.shape == (2, 3)
    assert [c.value for c in back.flat] == [c.value for c in mat.flat]


def test_ciphertext_matrix_round_trip_2048_bit_values():
    # Full production-width ciphertexts; the modulus itself need not come
    # from a real keypair for a serialization check.
    import math

    rng = random.Random(2048)
    n = rng.getrandbits(2048) | (1 << 2047) | 1
    pk = paillier.PublicKey.from_modulus(n)
    values = []
    for value in [1, 2, 3] + [rng.randrange(1, pk.n_squared) for _ in range(6)]:
        while math.gcd(value, pk.n_squared) != 1:
            value = rng.randrange(1, pk.n_squared)
        values.append(value)
    mat = np.array([paillier.Ciphertext(v, pk) for v in values], dtype=object).reshape(3, 3)
    payload = encode_encrypted_matrix(mat)
    assert len(payload) == 8 + 9 * 512  # n^2 has 4095 or 4096 bits
    back = decode_encrypted_matrix(payload, pk)
    assert [c.value for c in back.flat] == values


def _cipher_payload(rows, cols, values, width) -> bytes:
    """The encrypted-matrix wire format, one entry at a time."""
    return struct.pack(">II", rows, cols) + b"".join(v.to_bytes(width, "big") for v in values)


def test_ciphertext_matrix_golden_bytes():
    pk = paillier.PublicKey.from_modulus(15)  # n^2 = 225 fits one byte
    mat = np.array(
        [[paillier.Ciphertext(v, pk) for v in row] for row in [[1, 2], [4, 224]]],
        dtype=object,
    )
    payload = encode_encrypted_matrix(mat)
    assert payload == bytes.fromhex("00000002" "00000002" "01" "02" "04" "e0")
    assert payload == _cipher_payload(2, 2, [1, 2, 4, 224], 1)
    assert [c.value for c in decode_encrypted_matrix(payload, pk).flat] == [1, 2, 4, 224]
    wide = paillier.PublicKey.from_modulus(257)  # n^2 = 66049 takes 3 bytes
    one = np.array([[paillier.Ciphertext(2, wide)]], dtype=object)
    assert encode_encrypted_matrix(one) == bytes.fromhex("00000001" "00000001" "000002")


def test_public_key_and_share_matrix_round_trip(test_keypair):
    pk, _ = test_keypair
    assert decode_public_key(encode_public_key(pk)).n == pk.n

    bundle = share_matrix([[5, 6], [7, 8]], 2, 64, CounterPRG(2), "sums/1")[1]
    back = decode_share_matrix(encode_share_matrix(bundle))
    assert back == bundle


def test_sample_count_round_trip():
    assert decode_sample_count(encode_sample_count(123456789)) == 123456789


def test_serialization_injective_over_random_messages(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(3)
    nprng = np.random.default_rng(3)
    seen = {}
    for i in range(300):
        choice = rng.randrange(4)
        if choice == 0:
            payload = encode_real_matrix(nprng.normal(size=(rng.randint(1, 3), 2)))
            mt = rng.choice(
                [MsgType.PLAIN_MEAN, MsgType.TRANSFER_MATRIX, MsgType.REDUCED_ROWS]
            )
        elif choice == 1:
            payload = encode_sample_count(rng.randrange(1 << 32))
            mt = MsgType.SAMPLE_COUNT
        elif choice == 2:
            bundle = share_matrix(
                [[rng.randrange(1 << 16)]], 2, 16, CounterPRG(i), f"s{i}"
            )[0]
            payload = encode_share_matrix(bundle)
            mt = MsgType.SHARE_BUNDLE
        else:
            payload = encode_public_key(pk)
            mt = MsgType.PUBLIC_KEY
        msg = _msg(mt, rng.randrange(4), rng.randrange(4), rng.randrange(10), payload)
        data = serialize(msg)
        if data in seen:
            assert seen[data] == msg
        else:
            seen[data] = msg
    distinct_msgs = len(set(seen.values()))
    assert len(seen) == distinct_msgs


def test_payload_cap_enforced():
    msg = _msg(MsgType.SAMPLE_COUNT, 0, 1, 0, b"x" * (messages.MAX_PAYLOAD + 1))
    with pytest.raises(FrameFormatError, match="cap"):
        serialize(msg)


def _share_payload(owner, l, sid: bytes, rows, cols, values) -> bytes:
    """The share-matrix wire format, one entry at a time."""
    return (
        struct.pack(">HHH", owner, l, len(sid))
        + sid
        + struct.pack(">II", rows, cols)
        + b"".join(v.to_bytes(16, "big") for v in values)
    )


def test_share_matrix_golden_bytes():
    bundle = share_matrix([[0, 1], [2**127 + 5, 2**128 - 1]], 2, 128, CounterPRG(3), "g")[1]
    payload = encode_share_matrix(bundle)
    assert payload == _share_payload(1, 128, b"g", 2, 2, bundle.values.ravel().tolist())
    assert decode_share_matrix(payload) == bundle


@pytest.mark.parametrize(
    "payload",
    [
        _share_payload(0, 8, b"\xff\xfe", 1, 1, [3]),  # secret id not UTF-8
        _share_payload(0, 8, b"s", 1, 2, [3, 256]),  # element >= 2^l
        _share_payload(0, 8, b"s", 0, 2, []),  # no rows
        _share_payload(0, 0, b"s", 1, 1, [0]),  # l = 0
        _share_payload(0, 200, b"s", 1, 1, [1]),  # l past the 128-bit element
    ],
    ids=["sid-not-utf8", "element-past-ring", "zero-rows", "l-0", "l-200"],
)
def test_malformed_share_matrix_raises_frame_format_error(payload):
    with pytest.raises(FrameFormatError):
        decode_share_matrix(payload)


def test_malformed_key_and_ciphertext_raise_frame_format_error():
    pk = paillier.PublicKey.from_modulus(15)  # one byte per ciphertext

    assert decode_encrypted_matrix(_cipher_payload(1, 1, [2], 1), pk)[0, 0].value == 2
    for payload in (
        _cipher_payload(1, 1, [3], 1),  # not coprime to n^2
        _cipher_payload(1, 1, [226], 2),  # past n^2, and the wrong width
        _cipher_payload(1, 1, [225], 1),  # n^2 itself is outside [0, n^2)
        _cipher_payload(1, 2, [2], 1),  # one entry short
        _cipher_payload(1, 1, [2, 4], 1),  # one entry too many
        _cipher_payload(0, 1, [], 1),  # no rows
        _cipher_payload(1, 0, [], 1),  # no columns
        b"\x00\x00\x00\x01",  # truncated header
    ):
        with pytest.raises(FrameFormatError):
            decode_encrypted_matrix(payload, pk)
    for n in (0, 1, 4):
        with pytest.raises(FrameFormatError):
            decode_public_key(messages._pack_bigint(n))


# A small odd modulus keeps the coprimality checks cheap.
_FUZZ_PK = paillier.PublicKey.from_modulus(2**61 - 1)
_DECODERS = {
    "public_key": (decode_public_key, encode_public_key(_FUZZ_PK)),
    "real_matrix": (decode_real_matrix, encode_real_matrix([[1.0, -2.0]])),
    "encrypted_matrix": (
        lambda p: decode_encrypted_matrix(p, _FUZZ_PK),
        _cipher_payload(1, 2, [5, 7], 16),  # n^2 has 122 bits
    ),
    "share_matrix": (
        decode_share_matrix,
        encode_share_matrix(share_matrix([[1, 2]], 2, 64, CounterPRG(1), "f")[0]),
    ),
    "sample_count": (decode_sample_count, encode_sample_count(9)),
    "frame": (
        deserialize,
        serialize(_msg(MsgType.SAMPLE_COUNT, 1, 0, 0, encode_sample_count(9))),
    ),
}


def _spliced(valid: bytes):
    """``valid`` with a slice replaced by arbitrary bytes."""
    return st.tuples(
        st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8)
    ).map(lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1] :])


@pytest.mark.parametrize("name", sorted(_DECODERS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_decoders_raise_only_frame_format_error(name, data):
    decode, valid = _DECODERS[name]
    payload = data.draw(st.one_of(st.binary(max_size=64), _spliced(valid)))
    try:
        decode(payload)
    except FrameFormatError:
        pass


# --- simulation bus ---------------------------------------------------------


def test_sim_bus_fifo_per_sender():
    net = SimulatedNetwork()
    a = net.endpoint(1)
    b = net.endpoint(2)
    for i in range(3):
        a.send(_msg(MsgType.SAMPLE_COUNT, 1, 2, 0, encode_sample_count(i)))
    got = [decode_sample_count(b.recv(sender=1).payload) for i in range(3)]
    assert got == [0, 1, 2]
    assert len(net.transcript) == 3


def test_sim_bus_recv_timeout():
    net = SimulatedNetwork(timeout=0.05)
    ep = net.endpoint(1)
    net.endpoint(2)
    with pytest.raises(TransportTimeout):
        ep.recv(sender=2)


def test_sim_bus_abort_unblocks():
    net = SimulatedNetwork(timeout=5.0)
    ep = net.endpoint(1)
    errors = []

    def waiter():
        try:
            ep.recv(sender=2)
        except TransportClosed as exc:
            errors.append(exc)

    t = threading.Thread(target=waiter)
    t.start()
    net.abort("boom")
    t.join(timeout=2)
    assert not t.is_alive()
    assert errors and "boom" in str(errors[0])


def test_sim_bus_buffers_other_senders():
    net = SimulatedNetwork()
    a, b, c = net.endpoint(1), net.endpoint(2), net.endpoint(3)
    b.send(_msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(22)))
    c.send(_msg(MsgType.SAMPLE_COUNT, 3, 1, 0, encode_sample_count(33)))
    # Ask for party 3 first; party 2's message must still arrive afterwards.
    assert decode_sample_count(a.recv(sender=3).payload) == 33
    assert decode_sample_count(a.recv(sender=2).payload) == 22


# --- TCP --------------------------------------------------------------------


def test_tcp_loopback_matches_sim_messages():
    sim = SimulatedNetwork()
    s1, s2 = sim.endpoint(1), sim.endpoint(2)
    tcp = TcpNetwork([1, 2], timeout=5.0)
    try:
        t1, t2 = tcp.endpoint(1), tcp.endpoint(2)
        payloads = [encode_sample_count(n) for n in (5, 6, 7)]
        for i, payload in enumerate(payloads):
            msg = _msg(MsgType.SAMPLE_COUNT, 1, 2, i, payload)
            s1.send(msg)
            t1.send(msg)
        sim_got = [s2.recv(sender=1) for _ in payloads]
        tcp_got = [t2.recv(sender=1) for _ in payloads]
        assert sim_got == tcp_got
        assert sim.transcript.canonical_bytes() == tcp.transcript.canonical_bytes()
    finally:
        tcp.close()


def test_tcp_recv_timeout():
    tcp = TcpNetwork([1, 2], timeout=0.05)
    try:
        with pytest.raises(TransportTimeout):
            tcp.endpoint(1).recv(sender=2)
    finally:
        tcp.close()


# --- transcript --------------------------------------------------------------


def test_transcript_canonical_order_and_counts():
    t = Transcript()
    early = _msg(MsgType.SAMPLE_COUNT, 2, 0, 0, encode_sample_count(1))
    late = _msg(MsgType.PLAIN_MEAN, 0, 1, 4, encode_real_matrix([[1.0]]))
    t.append(late)
    t.append(early)
    ordered = t.entries()
    assert ordered[0] == early and ordered[1] == late
    assert t.raw() == [late, early]
    assert t.type_counts() == {MsgType.SAMPLE_COUNT: 1, MsgType.PLAIN_MEAN: 1}


def test_step_indices_strictly_increase_per_sender():
    from pppca import SessionConfig, run_ss

    rng = np.random.default_rng(4)
    cfg = SessionConfig(method="ss", parties=3, k=2, seed=1)
    result = run_ss(cfg, [rng.normal(size=(5, 4)) for _ in range(3)])
    last_step = {}
    for msg in result.transcript.entries():
        if msg.sender in last_step:
            assert msg.step > last_step[msg.sender]
        last_step[msg.sender] = msg.step
