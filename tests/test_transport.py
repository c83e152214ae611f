import errno
import hashlib
import io
import random
import re
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppca import messages, paillier, transport
from pppca.errors import FrameFormatError, TransportClosed, TransportTimeout
from pppca.messages import (
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
    serialize,
)
from pppca.ring import from_ints, to_ints
from pppca.sharing import CounterPRG, SeededShare, ShareMatrix, share_matrix
from pppca.transport import SimulatedNetwork, TcpEndpoint, TcpNetwork


def _msg(msg_type, sender, receiver, phase, payload):
    return ProtocolMessage(
        msg_type=msg_type,
        sender=sender,
        receiver=receiver,
        step=make_step(phase, receiver),
        payload=payload,
    )


def deserialize(data: bytes) -> ProtocolMessage:
    """The one frame that ``data`` holds, read as the transports read
    frames; trailing or missing bytes are an error."""
    stream = io.BytesIO(data)
    msg = messages.read_frame(stream.read)
    if msg is None:
        raise FrameFormatError(
            f"stream ended mid-frame: 0 of a header's {messages.header_size()} bytes"
        )
    if stream.tell() < len(data):
        raise FrameFormatError(f"trailing bytes after frame: {len(data) - stream.tell()}")
    return msg


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
    assert np.array_equal(back, x) and np.signbit(back[0, 0])
    # Same bytes as packing each entry on its own.
    y = np.random.default_rng(4).normal(size=(3, 5))
    assert encode_real_matrix(y) == struct.pack(">II", 3, 5) + b"".join(
        struct.pack(">d", v) for v in y.ravel()
    )
    for bad in (payload[:7], payload[:-1], payload + b"\x00"):
        with pytest.raises(FrameFormatError):
            decode_real_matrix(bad)
    for rows, cols in ((0, 3), (3, 0)):
        with pytest.raises(FrameFormatError, match=f"real matrix {rows}x{cols} has no entries"):
            decode_real_matrix(struct.pack(">II", rows, cols))


def test_real_matrix_view_reads_the_payload_in_place():
    x = np.random.default_rng(5).normal(size=(4, 3))
    payload = encode_real_matrix(x)
    view = decode_real_matrix(payload)
    assert view.dtype == np.dtype(">f8") and not view.flags.writeable
    assert np.shares_memory(view, np.frombuffer(payload, np.uint8))
    assert np.array_equal(view, x)


def test_truncated_frame_rejected():
    data = serialize(_msg(MsgType.SAMPLE_COUNT, 1, 0, 0, encode_sample_count(7)))
    for cut in (0, 3, len(data) - 1):
        with pytest.raises(FrameFormatError, match="mid-frame"):
            deserialize(data[:cut])
    with pytest.raises(FrameFormatError):
        deserialize(data + b"\x00")


@pytest.mark.parametrize(
    "sender, receiver, step, field",
    [(1 << 16, 1, 0, "sender"), (-1, 1, 0, "sender"), (1, 1 << 16, 0, "receiver"),
     (1, 2, 1 << 32, "step"), (1, 2, -1, "step")],
)
def test_serialize_rejects_a_party_or_step_outside_its_header_field(sender, receiver, step, field):
    msg = ProtocolMessage(MsgType.SAMPLE_COUNT, sender, receiver, step, encode_sample_count(1))
    with pytest.raises(FrameFormatError, match=f"^{field} "):
        serialize(msg)


def test_bad_magic_and_version():
    data = serialize(_msg(MsgType.SAMPLE_COUNT, 1, 0, 0, encode_sample_count(7)))
    with pytest.raises(FrameFormatError, match="magic"):
        deserialize(b"XXXX" + data[4:])
    with pytest.raises(FrameFormatError, match="version"):
        deserialize(data[:4] + b"\x09" + data[5:])
    with pytest.raises(FrameFormatError, match="type"):
        deserialize(data[:5] + b"\xee" + data[6:])


def test_a_version_1_frame_is_refused_naming_both_versions():
    # Version 1 sent a 1 x d mean and 16 bytes per share element at any l:
    # a role built before version 2 fails on the header, not mid-round.
    data = serialize(_msg(MsgType.PLAIN_MEAN, 0, 1, 4, encode_real_matrix([[0.0], [1.0]])))
    assert data[4] == 2
    with pytest.raises(FrameFormatError, match=r"version 1; this build reads version 2$"):
        deserialize(data[:4] + b"\x01" + data[5:])


def test_ciphertext_matrix_round_trip(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(1)
    w = 130  # three slots per 512-bit plaintext
    mat = paillier.enc_matrix(pk, [[1, 2, 3], [0, 2**129, 2**w - 1]], w, rng)
    payload = encode_encrypted_matrix(mat)
    assert len(payload) == 8 + 2 * ((pk.n_squared.bit_length() + 7) // 8)
    back = decode_encrypted_matrix(payload, pk, w)
    assert back.shape == (2, 3) and back.slot_bits == w
    assert [c.value for c in back.ciphers] == [c.value for c in mat.ciphers]


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
    # 15 slots of 130 bits per plaintext: 9 x 15 entries fill 9 ciphertexts.
    mat = paillier.EncryptedMatrix(
        (9, 15), 130, tuple(paillier.Ciphertext(v, pk) for v in values)
    )
    payload = encode_encrypted_matrix(mat)
    assert len(payload) == 8 + 9 * 512  # n^2 has 4095 or 4096 bits
    back = decode_encrypted_matrix(payload, pk, 130)
    assert back.shape == (9, 15)
    assert [c.value for c in back.ciphers] == values


def _cipher_payload(rows, cols, values, width) -> bytes:
    """The encrypted-matrix wire format, one ciphertext at a time."""
    return struct.pack(">II", rows, cols) + b"".join(v.to_bytes(width, "big") for v in values)


def test_ciphertext_matrix_golden_bytes():
    pk = paillier.PublicKey.from_modulus(15)  # n^2 = 225 fits one byte
    # 1-bit slots: bitlen(15) - 1 = 3 of them per plaintext, so a 2x2
    # matrix travels in two ciphertexts.
    mat = paillier.EncryptedMatrix(
        (2, 2), 1, (paillier.Ciphertext(1, pk), paillier.Ciphertext(224, pk))
    )
    payload = encode_encrypted_matrix(mat)
    assert payload == bytes.fromhex("00000002" "00000002" "01" "e0")
    assert payload == _cipher_payload(2, 2, [1, 224], 1)
    back = decode_encrypted_matrix(payload, pk, 1)
    assert back.shape == (2, 2) and [c.value for c in back.ciphers] == [1, 224]
    wide = paillier.PublicKey.from_modulus(257)  # n^2 = 66049 takes 3 bytes
    one = paillier.EncryptedMatrix((1, 1), 8, (paillier.Ciphertext(2, wide),))
    assert encode_encrypted_matrix(one) == bytes.fromhex("00000001" "00000001" "000002")


def test_public_key_and_share_matrix_round_trip(test_keypair):
    pk, _ = test_keypair
    assert decode_public_key(encode_public_key(pk)).n == pk.n

    bundle = share_matrix(from_ints([[5, 6], [7, 8]]), 2, 64, CounterPRG(2), "sums/1")[1]
    back = decode_share_matrix(encode_share_matrix(bundle))
    assert back == bundle


def test_public_key_golden_bytes():
    # The modulus's byte count as >I, then its minimal big-endian magnitude.
    for n, hex_payload in (
        (15, "00000001" "0f"),
        (257, "00000002" "0101"),
        (2**61 - 1, "00000008" "1fffffffffffffff"),
    ):
        payload = encode_public_key(paillier.PublicKey.from_modulus(n))
        assert payload == bytes.fromhex(hex_payload)
        assert decode_public_key(payload).n == n


def test_sample_count_round_trip():
    assert decode_sample_count(encode_sample_count(123456789)) == 123456789


def test_sample_count_golden_bytes():
    # One >Q: eight bytes, big-endian.
    for n, hex_payload in (
        (0, "0000000000000000"),
        (123456789, "00000000075bcd15"),
        (2**64 - 1, "ffffffffffffffff"),
    ):
        assert encode_sample_count(n) == bytes.fromhex(hex_payload)
        assert decode_sample_count(bytes.fromhex(hex_payload)) == n


def test_serialization_injective_over_random_messages(test_keypair):
    pk, _ = test_keypair
    rng = random.Random(3)
    nprng = np.random.default_rng(3)
    seen = {}
    for i in range(300):
        choice = rng.randrange(4)
        if choice == 0:
            # bytes, as delivered: the encoder's bytearray does not hash.
            payload = bytes(encode_real_matrix(nprng.normal(size=(rng.randint(1, 3), 2))))
            mt = rng.choice(
                [MsgType.PLAIN_MEAN, MsgType.TRANSFER_MATRIX, MsgType.REDUCED_ROWS]
            )
        elif choice == 1:
            payload = encode_sample_count(rng.randrange(1 << 32))
            mt = MsgType.SAMPLE_COUNT
        elif choice == 2:
            bundle = share_matrix(
                from_ints([[rng.randrange(1 << 16)]]), 2, 16, CounterPRG(i), f"s{i}"
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
    """The share-matrix wire format, one entry at a time: one 64-bit limb
    per entry for l <= 64, two above."""
    width = 8 if l <= 64 else 16
    return (
        struct.pack(">HHH", owner, l, len(sid))
        + sid
        + struct.pack(">II", rows, cols)
        + b"".join(v.to_bytes(width, "big") for v in values)
    )


def test_share_matrix_golden_bytes():
    secret = from_ints([[0, 1], [2**127 + 5, 2**128 - 1]])
    bundle = share_matrix(secret, 2, 128, CounterPRG(3), "g")[1]
    payload = encode_share_matrix(bundle)
    assert payload == _share_payload(1, 128, b"g", 2, 2, to_ints(bundle.values).ravel().tolist())
    assert decode_share_matrix(payload) == bundle


def test_share_matrix_golden_bytes_at_l_64():
    # One limb per element: the high limb of a 64-bit element is zero.
    share = ShareMatrix(from_ints([[1, 2**64 - 1]]), owner=1, secret_id="g", l=64)
    payload = encode_share_matrix(share)
    assert payload == bytes.fromhex(
        "0001" "0040" "0001" "67" "00000001" "00000002" "0000000000000001" "ffffffffffffffff"
    )
    assert payload == _share_payload(1, 64, b"g", 1, 2, [1, 2**64 - 1])
    assert decode_share_matrix(payload) == share
    secret = from_ints([[0, 1], [2**63 + 5, 2**64 - 1]])
    bundle = share_matrix(secret, 2, 64, CounterPRG(3), "g")[1]
    payload = encode_share_matrix(bundle)
    assert payload == _share_payload(1, 64, b"g", 2, 2, to_ints(bundle.values).ravel().tolist())
    assert decode_share_matrix(payload) == bundle


@pytest.mark.parametrize(
    "payload, fault",
    [
        (_share_payload(0, 8, b"\xff\xfe", 1, 1, [3]), "codec can't decode"),  # id not UTF-8
        # One limb per element at l = 8, so the length fits and the element fails.
        (_share_payload(0, 8, b"s", 1, 2, [3, 256]), r"\(0, 1\) outside \[0, 2\^8\)"),
        (_share_payload(0, 8, b"s", 0, 2, []), "0x2 has no entries"),  # no rows
        (_share_payload(0, 0, b"s", 1, 1, [0]), "ring width 0 outside"),  # l = 0
        (_share_payload(0, 200, b"s", 1, 1, [1]), "ring width 200 outside"),  # past 128 bits
    ],
    ids=["sid-not-utf8", "element-past-ring", "zero-rows", "l-0", "l-200"],
)
def test_malformed_share_matrix_raises_frame_format_error(payload, fault):
    with pytest.raises(FrameFormatError, match=fault):
        decode_share_matrix(payload)


@pytest.mark.parametrize("field", ["owner", "l", "secret id length"])
def test_a_share_header_field_past_16_bits_is_a_frame_format_error_naming_it(field):
    sid = "x" * 70000 if field == "secret id length" else "s"
    seeded, full = share_matrix(from_ints([[1]]), 2, 64, CounterPRG(1), secret_id=sid)
    if field != "secret id length":
        for share in (seeded, full):
            share.__dict__[field] = 1 << 16
    assert isinstance(seeded, SeededShare) and not isinstance(full, SeededShare)
    for encode, share in ((encode_share_matrix, full), (encode_seed_share, seeded)):
        with pytest.raises(FrameFormatError, match=f"^{field} .* 16-bit field"):
            encode(share)


def _seed_payload(owner, l, sid: bytes, rows, cols, seed: bytes) -> bytes:
    """The seed-form share wire format: the share header, then the seed."""
    return struct.pack(">HHH", owner, l, len(sid)) + sid + struct.pack(">II", rows, cols) + seed


def test_seed_share_golden_bytes():
    secret = from_ints([[0, 1], [2**127 + 5, 2**128 - 1]])
    bundle = share_matrix(secret, 2, 128, CounterPRG(3), "g")[0]
    # The seed is the first SHA-256 counter block of CounterPRG(3).
    seed = hashlib.sha256((3).to_bytes(32, "big") + (0).to_bytes(16, "big")).digest()
    payload = encode_seed_share(bundle)
    assert payload == _seed_payload(0, 128, b"g", 2, 2, seed)
    assert payload == bytes.fromhex(
        "0000" "0080" "0001" "67" "00000002" "00000002"
        "4257ccaa9daa0f374c042f528a951020bde55a2f2c49b0d817bf081c40696ef7"
    )
    assert decode_seed_share(payload, (2, 2)) == bundle


_SEED = bytes(range(32))


@pytest.mark.parametrize(
    "payload",
    [
        _seed_payload(0, 8, b"s", 1, 1, _SEED[:31]),  # seed cut short
        _seed_payload(0, 8, b"s", 1, 1, _SEED) + b"\x00",  # a trailing byte
        _seed_payload(0, 0, b"s", 1, 1, _SEED),  # l = 0
        _seed_payload(0, 200, b"s", 1, 1, _SEED),  # l past the 128-bit element
        _seed_payload(0, 8, b"s", 0, 2, _SEED),  # no rows
        _seed_payload(0, 8, b"\xff\xfe", 1, 1, _SEED),  # secret id not UTF-8
        _seed_payload(0, 8, b"s", 1 << 16, 1 << 13, _SEED),  # 8 GiB expanded
    ],
    ids=["truncated-seed", "trailing-byte", "l-0", "l-200", "zero-rows", "sid-not-utf8",
         "oversized-shape"],
)
def test_malformed_seed_share_raises_frame_format_error(payload):
    with pytest.raises(FrameFormatError):
        decode_seed_share(payload, (1, 1))


def test_malformed_key_and_ciphertext_raise_frame_format_error():
    pk = paillier.PublicKey.from_modulus(15)  # one byte per ciphertext
    w = 1  # three slots per plaintext

    assert decode_encrypted_matrix(_cipher_payload(1, 1, [2], 1), pk, w).ciphers[0].value == 2
    for payload in (
        _cipher_payload(1, 1, [3], 1),  # not coprime to n^2
        _cipher_payload(1, 1, [226], 2),  # past n^2, and the wrong width
        _cipher_payload(1, 1, [225], 1),  # n^2 itself is outside [0, n^2)
        _cipher_payload(1, 4, [2], 1),  # four entries need two ciphertexts
        _cipher_payload(1, 3, [2, 4], 1),  # three entries need only one
        _cipher_payload(2, 3, [2], 1),  # six entries need two
        _cipher_payload(1, 2, [], 1),  # entries but no ciphertext
        _cipher_payload(0, 1, [], 1),  # no rows
        _cipher_payload(1, 0, [], 1),  # no columns
        _cipher_payload(0, 3, [2], 1),  # no entries, one ciphertext
        b"\x00\x00\x00\x01",  # truncated header
    ):
        with pytest.raises(FrameFormatError):
            decode_encrypted_matrix(payload, pk, w)
    for n in (0, 1, 4):
        with pytest.raises(FrameFormatError):
            decode_public_key(messages._pack_bigint(n))


def test_ciphertext_sharing_a_factor_with_n_raises_frame_format_error(test_keypair):
    # The unit check reads gcd(value, n): n^2 has no prime factor n lacks.
    pk, sk = test_keypair
    width = messages._cipher_bytes(pk)
    good = paillier.encrypt(pk, 7, random.Random(19)).value
    assert decode_encrypted_matrix(_cipher_payload(1, 1, [good], width), pk, 130)
    multiples = (sk.p, 12345 * sk.p, sk.q**2, pk.n, pk.n_squared - sk.p, good * sk.q % pk.n_squared)
    for value in multiples:
        with pytest.raises(FrameFormatError, match="not coprime"):
            decode_encrypted_matrix(_cipher_payload(1, 1, [value], width), pk, 130)


# A small odd modulus keeps the coprimality checks cheap.
_FUZZ_PK = paillier.PublicKey.from_modulus(2**61 - 1)
_DECODERS = {
    "public_key": (decode_public_key, encode_public_key(_FUZZ_PK)),
    "real_matrix": (decode_real_matrix, encode_real_matrix([[1.0, -2.0]])),
    "encrypted_matrix": (  # 20-bit slots, three per plaintext
        lambda p: decode_encrypted_matrix(p, _FUZZ_PK, 20),
        _cipher_payload(2, 2, [5, 7], 16),  # n^2 has 122 bits
    ),
    "share_matrix": (
        decode_share_matrix,
        encode_share_matrix(share_matrix(from_ints([[1, 2]]), 2, 64, CounterPRG(1), "f")[0]),
    ),
    "seed_share": (
        lambda p: decode_seed_share(p, (1, 2)),
        encode_seed_share(share_matrix(from_ints([[1, 2]]), 2, 64, CounterPRG(1), "f")[0]),
    ),
    "sample_count": (decode_sample_count, encode_sample_count(9)),
    "frame": (
        deserialize,
        serialize(_msg(MsgType.SAMPLE_COUNT, 1, 0, 0, encode_sample_count(9))),
    ),
}


@pytest.mark.parametrize("name", sorted(_DECODERS))
def test_decoders_take_exactly_the_bytes_of_their_layout(name):
    decode, valid = _DECODERS[name]
    decode(valid)
    for cut in range(len(valid)):
        with pytest.raises(FrameFormatError):
            decode(valid[:cut])
    with pytest.raises(FrameFormatError):
        decode(valid + b"\x00")


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


_SHARES = share_matrix(from_ints(np.arange(6).reshape(2, 3)), 2, 64, CounterPRG(1), "f")
_SHAPED = {  # a 2x3 payload for each matrix decoder
    "real_matrix": (decode_real_matrix, encode_real_matrix(np.ones((2, 3)))),
    "encrypted_matrix": (
        lambda p, shape: decode_encrypted_matrix(p, _FUZZ_PK, 20, shape),
        _cipher_payload(2, 3, [5, 7], 16),
    ),
    "share_matrix": (decode_share_matrix, encode_share_matrix(_SHARES[1])),
    "seed_share": (decode_seed_share, encode_seed_share(_SHARES[0])),
}


@pytest.mark.parametrize("name", sorted(_SHAPED))
def test_a_matrix_decoder_refuses_a_shape_but_the_expected_one_naming_both(name):
    decode, payload = _SHAPED[name]
    for shape in ((2, 3), (None, 3), (2, None), (None, None)):
        assert decode(payload, shape).shape == (2, 3)
    wrong = {(2, 4): "2x4", (3, 3): "3x3", (None, 2): "*x2", (1, None): "1x*"}
    for shape, want in wrong.items():
        with pytest.raises(FrameFormatError, match=re.escape(f"2x3 is not the expected {want}")):
            decode(payload, shape)


def test_a_seed_share_of_another_shape_is_refused_before_it_expands():
    # 52 bytes whose header claims 1024x1024 entries at l = 128: 16 MiB expanded.
    payload = _seed_payload(1, 128, b"sums/1", 1024, 1024, _SEED)
    assert len(payload) == 52
    tracemalloc.start()
    try:
        with pytest.raises(FrameFormatError, match="1024x1024 is not the expected 1x4"):
            decode_seed_share(payload, (1, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- simulation bus ---------------------------------------------------------


def test_sim_bus_fifo_per_sender():
    net = SimulatedNetwork([1, 2])
    a = net.endpoint(1)
    b = net.endpoint(2)
    for i in range(3):
        a.send(_msg(MsgType.SAMPLE_COUNT, 1, 2, 0, encode_sample_count(i)))
    got = [decode_sample_count(b.recv(sender=1).payload) for i in range(3)]
    assert got == [0, 1, 2]
    assert len(net.transcript) == 3


def test_sim_bus_recv_timeout():
    net = SimulatedNetwork([1, 2], timeout=0.05)
    ep = net.endpoint(1)
    with pytest.raises(TransportTimeout):
        ep.recv(sender=2)


def test_sim_bus_abort_unblocks():
    net = SimulatedNetwork([1, 2], timeout=5.0)
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
    net = SimulatedNetwork([1, 2, 3])
    a, b, c = net.endpoint(1), net.endpoint(2), net.endpoint(3)
    b.send(_msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(22)))
    c.send(_msg(MsgType.SAMPLE_COUNT, 3, 1, 0, encode_sample_count(33)))
    # Ask for party 3 first; party 2's message must still arrive afterwards.
    assert decode_sample_count(a.recv(sender=3).payload) == 33
    assert decode_sample_count(a.recv(sender=2).payload) == 22


@pytest.mark.parametrize("network", [SimulatedNetwork, TcpNetwork])
def test_every_receive_after_two_aborts_reports_the_first_reason(network):
    net = network([1, 2], timeout=5.0)
    try:
        receiver = net.endpoint(1)
        frame = _msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(20))
        net.endpoint(2).send(frame)
        deadline = time.monotonic() + 5.0
        while network is TcpNetwork and not receiver._frames[2]:  # buffered by a reader thread
            assert time.monotonic() < deadline
            time.sleep(0.001)
        net.abort("first")
        net.abort("second")
        # The frame buffered before the aborts still arrives.
        assert receiver.recv(sender=2) == frame
        for _ in range(3):
            with pytest.raises(TransportClosed, match="^first$"):
                receiver.recv(sender=2)
    finally:
        net.close()


# --- TCP --------------------------------------------------------------------


def test_tcp_loopback_matches_sim_messages():
    sim = SimulatedNetwork([1, 2])
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


def test_tcp_eof_between_frames_ends_only_that_senders_channel():
    tcp = TcpNetwork([1, 2, 3], timeout=5.0)
    try:
        receiver, closing, other = tcp.endpoint(1), tcp.endpoint(2), tcp.endpoint(3)
        closing.send(_msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(20)))
        other.send(_msg(MsgType.SAMPLE_COUNT, 3, 1, 0, encode_sample_count(30)))
        closing.close()
        # Party 2's frame sent before the close is still delivered.
        assert decode_sample_count(receiver.recv(sender=2).payload) == 20
        for _ in range(2):  # and every later receive from it fails at once
            started = time.monotonic()
            with pytest.raises(TransportClosed, match="party 2"):
                receiver.recv(sender=2)
            assert time.monotonic() - started < 1.0
        other.send(_msg(MsgType.SAMPLE_COUNT, 3, 1, 1, encode_sample_count(31)))
        got = [decode_sample_count(receiver.recv(sender=3).payload) for _ in range(2)]
        assert got == [30, 31]
    finally:
        tcp.close()


def test_tcp_frame_cut_short_closes_the_receiver_at_once():
    frame = serialize(_msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(20)))
    # Inside the header, right after it, and inside the payload.
    for cut in (1, messages.header_size(), messages.header_size() + 3):
        receiver = TcpEndpoint(1, ("127.0.0.1", 0), timeout=5.0)
        try:
            with socket.create_connection(receiver.address) as peer:
                peer.sendall(frame[:cut])
            started = time.monotonic()
            with pytest.raises(TransportClosed, match="mid-frame"):
                receiver.recv(sender=2)
            assert time.monotonic() - started < 1.0
        finally:
            receiver.close()


def _reset(address, data):
    """Send ``data`` to ``address``, then reset the connection: with
    SO_LINGER 0, closing sends RST in place of FIN."""
    with socket.create_connection(address) as peer:
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.sendall(data)


def test_tcp_reset_between_frames_ends_only_that_senders_channel():
    tcp = TcpNetwork([1, 3], timeout=5.0)
    try:
        receiver, other = tcp.endpoint(1), tcp.endpoint(3)
        frame = _msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(20))
        _reset(receiver.address, serialize(frame))
        other.send(_msg(MsgType.SAMPLE_COUNT, 3, 1, 0, encode_sample_count(30)))
        # The frame that arrived before the reset is delivered.
        assert receiver.recv(sender=2) == frame
        started = time.monotonic()
        with pytest.raises(TransportClosed, match="party 2"):
            receiver.recv(sender=2)
        assert time.monotonic() - started < 1.0
        other.send(_msg(MsgType.SAMPLE_COUNT, 3, 1, 1, encode_sample_count(31)))
        got = [decode_sample_count(receiver.recv(sender=3).payload) for _ in range(2)]
        assert got == [30, 31]
    finally:
        tcp.close()


@pytest.mark.parametrize("cut", [1, messages.header_size() - 1, messages.header_size(),
                                 messages.header_size() + 3])
def test_tcp_reset_mid_frame_closes_the_receiver_at_once(cut):
    frame = serialize(_msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(20)))
    receiver = TcpEndpoint(1, ("127.0.0.1", 0), timeout=5.0)
    try:
        _reset(receiver.address, frame[:cut])
        started = time.monotonic()
        for sender in (2, 3):
            with pytest.raises(TransportClosed, match="mid-frame") as closed:
                receiver.recv(sender=sender)
            # The sender is named once its header has been read.
            assert ("party 2" in str(closed.value)) == (cut >= messages.header_size())
        assert time.monotonic() - started < 1.0
    finally:
        receiver.close()


def _tcp_receiver_rejects(frames, match):
    """Frames sent to party 1's listener on one connection, all but the
    last of them well formed: party 1 receives those, then both party 2's
    and party 3's channels are closed at once, for a reason that ``match``
    finds."""
    receiver = TcpEndpoint(1, ("127.0.0.1", 0), timeout=5.0)
    try:
        with socket.create_connection(receiver.address) as peer:
            peer.sendall(b"".join(serialize(m) for m in frames))
            started = time.monotonic()
            assert [receiver.recv(sender=2) for _ in frames[:-1]] == frames[:-1]
            for sender in (2, 3):
                with pytest.raises(TransportClosed, match=match):
                    receiver.recv(sender=sender)
            assert time.monotonic() - started < 1.0
        assert receiver.transcript.raw() == frames[:-1]
    finally:
        receiver.close()


def test_tcp_frame_addressed_to_another_party_closes_the_receiver():
    misaddressed = _msg(MsgType.SAMPLE_COUNT, 2, 5, 0, encode_sample_count(20))
    _tcp_receiver_rejects([misaddressed], "malformed frame: .*party 2 addressed to party 5")


def test_tcp_connection_switching_senders_closes_the_receiver():
    first = _msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(20))
    second = _msg(MsgType.SAMPLE_COUNT, 3, 1, 0, encode_sample_count(30))
    _tcp_receiver_rejects(
        [first, second], "malformed frame: party 2's channel carried a frame from party 3"
    )


def test_tcp_network_that_fails_to_bind_closes_the_listeners_it_made(monkeypatch):
    def accepting():
        return {t for t in threading.enumerate() if t.name.startswith("pppca-accept-")}

    before = accepting()
    real = transport.socket.create_server
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise OSError(errno.EMFILE, "Too many open files")
        return real(*args, **kwargs)

    monkeypatch.setattr(transport.socket, "create_server", third_fails)
    with pytest.raises(OSError, match="Too many open files"):
        TcpNetwork([0, 1, 2, 3])
    deadline = time.monotonic() + 2.0
    while accepting() - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not accepting() - before


def test_tcp_close_ends_the_reader_of_a_peer_that_stays_connected():
    def reading():
        return {t for t in threading.enumerate() if t.name == "pppca-read-1"}

    before = reading()
    receiver = TcpEndpoint(1, ("127.0.0.1", 0), timeout=5.0)
    frame = _msg(MsgType.SAMPLE_COUNT, 2, 1, 0, encode_sample_count(20))
    with socket.create_connection(receiver.address) as peer:
        peer.sendall(serialize(frame))
        assert receiver.recv(sender=2) == frame  # its reader thread is running
        readers = reading() - before
        assert len(readers) == 1
        started = time.monotonic()
        receiver.close()
        for t in readers:
            t.join(1.0)
        assert not any(t.is_alive() for t in readers)
        assert peer.recv(1) == b""  # the endpoint's side of the connection is shut
        # A receive after the close fails at once, whoever it waits for.
        for sender in (2, 3):
            with pytest.raises(TransportClosed, match="party 1's endpoint is closed"):
                receiver.recv(sender=sender)
        assert time.monotonic() - started < 1.0


def test_a_closed_tcp_endpoint_opens_no_channel():
    tcp = TcpNetwork([1, 2], timeout=0.2)
    try:
        sender, receiver = tcp.endpoint(1), tcp.endpoint(2)
        sender.close()
        with pytest.raises(TransportClosed, match="party 1's endpoint is closed"):
            sender.send(_msg(MsgType.SAMPLE_COUNT, 1, 2, 0, encode_sample_count(20)))
        with pytest.raises(TransportTimeout):
            receiver.recv(sender=1)
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
    from pppca import SessionConfig, run_session

    rng = np.random.default_rng(4)
    cfg = SessionConfig(method="ss", parties=3, k=2, seed=1)
    result = run_session(cfg, [rng.normal(size=(5, 4)) for _ in range(3)])
    last_step = {}
    for msg in result.transcript.entries():
        if msg.sender in last_step:
            assert msg.step > last_step[msg.sender]
        last_step[msg.sender] = msg.step
