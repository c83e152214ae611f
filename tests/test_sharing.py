import hashlib
import random

import numpy as np
import pytest
from scipy import stats

from pppca import sharing
from pppca.encoding import FixedPointConfig, matrix_decode_fixed, matrix_encode_fixed
from pppca.errors import (
    IncompleteSharesError,
    ShareBindingError,
    ShareOwnershipError,
)
from pppca.messages import decode_share_matrix, encode_share_matrix
from pppca.sharing import (
    CounterPRG,
    ShareMatrix,
    add_local,
    add_local_matrix,
    reconstruct,
    reconstruct_matrix,
    share,
    share_matrix,
)


def test_share_sum_small():
    shares = share(7, 3, 8, CounterPRG(1))
    assert sum(s.value for s in shares) % 256 == 7
    assert [s.owner for s in shares] == [0, 1, 2]


def test_share_zero_secret():
    shares = share(0, 4, 16, CounterPRG(2))
    assert sum(s.value for s in shares) % (1 << 16) == 0


def test_share_reconstruct_round_trip():
    rng = random.Random(3)
    prg = CounterPRG(3)
    for _ in range(1000):
        parties = rng.randint(2, 8)
        s = rng.randrange(1 << 64)
        assert reconstruct(share(s, parties, 64, prg)) == s


def test_share_rejects_bad_args():
    with pytest.raises(ValueError):
        share(1, 1, 8, CounterPRG(4))
    with pytest.raises(ValueError):
        share(256, 2, 8, CounterPRG(4))


def test_reconstruct_hand_value():
    prg = CounterPRG(5)
    shares = [
        sharing.Share(value=3, owner=0, secret_id="x", l=8),
        sharing.Share(value=250, owner=1, secret_id="x", l=8),
        sharing.Share(value=10, owner=2, secret_id="x", l=8),
    ]
    assert reconstruct(shares) == (3 + 250 + 10) % 256


def test_reconstruct_missing_share():
    shares = share(99, 3, 16, CounterPRG(6))
    with pytest.raises(IncompleteSharesError):
        reconstruct([shares[0], shares[2]])
    with pytest.raises(IncompleteSharesError):
        reconstruct(shares[:2], party_count=3)


def test_reconstruct_mixed_secret_ids():
    a = share(1, 2, 8, CounterPRG(7), secret_id="a")
    b = share(2, 2, 8, CounterPRG(8), secret_id="b")
    with pytest.raises(ShareBindingError):
        reconstruct([a[0], b[1]])


def test_reconstruct_matches_modular_sum_oracle():
    rng = random.Random(9)
    prg = CounterPRG(9)
    for _ in range(200):
        s = rng.randrange(1 << 32)
        shares = share(s, rng.randint(2, 6), 32, prg)
        assert reconstruct(shares) == sum(x.value for x in shares) % (1 << 32)


def test_add_local_single_and_zero():
    prg = CounterPRG(10)
    shares = share(5, 2, 8, prg)
    assert add_local([shares[0]]).value == shares[0].value
    zeros = [
        sharing.Share(value=0, owner=1, secret_id=f"z{i}", l=8) for i in range(3)
    ]
    assert add_local(zeros).value == 0


def test_add_local_end_to_end_aggregation():
    # Share two secrets, sum locally per party, reconstruct the local sums.
    prg = CounterPRG(11)
    u, v, parties, l = 91, 205, 3, 16
    su = share(u, parties, l, prg, secret_id="u")
    sv = share(v, parties, l, prg, secret_id="v")
    locals_ = [add_local([su[i], sv[i]]) for i in range(parties)]
    assert reconstruct(locals_, party_count=parties) == (u + v) % (1 << l)


def test_add_local_rejects_mixed_owners():
    prg = CounterPRG(12)
    shares = share(5, 2, 8, prg)
    with pytest.raises(ShareOwnershipError):
        add_local(shares)


def test_linearity_exhaustive_small_ring():
    # Every secret pair in Z_256 with 3 parties: local sums reconstruct u + v.
    prg = CounterPRG(13)
    for u in range(256):
        for v in range(256):
            su = share(u, 3, 8, prg, secret_id="u")
            sv = share(v, 3, 8, prg, secret_id="v")
            locals_ = [add_local([su[i], sv[i]]) for i in range(3)]
            assert reconstruct(locals_, party_count=3) == (u + v) % 256


def test_determinism_same_seed_same_shares():
    a = share(1234, 4, 64, CounterPRG(99), secret_id="s")
    b = share(1234, 4, 64, CounterPRG(99), secret_id="s")
    assert [x.value for x in a] == [x.value for x in b]
    c = share(1234, 4, 64, CounterPRG(100), secret_id="s")
    assert [x.value for x in a] != [x.value for x in c]


def test_share_uniformity_chi_squared():
    """Low byte of any single share is uniform across PRG seeds."""
    secret = 0xDEADBEEF
    buckets_random = np.zeros(256, dtype=int)
    buckets_balance = np.zeros(256, dtype=int)
    for seed in range(10_000):
        shares = share(secret, 3, 64, CounterPRG(seed))
        buckets_random[shares[0].value & 0xFF] += 1
        buckets_balance[shares[2].value & 0xFF] += 1
    critical = stats.chi2.ppf(0.99, 255)
    for buckets in (buckets_random, buckets_balance):
        expected = buckets.sum() / 256
        chi2 = float(((buckets - expected) ** 2 / expected).sum())
        assert chi2 < critical


def test_prg_determinism_and_derivation():
    a, b = CounterPRG(7), CounterPRG(7)
    assert [a.randbits(64) for _ in range(10)] == [b.randbits(64) for _ in range(10)]
    derived = CounterPRG(7).derive("x")
    assert derived.randbits(64) != CounterPRG(7).randbits(64)
    with pytest.raises(ValueError):
        CounterPRG(-1)
    with pytest.raises(ValueError):
        CounterPRG(b"")


# --- matrix lifts -------------------------------------------------------------


def test_share_matrix_round_trip_small():
    ring = [[1, 2], [3, 4]]
    mats = share_matrix(ring, 3, 16, CounterPRG(14))
    assert np.array_equal(reconstruct_matrix(mats, party_count=3), ring)


def test_share_matrix_zero():
    ring = [[0, 0], [0, 0]]
    mats = share_matrix(ring, 2, 8, CounterPRG(15))
    assert np.array_equal(reconstruct_matrix(mats), ring)


def test_share_matrix_aggregation_matches_plaintext_through_encoding():
    # The bound below is the fixed-point error, which must dominate the
    # binary64 rounding of the reference sum: f = 64 would put it below an ulp.
    cfg = FixedPointConfig(l=64, f=24)
    rng = np.random.default_rng(16)
    mats = [rng.normal(size=(11, 11)) * 20 for _ in range(3)]
    prg = CounterPRG(16)
    bundles = [
        share_matrix(matrix_encode_fixed(m, cfg), 3, cfg.l, prg, f"m{i}")
        for i, m in enumerate(mats)
    ]
    locals_ = [
        add_local_matrix([bundles[term][owner] for term in range(3)])
        for owner in range(3)
    ]
    got = matrix_decode_fixed(reconstruct_matrix(locals_, party_count=3), cfg)
    assert np.max(np.abs(got - sum(mats))) <= 2 ** (-cfg.f + 2)


def test_share_matrix_shape_mismatch_detected():
    a = share_matrix([[1, 2]], 2, 8, CounterPRG(17), "a")
    b = share_matrix([[1], [2]], 2, 8, CounterPRG(18), "a")
    with pytest.raises(Exception, match="shape"):
        reconstruct_matrix([a[0], b[1]])


def test_share_matrix_range_error_location():
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        share_matrix([[1, 300]], 2, 8, CounterPRG(19))


def _reference_draws(seed: int, bits: int, count: int) -> list[int]:
    """Successive draws from the SHA-256 counter stream, one at a time."""
    nbytes = (bits + 7) // 8
    blocks = (count * nbytes + 31) // 32
    stream = b"".join(
        hashlib.sha256(seed.to_bytes(32, "big") + i.to_bytes(16, "big")).digest()
        for i in range(blocks)
    )
    return [
        int.from_bytes(stream[i * nbytes : (i + 1) * nbytes], "big") >> (nbytes * 8 - bits)
        for i in range(count)
    ]


@pytest.mark.parametrize("l", [13, 64, 128])
def test_share_matrix_consumes_the_stream_in_row_major_entry_order(l):
    ring = [[1, 2, 3], [4, 5, (1 << l) - 1]]
    parties = 3
    assert CounterPRG(21).randbits_array(l, 40).tolist() == _reference_draws(21, l, 40)
    mats = share_matrix(ring, parties, l, CounterPRG(21), "s")
    prg = CounterPRG(21)
    for r in range(2):
        for c in range(3):
            drawn = [prg.randbits(l) for _ in range(parties - 1)]
            assert [m.values[r, c] for m in mats[:-1]] == drawn
            assert mats[-1].values[r, c] == (ring[r][c] - sum(drawn)) % (1 << l)


def test_l128_share_codec_local_sum_reconstruct_round_trip():
    l, parties = 128, 3
    rng = random.Random(22)
    terms = [
        [[rng.randrange(1 << l) for _ in range(4)] for _ in range(2)] for _ in range(2)
    ]
    terms[0][0][0] = (1 << l) - 1
    prg = CounterPRG(22)
    bundles = [share_matrix(t, parties, l, prg, f"t{i}") for i, t in enumerate(terms)]
    received = [[decode_share_matrix(encode_share_matrix(m)) for m in b] for b in bundles]
    assert received == bundles
    sums = [add_local_matrix([b[owner] for b in received]) for owner in range(parties)]
    opened = [decode_share_matrix(encode_share_matrix(m)) for m in sums]
    got = reconstruct_matrix(opened, party_count=parties)
    want = (np.array(terms[0], dtype=object) + np.array(terms[1], dtype=object)) % (1 << l)
    assert got.tolist() == want.tolist()


def test_share_matrix_values_are_one_read_only_array():
    m = share_matrix([[1, 2], [3, 4]], 2, 16, CounterPRG(23))[0]
    assert isinstance(m.values, np.ndarray) and m.values.shape == (2, 2)
    assert m.values.dtype == object and not m.values.flags.writeable
    with pytest.raises(ValueError):
        m.values[0, 0] = 0
    source = np.array([[1, 2]], dtype=object)
    held = ShareMatrix(source, 0, "x", 8)
    source[0, 0] = 7  # the share keeps its own copy
    assert held.values[0, 0] == 1
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        ShareMatrix([[1, 256]], 0, "x", 8)
