"""The bytes of the secure-sum rounds, pinned.

The round frames (phases 2-7) of seeded sessions, share bundles and local
sums under ``ss`` and ciphertexts under ``he``, depend only on the data,
the seed and the fixed-point ring: the Gram matrix and column sums are
exact, so no BLAS or LAPACK rounding reaches them, and ``he`` keys and DJN
randomizers are drawn from the seed.  Their SHA-256 digests are therefore
the same on every machine, and a change to the ring arithmetic, the codecs,
the PRG stream or the Paillier packing shows here.
"""

import hashlib

import numpy as np
import pytest

from pppca import paillier
from pppca.encoding import FixedPointConfig
from pppca.protocol import SessionConfig, run_session

DIGESTS = {
    ("ss", 2, 128, 64): "8e8acc10fa58604d5956f67b921cfc07d855d8de9684b4d0c7edd5a80609bec9",
    ("ss", 3, 128, 64): "b8f421cccbce891aa43a55ede73436d4dc06ccd581d99df38afa1d3663f97cc2",
    ("ss", 4, 128, 64): "07ace31a06b580966b75475e7f3e2a265be286c601ffaf78ff2f9e691c5c03a1",
    ("ss", 2, 64, 24): "d6b5654fa3e2a3a69bc8327ce54cfa999dce6f3313f602f6bac5907eb3af1c00",
    ("ss", 3, 64, 24): "d94bb6295649947e0f75037de7a2c25e67da1a5b02cfeb12a54ab7ad9249f192",
    ("ss", 4, 64, 24): "464f3c5b7a79a88d83f9deede2b42406fff4a23daf3765cd8a8cd0dd4dfd90a8",
    ("he", 2, 128, 64): "1c22da282d8303d0ba215a9ea53605c134d025d82db5518fc290ee377d4cfaf1",
    ("he", 3, 128, 64): "a2d28221ad877ec38666fd4a3219829088b2e4f47186c6c9a0421054bc89154d",
    ("he", 4, 128, 64): "2a135ccdb3b45848ef629c0b234822055ff353fb0a8c8a9574f2bdaf5a001c21",
    ("he", 2, 64, 24): "524098e3d47569bab670b19fae5963c8531bc0988d5ed5076ebaa6a095819897",
    ("he", 3, 64, 24): "1d7a16b0dcace1d03025ce651f6b221a151475f9c028ba7a1449924a57384575",
    ("he", 4, 64, 24): "0ef144cd76893a49eb0238c0dec46e1b1745f89cf3b53729062bf6b924576dd6",
    # l = 65 puts the offset's bit, l - 1, in the high limb's lowest bit.
    ("he", 3, 65, 20): "f4d26baa1b81470fd7a215072f999ccd0b6e60edc5add314e6867c0fa5abe8fd",
}

def round_digest(result, cfg: SessionConfig) -> tuple[int, str]:
    """The round frames' count, and the digest of their payloads in
    canonical transcript order."""
    types = {t for hops in cfg.secure_sum.rounds for t in hops}
    frames = [m.payload for m in result.transcript.entries() if m.msg_type in types]
    return len(frames), hashlib.sha256(b"".join(frames)).hexdigest()


@pytest.mark.parametrize(
    "method, parties, l, f",
    [
        pytest.param(*key, id="-".join(map(str, key[1:] if key[0] == "ss" else key)))
        for key in sorted(DIGESTS)
    ],
)
def test_share_round_bytes_are_pinned(method, parties, l, f):
    rng = np.random.default_rng(1000 + parties)
    data = rng.normal(size=(9 * parties, 5)) * [1.0, 3.0, 0.5, 20.0, 1e-3]
    cfg = SessionConfig(
        method=method,
        parties=parties,
        k=2,
        seed=77 + parties,
        fixed_point=FixedPointConfig(l=l, f=f),
        key_bits=512,
        allow_test_key=True,
    )
    result = run_session(cfg, np.array_split(data, parties))
    # Per round, ss sends M(M - 1) bundles and M local sums, and he sends
    # M - 1 ciphertexts to the aggregator and one fold to the server.
    per_round = parties * parties if method == "ss" else parties
    assert round_digest(result, cfg) == (2 * per_round, DIGESTS[method, parties, l, f])


@pytest.mark.skipif(paillier._powmod is pow, reason="libgmp.so.10 did not load")
def test_he_round_bytes_are_pinned_under_the_builtin_pow(builtin_kernel):
    # One digest again with keygen, the randomizer table and decryption on
    # the fallback, so that both kernels are held to the same bits.
    test_share_round_bytes_are_pinned("he", 3, 128, 64)
