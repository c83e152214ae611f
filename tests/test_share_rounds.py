"""The bytes of the secure-sum rounds, pinned.

The round frames (phases 2-7) of seeded sessions, share bundles and local
sums under ``ss`` and ciphertexts under ``he``, depend only on the data,
the seed and the fixed-point rings: the Gram matrix and column sums are
exact, so no BLAS or LAPACK rounding reaches them, the sums of squares are
float sums on a grid of 2^-5 or coarser here, far above their rounding, and
``he`` keys and DJN randomizers are drawn from the seed.  Their SHA-256
digests are therefore the same on every machine, and a change to the ring
arithmetic, the scales, the codecs, the PRG stream or the Paillier packing
shows here.
"""

import hashlib

import numpy as np
import pytest

from pppca import paillier
from pppca.encoding import FixedPointConfig
from pppca.protocol import SessionConfig, run_session

DIGESTS = {
    ("ss", 2, 128, 64): "999201fb7d84899305aa75afae006791a1ef284678bb5576a320e97cb6f6fc2d",
    ("ss", 3, 128, 64): "46b92d3e883cb4282853693f61016706043eb7916c326fd6c351b68b80be865a",
    ("ss", 4, 128, 64): "69b846f980ad92500e348c60b3d1f11a566471c46ccac23de733a0ca65b066b6",
    ("ss", 2, 64, 24): "066976729493c18f23f36971a77bc9af9a81305c310dc95ead785a7ca4c3568d",
    ("ss", 3, 64, 24): "9548aa1a9880b78d141012b39d1c4f85faba0ff6a0b41526d8f2f1ea8b9cd7e3",
    ("ss", 4, 64, 24): "355494a3f4033958690315bbbe38b86fdcf4e3fd3e1984ac353b1c6d21b113b4",
    ("he", 2, 128, 64): "d1200e7d7978e8f5475ada688162abfb890faf00dd1dbf17f52ddb199e781fc7",
    ("he", 3, 128, 64): "75d456b481ead1806dcc317b6c50388274dc2d4fa473902010d7ed7907d58c00",
    ("he", 4, 128, 64): "fdf513b85a59575fb12e29b32cb13b23f1f970af552984502141beb09048c9ce",
    ("he", 2, 64, 24): "1f4bb3433aae74208d0f0d094b80218b0c56d5c791367fb8eee47ca6c9f28b04",
    ("he", 3, 64, 24): "ae0f4567699b45cb0bbfc14cb260e09e8b3b9f6f1926c2b5c6ea3f809a1bd39b",
    ("he", 4, 64, 24): "2762087aae6b4585a3a3ae23252be37463609388c25868845ea3e29456331127",
    # l = 65 puts the offset's bit, l - 1, in the high limb's lowest bit.
    ("he", 3, 65, 20): "014730f96d01f0894e1bf63f46104cfd44374efb630abf7c8f081ffeece6a890",
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
