"""The bytes of the secret-sharing rounds, pinned.

The share-bundle and local-sum frames (phases 1-6) of seeded ``ss``
sessions depend only on the data, the seed and the fixed-point ring: the
Gram matrix and column sums are exact, so no BLAS or LAPACK rounding reaches
them.  Their SHA-256 digests are therefore the same on every machine, and a
change to the ring arithmetic, the share codec or the PRG stream shows here.
"""

import hashlib

import numpy as np
import pytest

from pppca.encoding import FixedPointConfig
from pppca.messages import SHARE_TYPES
from pppca.protocol import SessionConfig, run_ss

DIGESTS = {
    (2, 128, 64): "938de798984433c9a88c6a250ef0fe96ff5165971ad02f2fd4dd1cb6640ebd3d",
    (3, 128, 64): "e6986f72d878647fadc7d4cf37364696ebd0f4fee6f1cad5e28e755e8d2ec215",
    (4, 128, 64): "598207232e162fdadfb767e6316512dbc95b940875e3769cfb3dad88011d2db9",
    (2, 64, 24): "f0d42a6018897da43c66d61df54ee373d48a5071353c03fcde6a6876a71e212b",
    (3, 64, 24): "3a06f1a126af1c37061dc50c28521257831bc3e53a7e79ddd58837035348d663",
    (4, 64, 24): "922026925fa5b0e03893fae8829f1681cbc53f34544c9f095e6da9c2fe4716bb",
}


def share_round_digest(result) -> tuple[int, str]:
    """The share frames' count, and the digest of their payloads in
    canonical transcript order."""
    frames = [
        m.payload
        for m in result.transcript.entries()
        if m.msg_type in SHARE_TYPES and 1 <= m.phase <= 6
    ]
    return len(frames), hashlib.sha256(b"".join(frames)).hexdigest()


@pytest.mark.parametrize("parties, l, f", sorted(DIGESTS))
def test_share_round_bytes_are_pinned(parties, l, f):
    rng = np.random.default_rng(1000 + parties)
    data = rng.normal(size=(9 * parties, 5)) * [1.0, 3.0, 0.5, 20.0, 1e-3]
    cfg = SessionConfig(
        method="ss",
        parties=parties,
        k=2,
        seed=77 + parties,
        fixed_point=FixedPointConfig(l=l, f=f),
    )
    result = run_ss(cfg, np.array_split(data, parties))
    # Per round, M(M - 1) bundles and M local sums; two rounds.
    assert share_round_digest(result) == (2 * parties * parties, DIGESTS[parties, l, f])
