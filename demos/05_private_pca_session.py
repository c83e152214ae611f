"""A full private PCA session, both aggregation methods.

Three hospitals hold disjoint patient rows over the same eleven features.
They jointly compute the covariance through secure addition, the server
eigendecomposes it, and the consumer receives only dimension-reduced rows.
The result matches PCA on the pooled plaintext rows, which nobody holds.
"""

import numpy as np

from pppca import (
    SessionConfig,
    assert_privacy,
    centralized_pca,
    largest_principal_angle,
    run_session,
)
from pppca.datasets import make_wine_like, partition_horizontal

wine = make_wine_like(rows=600)
parts = partition_horizontal(wine, parties=3, seed=5)
data = [p.features for p in parts]
print("three providers hold", [p.rows for p in parts], "rows each, 11 features")

# What a trusted third party WOULD compute if it saw all plaintext rows.
pooled = np.vstack(data)
oracle_transfer, oracle_reduced = centralized_pca(pooled, k=4)

print("\n--- secret-sharing session ---")
cfg = SessionConfig(method="ss", parties=3, k=4, seed=99)
ss = run_session(cfg, data)
print(f"messages exchanged : {len(ss.transcript)}")
print(f"reduced matrix     : {ss.reduced.shape[0]} x {ss.reduced.shape[1]} at the consumer")
angle = largest_principal_angle(ss.transfer, oracle_transfer)
print(f"subspace angle vs plaintext oracle: {angle:.2e} rad")
violations = assert_privacy(ss.transcript, cfg)
print(f"privacy audit      : {'clean' if not violations else violations}")

print("\n--- homomorphic-encryption session (test-size key) ---")
cfg_he = SessionConfig(
    method="he", parties=3, k=4, seed=99, key_bits=512, allow_test_key=True
)
he = run_session(cfg_he, data)
angle = largest_principal_angle(he.transfer, oracle_transfer)
print(f"subspace angle vs plaintext oracle: {angle:.2e} rad")
print(f"privacy audit      : {'clean' if not assert_privacy(he.transcript, cfg_he) else 'VIOLATIONS'}")
print(f"HE vs SS reduced rows differ by at most "
      f"{np.max(np.abs(he.reduced - ss.reduced)):.2e}")

print("\nwhat each party saw (canonical transcript):")
for msg in ss.transcript.entries()[:8]:
    print(f"  phase {msg.phase}: {msg.msg_type.name:16s} {msg.sender} -> {msg.receiver}")
print(f"  ... {len(ss.transcript) - 8} more messages")
