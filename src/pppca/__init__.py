"""Joint PCA over horizontally partitioned data without sharing plaintext rows.

Data providers, an aggregation server, and a data consumer cooperate to
compute the global covariance matrix through secure addition (Paillier
homomorphic encryption or n-out-of-n additive secret sharing), after which
the server eigendecomposes and broadcasts the projection.  The result is
numerically interchangeable with PCA on pooled plaintext data.
"""

from .encoding import FixedPointConfig, decode_fixed, encode_fixed
from .errors import PPCAError, ProtocolAbort
from .linalg import (
    EigenPairs,
    centralized_pca,
    center_columns,
    column_means,
    column_sums,
    gram,
    jacobi_eigh,
    largest_principal_angle,
    principal_angles,
    project,
    top_k_transfer,
)
from .paillier import keygen
from .privacy import assert_privacy, expected_message_counts
from .protocol import (
    SessionConfig,
    SessionResult,
    run_he,
    run_session,
    run_ss,
    secure_sum_he,
    secure_sum_ss,
)
from .sharing import CounterPRG, Share, ShareMatrix, add_local, reconstruct, share

__version__ = "0.1.0"

__all__ = [
    "CounterPRG",
    "EigenPairs",
    "FixedPointConfig",
    "PPCAError",
    "ProtocolAbort",
    "SessionConfig",
    "SessionResult",
    "Share",
    "ShareMatrix",
    "add_local",
    "assert_privacy",
    "center_columns",
    "centralized_pca",
    "column_means",
    "column_sums",
    "decode_fixed",
    "encode_fixed",
    "expected_message_counts",
    "gram",
    "jacobi_eigh",
    "keygen",
    "largest_principal_angle",
    "principal_angles",
    "project",
    "reconstruct",
    "run_he",
    "run_session",
    "run_ss",
    "secure_sum_he",
    "secure_sum_ss",
    "share",
    "top_k_transfer",
]
