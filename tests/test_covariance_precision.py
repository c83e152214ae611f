"""The opened covariance's precision at the roadmap's workload shapes.

The error is the largest entry error against the pooled rows' covariance in
``longdouble``, each over sqrt(C_ii C_jj), so that it reads the same in any
column's units.  Each bound is twice the error the 128-bit covariance round
gave on the same seeded session (1.030e-15, 1.429e-16 and 1.858e-16), so the
64-bit round at per-column scales may lose at most one bit.
"""

import numpy as np
import pytest

from pppca.datasets import make_wine_like
from pppca.protocol import SessionConfig, run_session


def latent_rows(rows: int, cols: int, k: int, seed: int) -> np.ndarray:
    """k strong directions (variances 100 down to 25) over unit noise, with
    column offsets in [-10, 10]."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    signal = (rng.normal(size=(rows, k)) * np.geomspace(10.0, 5.0, k)) @ basis.T
    return rng.uniform(-10.0, 10.0, size=cols) + signal + rng.normal(size=(rows, cols))


def normalized_error(covariance: np.ndarray, x: np.ndarray) -> float:
    pooled = x.astype(np.longdouble)
    centered = pooled - pooled.sum(axis=0) / len(pooled)
    reference = np.einsum("ij,ik->jk", centered, centered) / (len(pooled) - 1)
    variances = np.diag(reference)
    return float(np.max(np.abs(covariance - reference) / np.sqrt(np.outer(variances, variances))))


SHAPES = {  # name: (the rows, parties, k, bound)
    "W1": (lambda: make_wine_like(1599).features, 2, 4, 2.06e-15),
    "W2": (lambda: latent_rows(100_000, 48, 8, seed=2), 4, 8, 2.86e-16),
    "W3": (lambda: latent_rows(2000, 160, 8, seed=3), 3, 8, 3.72e-16),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_the_opened_covariance_keeps_its_digits(name):
    make_rows, parties, k, bound = SHAPES[name]
    x = make_rows()
    cfg = SessionConfig(method="ss", parties=parties, k=k, seed=5)
    result = run_session(cfg, np.array_split(x, parties))
    assert normalized_error(result.covariance, x) <= bound
