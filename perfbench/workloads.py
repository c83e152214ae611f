"""Workload definitions, seeded inputs and the independent numpy reference.

Every input is a pure function of the workload seed.  The program under test
receives only the generated row blocks; the reference below is computed here
with numpy alone, never with ``pppca``, so the checks do not grade the
program against itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pppca.datasets import make_wine_like
from pppca.protocol import SessionConfig


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    parties: int
    k: int
    rows: int
    cols: int
    key_bits: int = 2048
    source: str = "latent"  # "wine": make_wine_like; "latent": latent_rows
    session_estimate_s: float = 1.0  # a session's wall time on the reference machine

    def sessions(self, seconds: float) -> int:
        """Sessions in a run of ``seconds``: fixed by the workload, never by
        how fast this run happens to go, so every run and every commit does
        the same work with the same session seeds."""
        return max(1, round(seconds / self.session_estimate_s))

    def config(self, session_seed: int) -> SessionConfig:
        """The session configuration; ``session_seed`` drives keys, Paillier
        randomizers and share draws."""
        return SessionConfig(
            method=self.method,
            parties=self.parties,
            k=self.k,
            key_bits=self.key_bits,
            allow_test_key=self.key_bits == 512,
            seed=session_seed,
        )


# ROADMAP W1-W3, with W2 and W3 narrower; the README says why, and which
# layers each one loads.
# The estimates give 5, 10 and 6 sessions in a 25 s run.
WORKLOADS = {
    "he-wine": Workload("he-wine", "he", 2, 4, 1599, 11, source="wine", session_estimate_s=5.0),
    "ss-tall": Workload("ss-tall", "ss", 4, 8, 100_000, 16, session_estimate_s=2.5),
    "ss-wide": Workload("ss-wide", "ss", 3, 8, 2_000, 128, session_estimate_s=4.5),
}

TABLE_SEED = 0  # the latent tables' draw, fixed for every run

# Toy sizes with 512-bit test keys, for the smoke tests.
SMOKE = {
    "he-wine": Workload("he-wine", "he", 2, 4, rows=200, cols=11, key_bits=512, source="wine"),
    "ss-tall": Workload("ss-tall", "ss", 4, 3, rows=2_000, cols=12),
    "ss-wide": Workload("ss-wide", "ss", 3, 4, rows=200, cols=24),
}


def latent_rows(rows: int, cols: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Rows with k strong directions over unit isotropic noise.

    The k directions have variances from 100 down to 25, the rest about 1,
    so the covariance has a clear eigengap at k (about 24 against sampling
    fluctuations below 1).  Column offsets in [-10, 10] make centering matter.
    """
    basis, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    spread = np.geomspace(10.0, 5.0, k)
    signal = (rng.normal(size=(rows, k)) * spread) @ basis.T
    return rng.uniform(-10.0, 10.0, size=cols) + signal + rng.normal(size=(rows, cols))


@dataclass
class Inputs:
    """Provider row blocks in provider order, with labels when the source
    has them, and the numpy reference on the pooled rows."""

    blocks: list[np.ndarray]
    labels: np.ndarray | None
    mean: np.ndarray  # column means of the pooled rows
    abs_mean: np.ndarray  # column means of |x|
    cov: np.ndarray  # sample covariance of the pooled rows
    scale: np.ndarray  # (|Xc| + |mean|)^T (|Xc| + |mean|) / (n - 1)
    values: np.ndarray  # eigenvalues of cov, descending
    top: np.ndarray  # top-k eigenvectors of cov, d x k
    pca_rows: np.ndarray | None  # centered pooled rows @ top, when labelled

    @property
    def rows(self) -> int:
        return sum(b.shape[0] for b in self.blocks)


def make_blocks(w: Workload, seed: int) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The provider row blocks, in provider order, and the labels stacked in
    the same order (None without labels); ``seed`` decides which rows each
    provider holds.  This is all the program receives.

    Each workload has one fixed table, as a deployment does.  The cost of
    Jacobi depends on the matrix (3.1 to 3.6 s at d=160 across table draws),
    so a table drawn per seed would spread runs by data, not by program.
    """
    if w.source == "wine":
        ds = make_wine_like(w.rows)
        data, labels = ds.features, ds.labels
    else:
        table = np.random.default_rng([TABLE_SEED, w.rows, w.cols])
        data, labels = latent_rows(w.rows, w.cols, w.k, table), None
    # Shuffled horizontal split; sizes differ by at most one row.
    rng = np.random.default_rng([seed, w.rows, w.cols])
    parts = np.array_split(rng.permutation(w.rows), w.parties)
    blocks = [np.ascontiguousarray(data[idx]) for idx in parts]
    stacked_labels = None if labels is None else np.concatenate([labels[i] for i in parts])
    return blocks, stacked_labels


def reference(w: Workload, blocks: list[np.ndarray], labels: np.ndarray | None) -> Inputs:
    """The numpy reference on the pooled rows, accumulated block by block so
    that it holds no second copy of the rows."""
    n = sum(b.shape[0] for b in blocks)
    mean = sum(b.sum(axis=0) for b in blocks) / n
    abs_mean = sum(np.abs(b).sum(axis=0) for b in blocks) / n
    cov = np.zeros((w.cols, w.cols))
    scale = np.zeros((w.cols, w.cols))
    for b in blocks:
        centered = b - mean
        cov += centered.T @ centered
        np.abs(centered, out=centered)
        centered += np.abs(mean)
        scale += centered.T @ centered
    cov /= n - 1
    scale /= n - 1
    values, vectors = np.linalg.eigh(cov)
    values, vectors = values[::-1], vectors[:, ::-1]
    top = np.ascontiguousarray(vectors[:, : w.k])
    return Inputs(
        blocks=blocks,
        labels=labels,
        mean=mean,
        abs_mean=abs_mean,
        cov=cov,
        scale=scale,
        values=values,
        top=top,
        pca_rows=None if labels is None else np.vstack([(b - mean) @ top for b in blocks]),
    )


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The row blocks together with their reference."""
    return reference(w, *make_blocks(w, seed))
