"""Cross-validated comparison of centralized, per-provider, and private PCA.

``compare`` reproduces the experimental design at desk scale: rows are
assigned to providers once, then five-fold cross validation fits every
transform on training rows only, projects the held-out rows with the learned
transfer matrix, and scores a linear or logistic model on the projections.

Methods:

* ``centralized``  - PCA on pooled plaintext training rows (the oracle):
                     ``separate``'s loop with every row in one group,
* ``separate``     - each provider fits PCA on its own rows only; test rows
                     are projected by their owner's local transform,
* ``pppca-he``     - the protocol with Paillier aggregation,
* ``pppca-ss``     - the protocol with additive secret sharing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .datasets import Dataset, assign_providers, partition_horizontal
from .errors import ConfigError, DataError
from .messages import Transcript
from .models import auc, rmse, train_linreg, train_logreg
from .privacy import expected_message_counts, message_counts_by_type
from .protocol import SessionConfig, run_session

METHODS = ("centralized", "separate", "pppca-he", "pppca-ss")

TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "classification"


@dataclass
class RunReport:
    """Outcome of one method across all folds."""

    method: str
    k: int
    metric_name: str
    fold_metrics: list[float]
    mean_metric: float
    protocol_sample_counts: list[int] = field(default_factory=list)
    transcripts: list[Transcript] = field(default_factory=list)


def kfold_indices(
    rows: int, folds: int, seed: int | None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled disjoint folds as sorted (train, test) index pairs: fold i
    tests the rows that ``assign_providers(rows, folds, seed)`` puts in
    group i and trains on the rest."""
    if folds < 2 or folds > rows:
        raise ConfigError(f"folds must lie in [2, {rows}], got {folds}")
    groups = assign_providers(rows, folds, seed)
    return [(np.flatnonzero(groups != i), np.flatnonzero(groups == i)) for i in range(folds)]


def infer_task(ds: Dataset) -> str:
    if ds.labels is None:
        raise DataError("dataset has no label column; cannot train a model")
    values = np.unique(ds.labels)
    if values.size <= 2 and np.all(np.isin(values, (0.0, 1.0))):
        return TASK_CLASSIFICATION
    return TASK_REGRESSION


def _fit_score(task, train_x, train_y, test_x, test_y) -> float:
    if task == TASK_CLASSIFICATION:
        model = train_logreg(train_x, train_y)
        return auc(model.predict_proba(test_x), test_y)
    model = train_linreg(train_x, train_y)
    return rmse(model.predict(test_x), test_y)


def compare(
    ds: Dataset,
    parties: int,
    k: int,
    methods=METHODS,
    seed: int | None = 0,
    folds: int = 5,
    task: str | None = None,
    keep_transcripts: bool = False,
    **session,
) -> list[RunReport]:
    """Run the three-way comparison and return one report per method.

    ``seed`` fixes the provider assignment, the folds and each fold's
    session seed.  ``session`` holds any other :class:`SessionConfig` field
    (``key_bits``, ``allow_test_key``, ``fixed_point``, ``timeout``), with
    ``SessionConfig``'s defaults for the rest.  One ``SessionConfig`` of
    ``parties``, ``k``, ``seed`` and ``session`` checks them all before the
    first fold, whatever the methods; each protocol method's config is that
    one with its method, also built up front.
    """
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    if not 1 <= k < ds.cols:
        raise ConfigError(f"k={k} must satisfy 1 <= k < d={ds.cols}")
    task = infer_task(ds) if task is None else task
    if task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
        raise ConfigError(f"unknown task {task!r}")
    metric_name = "auc" if task == TASK_CLASSIFICATION else "rmse"
    base = SessionConfig(method="ss", parties=parties, k=k, seed=seed, **session)
    configs = {
        m: replace(base, method=m.removeprefix("pppca-")) for m in methods if m.startswith("pppca-")
    }

    assignment = assign_providers(ds.rows, parties, seed)
    folds_idx = kfold_indices(ds.rows, folds, None if seed is None else seed + 1)
    reports = []
    for method in methods:
        fold_metrics: list[float] = []
        sample_counts: list[int] = []
        transcripts: list[Transcript] = []
        for fold, (train_idx, test_idx) in enumerate(folds_idx):
            train = ds.take(train_idx)
            test = ds.take(test_idx)
            if method in ("centralized", "separate"):
                # The oracle is the one-group case: every row belongs to group 0.
                groups = assignment if method == "separate" else np.zeros_like(assignment)
                train_proj = np.empty((train.rows, k))
                test_proj = np.empty((test.rows, k))
                for q in range(groups.max() + 1):
                    tr_mask = groups[train_idx] == q
                    te_mask = groups[test_idx] == q
                    local = train.features[tr_mask]
                    if local.shape[0] < 2:
                        owner = f"provider {q + 1}" if method == "separate" else "the pool"
                        raise DataError(
                            f"{owner} has {local.shape[0]} training rows in fold "
                            f"{fold}; cannot fit a PCA"
                        )
                    mean, transfer = linalg.pca_fit(local, k)
                    train_proj[tr_mask] = linalg.project(local, transfer, mean)
                    if te_mask.any():
                        test_proj[te_mask] = linalg.project(
                            test.features[te_mask], transfer, mean
                        )
                train_y = train.labels
            else:
                cfg = replace(
                    configs[method],
                    seed=None if seed is None else seed + 1000 * (fold + 1),
                )
                provider_rows = [
                    train_idx[assignment[train_idx] == q] for q in range(parties)
                ]
                result = run_session(
                    cfg, [ds.features[rows] for rows in provider_rows]
                )
                # The consumer sees rows stacked in provider order; align labels.
                train_y = ds.labels[np.concatenate(provider_rows)]
                train_proj = result.reduced
                test_proj = linalg.project(test.features, result.transfer, result.mean)
                sample_counts.append(result.sample_count)
                if keep_transcripts:
                    transcripts.append(result.transcript)
            fold_metrics.append(
                _fit_score(task, train_proj, train_y, test_proj, test.labels)
            )
        reports.append(
            RunReport(
                method=method,
                k=k,
                metric_name=metric_name,
                fold_metrics=fold_metrics,
                mean_metric=float(np.mean(fold_metrics)),
                protocol_sample_counts=sample_counts,
                transcripts=transcripts,
            )
        )
    return reports


def _table(reports: list[RunReport], digits: int) -> list[list[str]]:
    """The header and one row per report, metrics to ``digits`` places; a
    report with fewer folds than the most has empty cells for the rest."""
    folds = max((len(r.fold_metrics) for r in reports), default=0)
    rows = [["method", "k", "metric", *[f"fold{i + 1}" for i in range(folds)], "mean"]]
    for r in reports:
        metrics = [f"{v:.{digits}f}" for v in r.fold_metrics]
        metrics += [""] * (folds - len(metrics))
        rows.append([r.method, str(r.k), r.metric_name, *metrics, f"{r.mean_metric:.{digits}f}"])
    return rows


def render_report(reports: list[RunReport]) -> str:
    """Aligned text table; deterministic for a fixed seed (no timings)."""
    if not reports:
        return "(no reports)\n"
    table = _table(reports, 4)
    widths = [max(map(len, column)) for column in zip(*table)]
    table.insert(1, ["-" * w for w in widths])
    return "".join(
        "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n" for row in table
    )


def reports_to_csv(reports: list[RunReport]) -> str:
    return "\n".join(",".join(row) for row in _table(reports, 6)) + "\n"


@dataclass
class BenchResult:
    parties: int
    method: str
    seconds: float
    message_counts: dict[str, int]
    expected_counts: dict[str, int]

    @property
    def counts_match(self) -> bool:
        return self.message_counts == self.expected_counts


def bench(ds: Dataset, parties_list, **session) -> list[BenchResult]:
    """Time full-dataset protocol runs for each party count and verify the
    message accounting against the algorithm's exact counts.

    ``session`` holds every :class:`SessionConfig` field but ``parties``
    (``method`` and ``k`` at least), with ``SessionConfig``'s defaults for
    the rest; ``seed`` also fixes the provider assignment.  Every party
    count's config is built, and so checked, before the first run.
    """
    results = []
    for cfg in [SessionConfig(parties=p, **session) for p in parties_list]:
        parts = partition_horizontal(ds, cfg.parties, cfg.seed)
        started = time.perf_counter()
        result = run_session(cfg, [p.features for p in parts])
        elapsed = time.perf_counter() - started
        results.append(
            BenchResult(
                parties=cfg.parties,
                method=cfg.method,
                seconds=elapsed,
                message_counts=message_counts_by_type(result.transcript),
                expected_counts=expected_message_counts(cfg),
            )
        )
    return results


def render_bench(results: list[BenchResult]) -> str:
    lines = [
        "parties  method  seconds  messages  accounting",
        "-------  ------  -------  --------  ----------",
    ]
    for r in results:
        total = sum(r.message_counts.values())
        ok = "exact" if r.counts_match else "MISMATCH"
        lines.append(
            f"{r.parties:7d}  {r.method:6s}  {r.seconds:7.2f}  {total:8d}  {ok}"
        )
    return "\n".join(lines) + "\n"
