"""Cross-validated comparison of centralized, per-provider, and private PCA.

``compare`` reproduces the experimental design at desk scale: rows are
assigned to providers once, then five-fold cross validation fits every
transform on training rows only, projects the held-out rows with the learned
transfer matrix, and scores a linear or logistic model on the projections.

Methods:

* ``centralized``  - PCA on pooled plaintext training rows (the oracle),
* ``separate``     - each provider fits PCA on its own rows only; test rows
                     are projected by their owner's local transform,
* ``pppca-he``     - the protocol with Paillier aggregation,
* ``pppca-ss``     - the protocol with additive secret sharing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .datasets import Dataset, assign_providers
from .encoding import FixedPointConfig
from .errors import ConfigError, DataError
from .messages import Transcript
from .models import auc, rmse, train_linreg, train_logreg
from .privacy import expected_message_counts, message_counts_by_type
from .protocol import METHOD_HE, METHOD_SS, SessionConfig, run_session

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
    timings: dict[str, float] = field(default_factory=dict)
    protocol_sample_counts: list[int] = field(default_factory=list)
    transcripts: list[Transcript] = field(default_factory=list)


def kfold_indices(
    rows: int, folds: int, seed: int | None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled disjoint folds as (train, test) index pairs."""
    if folds < 2 or folds > rows:
        raise ConfigError(f"folds must lie in [2, {rows}], got {folds}")
    perm = np.random.default_rng(seed).permutation(rows)
    chunks = np.array_split(perm, folds)
    out = []
    for i in range(folds):
        test = np.sort(chunks[i])
        train = np.sort(np.concatenate([chunks[j] for j in range(folds) if j != i]))
        out.append((train, test))
    return out


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


def _project_with(features: np.ndarray, mean: np.ndarray, transfer: np.ndarray):
    return (features - mean) @ transfer


def compare(
    ds: Dataset,
    parties: int,
    k: int,
    methods=METHODS,
    seed: int | None = 0,
    folds: int = 5,
    task: str | None = None,
    key_bits: int = 2048,
    allow_test_key: bool = False,
    fixed_point: FixedPointConfig | None = None,
    keep_transcripts: bool = False,
    timeout: float = 120.0,
) -> list[RunReport]:
    """Run the three-way comparison and return one report per method."""
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    if not 1 <= k < ds.cols:
        raise ConfigError(f"k={k} must satisfy 1 <= k < d={ds.cols}")
    task = infer_task(ds) if task is None else task
    if task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
        raise ConfigError(f"unknown task {task!r}")
    metric_name = "auc" if task == TASK_CLASSIFICATION else "rmse"

    assignment = assign_providers(ds.rows, parties, seed)
    folds_idx = kfold_indices(ds.rows, folds, None if seed is None else seed + 1)
    reports = []
    for method in methods:
        fold_metrics: list[float] = []
        timings: dict[str, float] = {}
        sample_counts: list[int] = []
        transcripts: list[Transcript] = []
        for fold, (train_idx, test_idx) in enumerate(folds_idx):
            train = ds.take(train_idx)
            test = ds.take(test_idx)
            started = time.perf_counter()
            if method == "centralized":
                mean = linalg.column_means(train.features)
                transfer, train_proj = linalg.centralized_pca(train.features, k)
                test_proj = _project_with(test.features, mean, transfer)
                train_y = train.labels
            elif method == "separate":
                train_proj = np.empty((train.rows, k))
                test_proj = np.empty((test.rows, k))
                for q in range(parties):
                    tr_mask = assignment[train_idx] == q
                    te_mask = assignment[test_idx] == q
                    local = train.features[tr_mask]
                    if local.shape[0] < 2:
                        raise DataError(
                            f"provider {q + 1} has {local.shape[0]} training "
                            f"rows in fold {fold}; cannot fit a local PCA"
                        )
                    mean = linalg.column_means(local)
                    transfer, proj = linalg.centralized_pca(local, k)
                    train_proj[tr_mask] = proj
                    test_proj[te_mask] = _project_with(
                        test.features[te_mask], mean, transfer
                    )
                train_y = train.labels
            else:
                protocol_method = METHOD_HE if method == "pppca-he" else METHOD_SS
                cfg = SessionConfig(
                    method=protocol_method,
                    parties=parties,
                    k=k,
                    key_bits=key_bits,
                    allow_test_key=allow_test_key,
                    fixed_point=fixed_point or FixedPointConfig(),
                    seed=None if seed is None else seed + 1000 * (fold + 1),
                    timeout=timeout,
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
                test_proj = _project_with(test.features, result.mean, result.transfer)
                sample_counts.append(result.sample_count)
                if keep_transcripts:
                    transcripts.append(result.transcript)
                for name, value in result.timings.items():
                    timings[name] = timings.get(name, 0.0) + value
            fold_metrics.append(
                _fit_score(task, train_proj, train_y, test_proj, test.labels)
            )
            timings["fold_total"] = timings.get("fold_total", 0.0) + (
                time.perf_counter() - started
            )
        reports.append(
            RunReport(
                method=method,
                k=k,
                metric_name=metric_name,
                fold_metrics=fold_metrics,
                mean_metric=float(np.mean(fold_metrics)),
                timings=timings,
                protocol_sample_counts=sample_counts,
                transcripts=transcripts,
            )
        )
    return reports


def render_report(reports: list[RunReport]) -> str:
    """Aligned text table; deterministic for a fixed seed (no timings)."""
    if not reports:
        return "(no reports)\n"
    folds = max(len(r.fold_metrics) for r in reports)
    headers = ["method", "k", "metric", *[f"fold{i + 1}" for i in range(folds)], "mean"]
    rows = [
        [
            r.method,
            str(r.k),
            r.metric_name,
            *[f"{v:.4f}" for v in r.fold_metrics],
            f"{r.mean_metric:.4f}",
        ]
        for r in reports
    ]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[RunReport]) -> str:
    folds = max((len(r.fold_metrics) for r in reports), default=0)
    header = ["method", "k", "metric", *[f"fold{i + 1}" for i in range(folds)], "mean"]
    lines = [",".join(header)]
    for r in reports:
        cells = [r.method, str(r.k), r.metric_name]
        cells.extend(f"{v:.6f}" for v in r.fold_metrics)
        cells.extend("" for _ in range(folds - len(r.fold_metrics)))
        cells.append(f"{r.mean_metric:.6f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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


def bench(
    ds: Dataset,
    parties_list,
    method: str,
    k: int,
    seed: int | None = 0,
    key_bits: int = 2048,
    allow_test_key: bool = False,
    timeout: float = 300.0,
) -> list[BenchResult]:
    """Time full-dataset protocol runs for each party count and verify the
    message accounting against the algorithm's exact counts."""
    if method not in (METHOD_HE, METHOD_SS):
        raise ConfigError(f"method must be '{METHOD_HE}' or '{METHOD_SS}'")
    results = []
    for parties in parties_list:
        cfg = SessionConfig(
            method=method,
            parties=parties,
            k=k,
            key_bits=key_bits,
            allow_test_key=allow_test_key,
            seed=seed,
            timeout=timeout,
        )
        assignment = assign_providers(ds.rows, parties, seed)
        data = [ds.features[assignment == q] for q in range(parties)]
        started = time.perf_counter()
        result = run_session(cfg, data)
        elapsed = time.perf_counter() - started
        results.append(
            BenchResult(
                parties=parties,
                method=method,
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
