"""CSV ingestion and writing, horizontal partitioning, and one synthetic
table, the benchmark's.

That generator mirrors the shape of the UCI red-wine quality table
(1599 rows, 11 physico-chemical features, an integer quality score) so the
evaluation pipeline can run at the same scale in environments where the
real file is not present.  Point the CLI at the genuine CSV whenever it is
available; the two are interchangeable for every check in this package.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .linalg import check_matrix


@dataclass
class Dataset:
    """A feature matrix with optional labels and column names."""

    features: np.ndarray
    labels: np.ndarray | None = None
    columns: list[str] | None = None
    label_name: str | None = None

    def __post_init__(self):
        self.features = check_matrix(self.features, name="features")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=float)
            if self.labels.shape != (self.features.shape[0],):
                raise DataError(
                    f"label count {self.labels.shape} does not match "
                    f"{self.features.shape[0]} rows"
                )
            finite = np.isfinite(self.labels)
            if not finite.all():
                row = int(np.argmin(finite))  # the first non-finite label
                raise DataError(f"label of row {row} is {float(self.labels[row])}, not finite")
        if self.columns is not None and len(self.columns) != self.features.shape[1]:
            raise DataError(
                f"{len(self.columns)} column names for "
                f"{self.features.shape[1]} columns"
            )

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    @property
    def cols(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        labels = None if self.labels is None else self.labels[idx]
        return replace(self, features=self.features[idx], labels=labels)


def load_csv(
    path,
    label_column: str | None = None,
    header: bool = True,
    delimiter: str = ",",
) -> Dataset:
    """Parse a rectangular numeric CSV, splitting out an optional label column."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DataError(f"delimiter must be one character, got {delimiter!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            # Each non-blank row with the file line it starts on; line_num
            # counts blank lines and the newlines inside quoted cells too.
            raw, line = [], 1
            for row in reader:
                if row:
                    raw.append((line, row))
                line = reader.line_num + 1
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise DataError(f"{path}: file is empty")

    if header:
        columns = [c.strip() for c in raw[0][1]]
        body = raw[1:]
    else:
        columns = [f"col{i}" for i in range(len(raw[0][1]))]
        body = raw
    if not body:
        raise DataError(f"{path}: no data rows")

    width = len(columns)
    values = np.empty((len(body), width))
    for r, (line, row) in enumerate(body):
        if len(row) != width:
            raise DataError(f"{path}: line {line} has {len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at line {line}, "
                    f"column {columns[c]!r}"
                ) from None

    finite = np.isfinite(values)
    if not finite.all():
        r, c = divmod(int(np.argmin(finite)), width)  # the first non-finite cell
        line, row = body[r]
        raise DataError(
            f"{path}: non-finite cell {row[c]!r} at line {line}, column {columns[c]!r}"
        )

    if label_column is None:
        return Dataset(features=values, columns=columns)
    if label_column not in columns:
        raise DataError(
            f"{path}: no column named {label_column!r}; have {columns}"
        )
    li = columns.index(label_column)
    keep = [c for c in range(width) if c != li]
    return Dataset(
        features=values[:, keep],
        labels=values[:, li],
        columns=[columns[c] for c in keep],
        label_name=label_column,
    )


@contextmanager
def writing(path, mode: str = "w"):
    """``path`` opened to write text (``mode`` "a" keeps what it holds); an
    ``OSError`` on it is a ``DataError``."""
    try:
        with open(path, mode, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def save_csv(ds: Dataset, path, delimiter: str = ","):
    """Write ``ds`` as ``load_csv`` reads it: a header of the column names
    (``col0``, ``col1``, ... if unnamed), the label column last if there is
    one, every value as ``repr(float)``, and LF line endings."""
    names = ds.columns or [f"col{i}" for i in range(ds.cols)]
    table = ds.features
    if ds.labels is not None:
        names = [*names, ds.label_name or "label"]
        table = np.column_stack([table, ds.labels])
    with writing(path) as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([repr(float(v)) for v in row] for row in table)


def assign_providers(rows: int, parties: int, seed: int | None) -> np.ndarray:
    """Shuffled assignment of each row to a provider, sizes differing by <= 1."""
    if parties < 2:
        raise DataError(f"need at least 2 providers, got {parties}")
    if rows < parties:
        raise DataError(f"{rows} rows cannot be split across {parties} providers")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(rows)
    assignment = np.empty(rows, dtype=int)
    for q, chunk in enumerate(np.array_split(perm, parties)):
        assignment[chunk] = q
    return assignment


def partition_horizontal(
    ds: Dataset, parties: int, seed: int | None = None
) -> list[Dataset]:
    """Split rows across providers; each part keeps its labels."""
    assignment = assign_providers(ds.rows, parties, seed)
    return [ds.take(np.flatnonzero(assignment == q)) for q in range(parties)]


WINE_FEATURES = [
    "fixed acidity",
    "volatile acidity",
    "citric acid",
    "residual sugar",
    "chlorides",
    "free sulfur dioxide",
    "total sulfur dioxide",
    "density",
    "pH",
    "sulphates",
    "alcohol",
]

# Rough location/scale of each red-wine feature, used by the generator.
_WINE_MARGINALS = [
    (8.3, 1.7),
    (0.53, 0.18),
    (0.27, 0.19),
    (2.5, 1.4),
    (0.087, 0.047),
    (15.9, 10.4),
    (46.5, 32.9),
    (0.9967, 0.0019),
    (3.31, 0.15),
    (0.66, 0.17),
    (10.4, 1.07),
]


def make_wine_like(rows: int = 1599, seed: int = 20240817) -> Dataset:
    """A deterministic surrogate for the red-wine quality table.

    Eleven correlated features on realistic scales plus an integer quality
    score in [3, 8] driven by a noisy linear model, giving the downstream
    regression something real to fit.
    """
    if rows < 20:
        raise DataError("need at least 20 rows for a usable benchmark table")
    rng = np.random.default_rng(seed)
    d = len(WINE_FEATURES)
    latent = rng.normal(size=(rows, 4))
    mixing = rng.normal(size=(4, d)) * 0.7
    z = latent @ mixing + rng.normal(size=(rows, d)) * 0.6
    means = np.array([m for m, _ in _WINE_MARGINALS])
    scales = np.array([s for _, s in _WINE_MARGINALS])
    features = means + z * scales
    # Acidity, sugar, sulfur and friends are physically non-negative.
    features[:, :7] = np.abs(features[:, :7])
    features[:, 8:] = np.abs(features[:, 8:])

    signal = (z @ rng.normal(size=d)) / np.sqrt(d)
    quality = 5.6 + 0.9 * signal + rng.normal(size=rows) * 0.6
    quality = np.clip(np.rint(quality), 3, 8)
    return Dataset(
        features=features,
        labels=quality,
        columns=list(WINE_FEATURES),
        label_name="quality",
    )


def standardize_features(ds: Dataset) -> Dataset:
    """Divide each feature by its population standard deviation.

    Plaintext preprocessing outside the privacy boundary; the protocol
    itself only ever centers by the securely computed mean.
    """
    std = ds.features.std(axis=0)
    if np.any(std == 0):
        dead = int(np.flatnonzero(std == 0)[0])
        raise DataError(f"cannot standardize constant column {dead}")
    return replace(ds, features=ds.features / std)
