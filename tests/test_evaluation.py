from dataclasses import replace

import numpy as np
import pytest

import pppca.evaluation as evaluation
from pppca import linalg
from pppca.datasets import (
    Dataset,
    assign_providers,
    load_csv,
    make_wine_like,
    partition_horizontal,
    save_csv,
    standardize_features,
)
from pppca.encoding import FixedPointConfig
from pppca.errors import ConfigError, DataError, PPCAError
from pppca.evaluation import (
    bench,
    compare,
    kfold_indices,
    render_report,
    reports_to_csv,
)
from pppca.models import auc, rmse, train_linreg, train_logreg
from pppca.transport import DEFAULT_TIMEOUT


# --- load_csv ------------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    ds = load_csv(path)
    assert ds.features.shape == (3, 2)
    assert ds.columns == ["a", "b"]
    assert ds.labels is None


def test_load_csv_wine_like_semicolon(tmp_path):
    wine = make_wine_like(rows=50)
    path = tmp_path / "wine.csv"
    save_csv(wine, path, delimiter=";")
    ds = load_csv(path, label_column="quality", delimiter=";")
    assert ds.cols == 11
    assert ds.labels is not None and len(ds.labels) == 50
    assert ds.columns[0] == "fixed acidity"


def test_load_csv_non_numeric_cell_location(tmp_path):
    # Lines count as the file numbers them: blank lines, blank lines before
    # the header and the newlines inside quoted cells; a row spanning lines
    # is named by the line it starts on.
    path = tmp_path / "bad.csv"
    for text, line in (
        ("x,y\n1,2\n3,abc\n", 3),
        ("x,y\n1,2\n\n3,abc\n", 4),
        ("\n\nx,y\n1,2\n3,abc\n", 5),
        ('x,y\n"1\n",2\n3,abc\n', 4),
        ('x,y\n1,2\n3,"a\nbc"\n', 3),
    ):
        path.write_text(text)
        with pytest.raises(DataError, match=rf"line {line}\b.*'y'"):
            load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_load_csv_non_finite_cell_location(tmp_path, cell):
    # Named as a non-numeric cell is, by the file's line and the column,
    # whether or not the column is the label.
    path = tmp_path / "bad.csv"
    for text, line in (
        ("x,y\n1,2\n3,{}\n", 3),
        ("x,y\n1,2\n\n3,{}\n", 4),
        ("\n\nx,y\n1,2\n3,{}\n", 5),
        ('x,y\n"1\n",2\n3,{}\n', 4),
    ):
        path.write_text(text.format(cell))
        for label in (None, "x", "y"):
            with pytest.raises(DataError) as err:
                load_csv(path, label_column=label)
            assert str(err.value) == f"{path}: non-finite cell {cell!r} at line {line}, column 'y'"


@pytest.mark.parametrize(
    "text, message", [("", "file is empty"), ("\n\n", "file is empty"), ("x,y\n", "no data rows")]
)
def test_load_csv_without_data_rows(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    for text, line in (
        ("x,y\n1,2\n3\n", 3),
        ("x,y\n\n1,2\n\n3\n", 5),
        ('x,y\n"1\n\n",2\n3\n', 5),
    ):
        path.write_text(text)
        with pytest.raises(DataError, match=rf"line {line}\b"):
            load_csv(path)


def test_load_csv_missing_label(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(DataError, match="no column named"):
        load_csv(path, label_column="z")


def test_load_csv_no_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3,4\n")
    ds = load_csv(path, header=False)
    assert ds.features.shape == (2, 2)
    assert ds.columns == ["col0", "col1"]


def test_load_csv_reads_a_byte_order_mark_before_a_label_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("\ufeffquality,a,b\n5,1,2\n6,3,4\n".encode("utf-8"))
    ds = load_csv(path, label_column="quality")
    assert ds.columns == ["a", "b"]
    assert np.array_equal(ds.labels, [5.0, 6.0])


def test_load_csv_reads_a_byte_order_mark_before_a_headerless_first_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("\ufeff1.0,2\n3,4\n".encode("utf-8"))
    ds = load_csv(path, header=False)
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_a_non_finite_label_is_a_data_error_naming_its_row():
    features = np.arange(10.0).reshape(5, 2)
    for value in (np.nan, np.inf, -np.inf):
        labels = np.array([1.0, 0.0, 2.0, value, 1.0])
        with pytest.raises(DataError, match=rf"^label of row 3 is {value}, not finite$"):
            Dataset(features=features, labels=labels)


def test_save_csv_writes_lf_lines_that_load_csv_reads_back(tmp_path):
    ds = Dataset(features=[[0.1, -2.0], [3e-300, 4.5]], labels=[1.0, 0.0], columns=["a", "b,c"])
    path = tmp_path / "t.csv"
    save_csv(ds, path)
    assert path.read_bytes() == b'a,"b,c",label\n0.1,-2.0,1.0\n3e-300,4.5,0.0\n'
    back = load_csv(path, label_column="label")
    assert np.array_equal(back.features, ds.features) and np.array_equal(back.labels, ds.labels)
    assert back.columns == ["a", "b,c"]
    with pytest.raises(DataError, match="^cannot write .*absent"):
        save_csv(ds, tmp_path / "absent" / "t.csv")


# --- partitioning -----------------------------------------------------------------


def test_partition_sizes_differ_by_at_most_one():
    ds = Dataset(features=np.arange(20.0).reshape(10, 2))
    parts = partition_horizontal(ds, 3, seed=0)
    assert sorted(p.rows for p in parts) == [3, 3, 4]


def test_partition_reproducible():
    ds = Dataset(features=np.arange(20.0).reshape(10, 2))
    a = assign_providers(ds.rows, 3, seed=5)
    b = assign_providers(ds.rows, 3, seed=5)
    assert np.array_equal(a, b)
    c = assign_providers(ds.rows, 3, seed=6)
    assert not np.array_equal(a, c)


def test_partition_union_is_original_multiset():
    rng = np.random.default_rng(1)
    ds = Dataset(features=rng.normal(size=(11, 3)), labels=rng.integers(0, 2, 11))
    parts = partition_horizontal(ds, 4, seed=2)
    stacked = np.vstack([p.features for p in parts])
    key = lambda m: sorted(map(tuple, np.round(m, 12)))
    assert key(stacked) == key(ds.features)
    assert sorted(np.concatenate([p.labels for p in parts])) == sorted(ds.labels)


def test_partition_too_few_rows():
    ds = Dataset(features=np.ones((2, 2)))
    with pytest.raises(DataError):
        partition_horizontal(ds, 3)


def test_standardize():
    rng = np.random.default_rng(3)
    ds = Dataset(features=rng.normal(size=(30, 3)) * [1, 10, 100])
    std = standardize_features(ds).features.std(axis=0)
    assert np.allclose(std, 1.0)
    flat = Dataset(features=np.ones((5, 2)))
    with pytest.raises(DataError):
        standardize_features(flat)


# --- models ---------------------------------------------------------------------


def test_linreg_exact_fit():
    x = np.arange(10.0).reshape(-1, 1)
    y = 2 * x[:, 0] + 1
    model = train_linreg(x, y)
    assert abs(model.weights[0] - 2) < 1e-8
    assert abs(model.weights[1] - 1) < 1e-8


def test_linreg_matches_eigendecomposition_pseudoinverse():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    design = np.hstack([x, np.ones((40, 1))])
    pairs = linalg.jacobi_eigh(design.T @ design)
    inv = pairs.vectors @ np.diag(1.0 / pairs.values) @ pairs.vectors.T
    expected = inv @ design.T @ y
    got = train_linreg(x, y).weights
    assert np.max(np.abs(got - expected)) < 1e-8


def test_linreg_needs_enough_rows():
    with pytest.raises(DataError):
        train_linreg(np.ones((3, 3)), np.ones(3))


def _wine_split_at_median(rows: int) -> Dataset:
    """The wine surrogate, its quality labels split at their median."""
    ds = make_wine_like(rows=rows)
    return replace(ds, labels=(ds.labels > np.median(ds.labels)).astype(float))


def test_logreg_separable_table_perfect_training_auc():
    x = np.array([[-2.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [2.0, -1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train_logreg(x, y)
    assert auc(model.predict_proba(x), y) == 1.0


def test_logreg_rejects_non_binary():
    with pytest.raises(DataError):
        train_logreg(np.ones((4, 2)), np.array([0.0, 1.0, 2.0, 1.0]))


def test_logreg_deterministic():
    ds = _wine_split_at_median(60)
    a = train_logreg(ds.features, ds.labels).weights
    b = train_logreg(ds.features, ds.labels).weights
    assert np.array_equal(a, b)


def test_auc_perfect_reversed_ties():
    labels = np.array([0, 0, 1, 1], dtype=float)
    assert auc([0.1, 0.2, 0.8, 0.9], labels) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], labels) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], labels) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    scores = np.round(rng.uniform(size=200), 2)  # rounding forces ties
    labels = rng.integers(0, 2, 200).astype(float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for s_pos in pos:
        for s_neg in neg:
            if s_pos > s_neg:
                wins += 1.0
            elif s_pos == s_neg:
                wins += 0.5
    expected = wins / (len(pos) * len(neg))
    assert abs(auc(scores, labels) - expected) < 1e-12


def test_auc_single_class_rejected():
    with pytest.raises(DataError):
        auc([0.1, 0.2], [1.0, 1.0])


def test_rmse():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


# --- compare ------------------------------------------------------------------------


def test_kfold_disjoint_and_covering():
    folds = kfold_indices(23, 5, seed=1)
    assert len(folds) == 5
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test) == list(range(23))
    for train, test in folds:
        assert set(train) | set(test) == set(range(23))
        assert set(train) & set(test) == set()
    # Pinned: which rows each fold tests.
    assert [test.tolist() for _, test in folds] == [
        [1, 7, 12, 16, 21], [2, 15, 17, 20, 22], [3, 4, 5, 10, 11], [0, 8, 9, 14], [6, 13, 18, 19],
    ]


def test_compare_centralized_only_single_report():
    ds = make_wine_like(rows=80)
    reports = compare(ds, parties=2, k=3, methods=["centralized"], seed=0)
    assert len(reports) == 1
    assert reports[0].method == "centralized"
    assert reports[0].metric_name == "rmse"
    assert len(reports[0].fold_metrics) == 5
    assert reports[0].protocol_sample_counts == []


def test_compare_classification_ss_close_to_centralized():
    ds = _wine_split_at_median(160)
    reports = compare(
        ds, parties=2, k=3, methods=["centralized", "pppca-ss"], seed=4
    )
    by_name = {r.method: r for r in reports}
    assert by_name["centralized"].metric_name == "auc"
    gap = abs(by_name["centralized"].mean_metric - by_name["pppca-ss"].mean_metric)
    assert gap <= 0.005


def test_compare_he_vs_ss_per_fold_equivalence():
    ds = make_wine_like(rows=90)
    reports = compare(
        ds,
        parties=2,
        k=3,
        methods=["pppca-he", "pppca-ss"],
        seed=6,
        key_bits=512,
        allow_test_key=True,
    )
    he, ss = reports
    diffs = np.abs(np.array(he.fold_metrics) - np.array(ss.fold_metrics))
    assert np.max(diffs) <= 1e-3


def test_compare_fold_hygiene_protocol_sees_training_rows_only():
    ds = make_wine_like(rows=60)
    folds = kfold_indices(ds.rows, 5, seed=10 + 1)
    reports = compare(ds, parties=2, k=2, methods=["pppca-ss"], seed=10)
    counts = reports[0].protocol_sample_counts
    assert counts == [len(train) for train, _ in folds]
    assert all(c < ds.rows for c in counts)


def test_compare_report_determinism():
    ds = make_wine_like(rows=70)
    a = compare(ds, parties=2, k=2, methods=["centralized", "pppca-ss"], seed=3)
    b = compare(ds, parties=2, k=2, methods=["centralized", "pppca-ss"], seed=3)
    assert render_report(a) == render_report(b)
    assert reports_to_csv(a) == reports_to_csv(b)


def test_compare_checks_every_session_setting_whatever_the_methods():
    ds = make_wine_like(rows=40)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        compare(ds, parties=2, k=2, methods=["separate"], seed=-3)
    with pytest.raises(ConfigError, match="need 2 to"):
        compare(ds, parties=1, k=2, methods=["centralized"], seed=0)


def test_compare_rejects_unknown_method():
    ds = make_wine_like(rows=40)
    with pytest.raises(ConfigError):
        compare(ds, parties=2, k=2, methods=["quantum"], seed=0)


def test_compare_requires_labels():
    ds = Dataset(features=np.random.default_rng(0).normal(size=(30, 4)))
    with pytest.raises(DataError):
        compare(ds, parties=2, k=2, methods=["centralized"], seed=0)


def test_render_report_shape():
    ds = make_wine_like(rows=40)
    text = render_report(compare(ds, parties=2, k=2, methods=["centralized"], seed=0))
    lines = text.strip().splitlines()
    assert lines[0].startswith("method")
    assert "centralized" in lines[2]


def test_compare_and_bench_pass_session_settings_to_session_config(monkeypatch):
    seen = []
    real = evaluation.run_session

    def spy(cfg, data):
        seen.append(cfg)
        return real(cfg, data)

    monkeypatch.setattr(evaluation, "run_session", spy)
    ds = make_wine_like(rows=60)
    fp = FixedPointConfig(l=64, f=30)
    compare(ds, parties=3, k=2, methods=["pppca-ss"], seed=1, folds=2, fixed_point=fp,
            timeout=12.5)
    bench(ds, [2], method="ss", k=2, seed=1, fixed_point=fp)
    assert len(seen) == 3
    assert {c.fixed_point for c in seen} == {fp}
    assert [c.timeout for c in seen] == [12.5, 12.5, DEFAULT_TIMEOUT]
    # A ring too narrow for wine's features aborts the session it reaches.
    with pytest.raises(PPCAError):
        compare(ds, parties=2, k=2, methods=["pppca-ss"], seed=1,
                fixed_point=FixedPointConfig(l=16, f=12))


def test_a_bad_session_setting_fails_before_the_first_fold(monkeypatch):
    def no_fold(*args):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(evaluation, "_fit_score", no_fold)
    monkeypatch.setattr(evaluation, "run_session", no_fold)
    ds = make_wine_like(rows=40)
    with pytest.raises(TypeError, match="key_bit"):
        compare(ds, parties=2, k=2, methods=["centralized"], seed=0, key_bit=512)
    with pytest.raises(ConfigError, match="test-only"):
        compare(ds, parties=2, k=2, methods=["centralized", "pppca-he"], key_bits=512)
    with pytest.raises(TypeError, match="key_bit"):
        bench(ds, [2, 3], method="ss", k=2, key_bit=512)
    with pytest.raises(ConfigError, match="test-only"):
        bench(ds, [2, 3], method="he", k=2, key_bits=512)
