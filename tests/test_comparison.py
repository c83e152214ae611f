import numpy as np

from pppca import linalg
from pppca.datasets import assign_providers, make_wine_like
from pppca.evaluation import RunReport, compare, kfold_indices, render_report, reports_to_csv
from pppca.models import rmse, train_linreg


def test_the_centralized_oracle_is_pooled_pca_and_a_model_per_fold():
    ds = make_wine_like(rows=90)
    k, seed = 3, 5
    (report,) = compare(ds, parties=3, k=k, methods=["centralized"], seed=seed, folds=3)
    expected = []
    for train_idx, test_idx in kfold_indices(ds.rows, 3, seed + 1):
        train, test = ds.take(train_idx), ds.take(test_idx)
        transfer, reduced = linalg.centralized_pca(train.features, k)
        mean = linalg.column_means(train.features)
        model = train_linreg(reduced, train.labels)
        expected.append(rmse(model.predict((test.features - mean) @ transfer), test.labels))
    assert [v.hex() for v in report.fold_metrics] == [v.hex() for v in expected]


def test_reports_with_unequal_fold_counts_render_with_empty_cells():
    reports = [
        RunReport("centralized", 2, "rmse", [1.0, 2.0, 3.0], 2.0),
        RunReport("separate", 2, "rmse", [1.5], 1.5),
    ]
    assert render_report(reports).splitlines() == [
        "method       k  metric  fold1   fold2   fold3   mean",
        "-----------  -  ------  ------  ------  ------  ------",
        "centralized  2  rmse    1.0000  2.0000  3.0000  2.0000",
        "separate     2  rmse    1.5000                  1.5000",
    ]
    assert reports_to_csv(reports).splitlines() == [
        "method,k,metric,fold1,fold2,fold3,mean",
        "centralized,2,rmse,1.000000,2.000000,3.000000,2.000000",
        "separate,2,rmse,1.500000,,,1.500000",
    ]


def test_separate_scores_a_fold_where_a_provider_holds_no_test_rows():
    ds = make_wine_like(rows=20)
    assignment = assign_providers(ds.rows, 3, 0)
    folds = kfold_indices(ds.rows, 5, 1)
    assert any(len(set(assignment[test])) < 3 for _, test in folds)
    (report,) = compare(ds, parties=3, k=2, methods=["separate"], seed=0)
    assert len(report.fold_metrics) == 5
