"""Correctness checks applied to every benchmarked session.

Each check returns a list of findings; an empty list is a pass.  The checks
compare a session against the numpy reference in ``workloads.Inputs`` or
against a property the protocol must have.  The privacy audit and step-order
check of ``pppca.privacy`` are used as they stand.
"""

from __future__ import annotations

import math

import numpy as np

from pppca.linalg import DEFAULT_EIGH_TOL
from pppca.messages import header_size
from pppca.privacy import assert_privacy, check_step_order

U = 2.0**-53  # unit roundoff of binary64
RMSE_TOLERANCE = 1e-6


def expected_frames(method: str, m: int) -> dict[str, int]:
    """Frames per session by type, in closed form for M providers."""
    counts = {
        "SAMPLE_COUNT": m * m,  # each provider to the server and to M - 1 peers
        "PLAIN_MEAN": m,
        "TRANSFER_MATRIX": m,
        "REDUCED_ROWS": m,
    }
    if method == "he":
        counts.update(
            PUBLIC_KEY=m,
            ENCRYPTED_SUMS=m - 1,
            ENCRYPTED_SUM_AGGREGATE=1,
            ENCRYPTED_COV=m - 1,
            ENCRYPTED_COV_AGGREGATE=1,
        )
    else:
        counts.update(SHARE_BUNDLE=2 * m * (m - 1), LOCAL_SHARE_SUM=2 * m)
    return counts


def wire_bytes(transcript) -> int:
    """Serialized frame bytes of a session: header plus payload per frame."""
    return sum(header_size() + len(m.payload) for m in transcript.entries())


def _fixed_point_slack(cfg) -> float:
    """Largest rounding of a sum of M fixed-point encodings: M * 2^-(f+1)."""
    return cfg.parties * 2.0 ** -(cfg.fixed_point.f + 1) if cfg.method == "ss" else 0.0


def check_moments(result, ref, cfg) -> list[str]:
    """Mean and covariance against numpy on the pooled rows.

    The allowance is the binary64 bound gamma_{n+4} of the dot products
    (plus, for ``ss``, the fixed-point rounding of M encoded terms, and the
    shift n/(n-1) * delta delta^T that centering by a mean off by delta adds).
    """
    n = ref.rows
    gamma = (n + 4) * U
    slack = _fixed_point_slack(cfg)
    findings = []
    mean = np.asarray(result.mean)
    if mean.shape != ref.mean.shape:
        return [f"mean has shape {mean.shape}, expected {ref.mean.shape}"]
    delta = mean - ref.mean
    mean_tol = gamma * ref.abs_mean + slack / n
    bad = np.abs(delta) > mean_tol
    if bad.any():
        j = int(np.argmax(np.abs(delta) - mean_tol))
        findings.append(f"mean[{j}] off by {delta[j]:.3g}, allowed {mean_tol[j]:.3g}")
    cov = np.asarray(result.covariance)
    if cov.shape != ref.cov.shape:
        return findings + [f"covariance has shape {cov.shape}, expected {ref.cov.shape}"]
    err = np.abs(cov - ref.cov)
    cov_tol = gamma * ref.scale + slack + n / (n - 1) * np.outer(np.abs(delta), np.abs(delta))
    if (err > cov_tol).any():
        i, j = np.unravel_index(int(np.argmax(err - cov_tol)), err.shape)
        findings.append(
            f"covariance[{i},{j}] off by {err[i, j]:.3g}, allowed {cov_tol[i, j]:.3g}"
        )
    return findings


def largest_angle(transfer, top) -> float:
    """Largest principal angle between span(transfer) and span(top), from
    the part of ``transfer`` outside span(top)."""
    t = np.asarray(transfer, dtype=float)
    residual = t - top @ (top.T @ t)
    return math.asin(min(1.0, float(np.linalg.norm(residual, 2))))


def davis_kahan_bound(result, ref, cfg) -> float:
    """Bound on the sine of the largest principal angle (Davis-Kahan in the
    form of Yu, Wang and Samworth, Biometrika 2015): 2 ||E||_F / gap_k.

    E is the measured covariance error plus what either eigensolver may
    leave: the session's Jacobi stopping tolerance times ||C||_F, and
    rounding in the rotations and in numpy's ``eigh``.
    """
    d = ref.cov.shape[0]
    norm = float(np.linalg.norm(ref.cov))
    perturbation = (
        float(np.linalg.norm(np.asarray(result.covariance) - ref.cov))
        + DEFAULT_EIGH_TOL * norm
        + 64 * d * U * norm
    )
    gap = float(ref.values[cfg.k - 1] - ref.values[cfg.k])
    return math.inf if gap <= 0 else 2.0 * perturbation / gap


def check_subspace(result, ref, cfg) -> tuple[float, list[str]]:
    """The transfer matrix spans the top-k eigenspace within the bound."""
    t = np.asarray(result.transfer)
    if t.shape != ref.top.shape:
        return math.pi / 2, [f"transfer has shape {t.shape}, expected {ref.top.shape}"]
    angle = largest_angle(t, ref.top)
    bound = davis_kahan_bound(result, ref, cfg)
    if math.sin(angle) > bound:
        return angle, [f"largest principal angle {angle:.3g} exceeds Davis-Kahan bound {bound:.3g}"]
    return angle, []


def check_reduced(result, ref) -> list[str]:
    """The consumer holds each provider's centered rows times the transfer
    matrix, stacked in provider order."""
    mean, t = np.asarray(result.mean), np.asarray(result.transfer)
    reduced = np.asarray(result.reduced)
    centered = [b - mean for b in ref.blocks]
    expected = np.vstack([c @ t for c in centered])
    if reduced.shape != expected.shape:
        return [f"reduced rows have shape {reduced.shape}, expected {expected.shape}"]
    tol = (t.shape[0] + 2) * U * np.vstack([np.abs(c) @ np.abs(t) for c in centered])
    err = np.abs(reduced - expected)
    if (err > tol).any():
        i, j = np.unravel_index(int(np.argmax(err - tol)), err.shape)
        return [f"reduced row {i} column {j} off by {err[i, j]:.3g}, allowed {tol[i, j]:.3g}"]
    return []


def check_frames(result, cfg) -> list[str]:
    """Frame counts by type match the closed form; the privacy audit and the
    step-order check find nothing."""
    got = {t.name: c for t, c in result.transcript.type_counts().items()}
    want = expected_frames(cfg.method, cfg.parties)
    findings = [
        f"{name}: {got.get(name, 0)} frames, expected {want.get(name, 0)}"
        for name in sorted(set(got) | set(want))
        if got.get(name, 0) != want.get(name, 0)
    ]
    findings += [f"privacy: {v}" for v in assert_privacy(result.transcript, cfg)]
    findings += [f"step order: {v}" for v in check_step_order(result.transcript, cfg)]
    return findings


def regression_rmse(features: np.ndarray, labels: np.ndarray) -> float:
    """In-sample RMSE of least squares with an intercept."""
    design = np.column_stack([np.ones(features.shape[0]), features])
    coef, *_ = np.linalg.lstsq(design, labels, rcond=None)
    return float(np.sqrt(np.mean((design @ coef - labels) ** 2)))


def check_regression(result, ref) -> list[str]:
    """A linear model on the consumer's rows scores the RMSE of one on
    centralized-PCA rows (the paper's claim)."""
    if ref.labels is None:
        return []
    private = regression_rmse(np.asarray(result.reduced), ref.labels)
    central = regression_rmse(ref.pca_rows, ref.labels)
    if abs(private - central) > RMSE_TOLERANCE:
        return [f"regression RMSE {private:.9g} on consumer rows vs {central:.9g} centralized"]
    return []


def check_session(result, ref, cfg) -> tuple[float, list[str]]:
    """Run every check; returns the largest principal angle and all findings."""
    angle, findings = check_subspace(result, ref, cfg)
    findings = (
        check_moments(result, ref, cfg)
        + findings
        + check_reduced(result, ref)
        + check_frames(result, cfg)
        + check_regression(result, ref)
    )
    return angle, findings
