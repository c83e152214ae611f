"""Plain PCA with the library's own linear algebra.

Builds a correlated 3-D cloud, eigendecomposes its covariance with the
library's eigensolver (LAPACK ``eigh`` with a residual check), and checks
the classic identity: the variance of each projected coordinate equals the
matching eigenvalue.
"""

import numpy as np

from pppca import linalg

rng = np.random.default_rng(0)

# A flat pancake: most variance along x, some along y, almost none along z.
n = 500
cloud = rng.normal(size=(n, 3)) * [10.0, 3.0, 0.3]
cloud = cloud @ np.array(
    [[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]
)  # rotate so axes are not trivially aligned

mean = linalg.column_means(cloud)
centered = linalg.center_columns(cloud, mean)
cov = linalg.gram(centered) / (n - 1)
print("covariance matrix:")
print(np.array_str(cov, precision=3))

pairs = linalg.jacobi_eigh(cov)
print("\neigenvalues (descending):", np.array_str(pairs.values, precision=3))

transfer, reduced = linalg.centralized_pca(cloud, k=2)
print("\ntransfer matrix (3 -> 2 dimensions):")
print(np.array_str(transfer, precision=3))

projected_variance = reduced.var(axis=0, ddof=1)
print("\nvariance of projected coordinates:", np.array_str(projected_variance, precision=3))
print("matching eigenvalues:             ", np.array_str(pairs.values[:2], precision=3))
assert np.allclose(projected_variance, pairs.values[:2], rtol=1e-10)

kept = pairs.values[:2].sum() / pairs.values.sum()
print(f"\ntwo components keep {kept:.1%} of the total variance")
