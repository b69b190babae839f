"""Simulate a small case/control cohort and fit sparse discriminant
directions.

We plant 8 informative features among 300, fit with a row-sparsity penalty,
and compare the recovered support and subspace against the unpenalized
eigen-decomposition route.
"""

import numpy as np

from sparsesdr import (PenaltyParams, SolverConfig, SyntheticSpec,
                       build_design, center, fit, simulate)

# ---------------------------------------------------------------- simulate
spec = SyntheticSpec(
    n_samples=500,
    n_features=300,
    maf_range=(0.1, 0.4),
    support=[(j, 1.6) for j in range(8)],   # features 0..7 carry signal
    link="logistic",
    seed=5,
)
x, y, truth = simulate(spec)
print(f"cohort: {x.n_samples} samples x {x.n_features} features, "
      f"{int(y.labels.sum())} cases")
print(f"planted support: {sorted(truth)}")

design = build_design(y)   # binary response -> 2 slices

# ------------------------------------------------------------ sparse fit
cfg = SolverConfig(
    d=1,
    penalty=PenaltyParams(lam=40.0, delta=1.0, r=0.0),
    rho=2.0,
)
directions = fit(x, design, cfg)   # fit centers x's columns
selected = np.flatnonzero(directions.row_norms() > 0)
print(f"\npenalized fit converged in {directions.outer_iters} outer "
      f"iterations; {len(selected)} nonzero rows")
print(f"selected features: {selected.tolist()}")
print(f"true positives: {len(set(selected.tolist()) & truth)} / {len(truth)}")

# --------------------------------------- sanity check against eigenroute
# With the penalty switched off the alternating solver spans the same
# subspace as the generalized eigenproblem M v = lambda Sigma v on the
# slice-mean covariance M. With two slices M is rank one, proportional to
# m m^T for m the case-minus-control mean difference, so the top
# eigenvector is Sigma^-1 m.
plain = fit(x, design, SolverConfig(d=1, penalty=PenaltyParams(lam=0.0),
                                    rho=2.0, outer_tol=1e-8,
                                    outer_max_iter=300))
X, _ = center(x)   # the cells less their column means, as the fit sees them
m = X[y.labels == 1].mean(axis=0) - X[y.labels == 0].mean(axis=0)
v = np.linalg.solve(X.T @ X, m)
v /= np.linalg.norm(v)
b = plain.B[:, 0] / np.linalg.norm(plain.B[:, 0])
angle = np.arctan2(np.linalg.norm(b - (b @ v) * v), abs(b @ v))
print(f"\nunpenalized fit vs eigen solution: principal angle = {angle:.2e}")
