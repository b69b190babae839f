"""Stratified cross-validation: projection classifier vs a chi-square /
k-NN baseline.

Feature selection happens inside each training fold, so the reported test
metrics are leakage-free. The baseline ranks features by the Pearson
chi-square P-value on case/control-by-genotype tables and classifies with
k-nearest neighbors.
"""

from sparsesdr import (PenaltyParams, ScreeningPlan, SolverConfig,
                       SyntheticSpec, cross_validate, simulate)
from sparsesdr.evaluation import cv_report_to_tsv

spec = SyntheticSpec(
    n_samples=400,
    n_features=600,
    maf_range=(0.1, 0.4),
    support=[(j, 1.6) for j in range(10)],
    link="logistic",
    seed=9,
)
x, y, truth = simulate(spec)
print(f"cohort: {x.n_samples} x {x.n_features}")

plan = ScreeningPlan(
    stages=[(3, 60)],
    final_fit=SolverConfig(d=1, penalty=PenaltyParams(lam=25.0, delta=1.0),
                           rho=2.0),
)

print("\n--- sparse dimension reduction + nearest centroid ---")
sdr = cross_validate(x, y, folds=5, method="sparse_sdr", seed=1, plan=plan)
print(cv_report_to_tsv(sdr))

print("--- chi-square P-value ranking + k-NN ---")
base = cross_validate(x, y, folds=5, method="pvalue_rank", seed=1)
print(cv_report_to_tsv(base))

a, b = sdr.averages(), base.averages()
print(f"mean test AUC:      sdr {a['test_auc']:.3f}   "
      f"baseline {b['test_auc']:.3f}")
print(f"mean test accuracy: sdr {a['test_accuracy']:.3f}   "
      f"baseline {b['test_accuracy']:.3f}")
