"""Split-and-conquer screening on a matrix too wide to fit in one shot.

The feature axis is partitioned into contiguous chunks, each chunk is fit
independently, one after another, the top-ranked rows survive to the next
stage, and a final fit on the merged survivors produces the selection set.
No fit has a random step, so the selection is fixed by the cohort and the plan.
"""

from sparsesdr import (PenaltyParams, ScreeningPlan, SolverConfig,
                       SyntheticSpec, run_plan, simulate)
from sparsesdr.screening import report_summary

spec = SyntheticSpec(
    n_samples=400,
    n_features=5000,
    maf_range=(0.1, 0.4),
    support=[(j, 1.8) for j in range(2000, 2010)],
    link="logistic",
    seed=3,
)
x, y, truth = simulate(spec)
print(f"cohort: {x.n_samples} x {x.n_features}, planted support "
      f"{sorted(truth)}")

plan = ScreeningPlan(
    stages=[
        (10, 50),   # stage 1: 10 partitions of 500, keep top 50 each
        (2, 100),   # stage 2: 2 partitions of 250, keep top 100 each
    ],
    final_fit=SolverConfig(d=1, penalty=PenaltyParams(lam=70.0, delta=1.0),
                           rho=2.0),
)

report = run_plan(x, y, plan)
print(f"\nstage survivors entering the final fit: {len(report.survivors)}")
print(f"selected features: {sorted(int(j) for j in report.selected_indices)}")
print(f"true positives: "
      f"{len(set(int(j) for j in report.selected_indices) & truth)}"
      f" / {len(truth)}")

print("\nsummary:")
for key, value in report_summary(report).items():
    print(f"  {key}: {value}")

# the provenance map records which stage/partition kept each survivor
some = sorted(int(j) for j in report.selected_indices)[:3]
for j in some:
    print(f"feature {j} kept by (stage, partition): {report.provenance[j]}")
