"""Split-and-conquer feature screening: partition columns, fit each
partition, keep the top rows by coefficient norm, merge and repeat."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import optimal_scoring
from .dataset import Phenotype, PredictorMatrix, center
from .errors import SparseSdrError, ValidationError
from .optimal_scoring import DirectionSet, SolverConfig
from .scoring import build_design


@dataclass
class Stage:
    n_partitions: int
    keep_per_partition: int

    def __post_init__(self):
        if self.n_partitions < 1 or self.keep_per_partition < 1:
            raise ValidationError("stage counts must be >= 1")


@dataclass
class ScreeningPlan:
    stages: list[Stage]
    final_fit: SolverConfig

    def __post_init__(self):
        self.stages = [s if isinstance(s, Stage) else Stage(*s)
                       for s in self.stages]
        for prev, nxt in zip(self.stages, self.stages[1:]):
            if prev.n_partitions * prev.keep_per_partition < nxt.n_partitions:
                raise ValidationError(
                    "a stage keeps fewer features than the next stage's "
                    "partition count")


@dataclass
class StageRecord:
    stage: int
    partition: int
    kept_indices: np.ndarray   # original feature indices
    kept_norms: np.ndarray
    converged: bool         # outer loop and every inner solve converged
    inner_converged: bool   # every inner solve converged


@dataclass
class SelectionReport:
    stage_records: list[StageRecord]
    survivors: np.ndarray            # original indices entering the final fit
    final_directions: DirectionSet   # fitted on the survivor columns
    selected_indices: np.ndarray     # survivors with nonzero final rows
    feature_ids: list[str]           # ids of all original features
    provenance: dict = field(default_factory=dict)

    @property
    def selected_ids(self) -> list[str]:
        return [self.feature_ids[j] for j in self.selected_indices]


def partition_features(p: int, k: int) -> list[tuple[int, int]]:
    """Contiguous, disjoint, covering index ranges with sizes differing by
    at most one (larger ranges first)."""
    if k < 1:
        raise ValidationError("partition count must be >= 1")
    if k > p:
        raise ValidationError(f"cannot split {p} features into {k} partitions")
    base, extra = divmod(p, k)
    ranges = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def rank_and_keep(ds: DirectionSet, k: int):
    """Top-k row positions by coefficient row norm, ties broken by index
    ascending. Returns (positions, norms)."""
    norms = ds.row_norms()
    if k > len(norms):
        raise ValidationError(f"keep={k} exceeds {len(norms)} features")
    order = np.lexsort((np.arange(len(norms)), -norms))
    kept = order[:k]
    return kept, norms[kept]


def run_plan(x: PredictorMatrix, y: Phenotype, plan: ScreeningPlan,
             h: int | None = None) -> SelectionReport:
    """Execute the staged screening plan and the final fit.

    `x` is centered once up front (`center` computes the column means and
    shares the raw cells), and each partition fit centers only its own
    columns, in float64, with those global means: no fit holds a float copy
    of every column unless the plan has no stages. `h` is the slice count
    passed to `build_design` (required for a continuous response).

    Each stage fits its partitions in index order on the calling thread. No
    fit is random, and a plan with no stages is `optimal_scoring.fit` on
    every feature. Every fit uses OpenBLAS's thread count as found
    (`OPENBLAS_NUM_THREADS` respected); the last bits of a wide fit can
    depend on that count.
    """
    if not x.centered:
        x = center(x)
    design = build_design(y, h)
    current = np.arange(x.n_features)
    records: list[StageRecord] = []
    provenance: dict[int, list[tuple[int, int]]] = {}

    for stage_no, stage in enumerate(plan.stages, start=1):
        merged: list[int] = []
        for part_no, (lo, hi) in enumerate(
                partition_features(len(current), stage.n_partitions)):
            cols = current[lo:hi]
            if stage.keep_per_partition > len(cols):
                raise ValidationError(
                    f"stage {stage_no} partition {part_no}: keep="
                    f"{stage.keep_per_partition} exceeds {len(cols)} features")
            try:
                ds = optimal_scoring.fit(x.restrict(cols), design,
                                         plan.final_fit)
            except SparseSdrError as exc:
                raise type(exc)(
                    f"stage {stage_no}, partition {part_no}: {exc}") from exc
            kept_pos, norms = rank_and_keep(ds, stage.keep_per_partition)
            kept = cols[kept_pos]
            records.append(StageRecord(stage_no, part_no, kept, norms,
                                       ds.converged and ds.inner_converged,
                                       ds.inner_converged))
            for j in kept:
                provenance.setdefault(int(j), []).append((stage_no, part_no))
            merged.extend(int(j) for j in kept)
        current = np.array(sorted(merged))

    final_x = x.restrict(current) if plan.stages else x
    final_ds = optimal_scoring.fit(final_x, design, plan.final_fit)
    selected = current[final_ds.row_norms() > 0]
    for j in selected:
        provenance.setdefault(int(j), []).append((0, 0))

    return SelectionReport(
        stage_records=records,
        survivors=current,
        final_directions=final_ds,
        selected_indices=selected,
        feature_ids=list(x.feature_ids),
        provenance=provenance,
    )


def report_to_tsv(report: SelectionReport) -> str:
    """TSV serialization: one row per kept feature per stage, plus the final
    fit's surviving features (stage 'final')."""
    lines = ["feature_id\trow_norm\tstage\tpartition"]
    for rec in report.stage_records:
        for j, norm in zip(rec.kept_indices, rec.kept_norms):
            lines.append(f"{report.feature_ids[j]}\t{norm:.12g}\t"
                         f"{rec.stage}\t{rec.partition}")
    final_norms = report.final_directions.row_norms()
    pos = {int(j): i for i, j in enumerate(report.survivors)}
    for j in report.selected_indices:
        lines.append(f"{report.feature_ids[j]}\t{final_norms[pos[int(j)]]:.12g}"
                     f"\tfinal\t0")
    return "\n".join(lines) + "\n"


def report_summary(report: SelectionReport) -> dict:
    """JSON-ready summary of the screening run. `converged` holds only when
    every partition fit and the final fit converged, inner solves included;
    `inner_converged` covers the inner solves alone. `kkt_max_rel`,
    `kkt_slack` and `working_set_size` are the final fit's (see
    `optimal_scoring.fit`)."""
    final = report.final_directions
    inner = (final.inner_converged
             and all(r.inner_converged for r in report.stage_records))
    return {
        "n_stages": len({r.stage for r in report.stage_records}),
        "survivors": len(report.survivors),
        "selected": report.selected_ids,
        "converged": bool(final.converged and inner
                          and all(r.converged for r in report.stage_records)),
        "inner_converged": bool(inner),
        "kkt_max_rel": final.kkt_max_rel,
        "kkt_slack": final.kkt_slack,
        "working_set_size": final.working_set_size,
        "stage_kept": {
            str(s): int(sum(len(r.kept_indices) for r in report.stage_records
                            if r.stage == s))
            for s in sorted({r.stage for r in report.stage_records})
        },
    }
