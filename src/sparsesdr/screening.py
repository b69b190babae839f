"""Split-and-conquer feature screening: partition columns, fit each
partition, keep the top rows by coefficient norm, merge and repeat."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optimal_scoring
# bench/tracer.py hooks `center` here by name
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
        # stage k + 1 gets exactly n_k * keep_k features
        for k, (prev, nxt) in enumerate(zip(self.stages, self.stages[1:]), 2):
            _check_stage(k, nxt, prev.n_partitions * prev.keep_per_partition)


def _check_stage(stage_no: int, stage: Stage, n_features: int) -> None:
    """Refuse `stage` if it cannot keep its count from each of its
    partitions of `n_features`, the smallest of which holds
    n_features // n_partitions."""
    smallest = n_features // stage.n_partitions
    if stage.keep_per_partition > smallest:
        raise ValidationError(
            f"stage {stage_no}: keep={stage.keep_per_partition} exceeds the "
            f"{smallest} features of its smallest partition "
            f"({n_features} features in {stage.n_partitions} partitions)")


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

    @property
    def selected_ids(self) -> list[str]:
        return [self.feature_ids[j] for j in self.selected_indices]


def run_plan(x: PredictorMatrix, y: Phenotype, plan: ScreeningPlan,
             h: int | None = None) -> SelectionReport:
    """Execute the staged screening plan and the final fit.

    Each partition fit centers only its own columns, in float64: no fit
    holds a float copy of every column unless the plan has no stages. A
    dosage column's mean is an exact sum over n, so it is the same in
    every partition. `h` is the slice count passed to `build_design`
    (required for a continuous response).

    Each stage cuts the sorted survivors into consecutive partitions whose
    sizes differ by at most one, larger first, and fits them in that order
    on the calling thread. No fit is random, and a plan with no stages is
    `optimal_scoring.fit` on every feature. Every fit uses OpenBLAS's
    thread count as found (`OPENBLAS_NUM_THREADS` respected); the last bits
    of a wide fit can depend on that count. A first stage that `x` cannot
    feed is refused before any fit, and so is a direction count d above
    h - 1.
    """
    if plan.stages:   # later stages were checked when `plan` was made
        _check_stage(1, plan.stages[0], x.n_features)
    design = build_design(y, h)
    d = plan.final_fit.d
    if d > design.h - 1:
        raise ValidationError(f"d={d} must be <= h-1={design.h - 1}")
    current = np.arange(x.n_features)
    records: list[StageRecord] = []

    for stage_no, stage in enumerate(plan.stages, start=1):
        merged = []
        for part_no, cols in enumerate(
                np.array_split(current, stage.n_partitions)):
            try:
                ds = optimal_scoring.fit(x.restrict(cols), design,
                                         plan.final_fit)
            except SparseSdrError as exc:
                raise type(exc)(
                    f"stage {stage_no}, partition {part_no}: {exc}") from exc
            # the top rows by norm, ties by index
            norms = ds.row_norms()
            top = np.argsort(-norms, kind="stable")[:stage.keep_per_partition]
            kept = cols[top]
            records.append(StageRecord(stage_no, part_no, kept, norms[top],
                                       ds.converged and ds.inner_converged,
                                       ds.inner_converged))
            merged.append(kept)
        current = np.sort(np.concatenate(merged))

    final_x = x.restrict(current) if plan.stages else x
    final_ds = optimal_scoring.fit(final_x, design, plan.final_fit)
    return SelectionReport(
        stage_records=records,
        survivors=current,
        final_directions=final_ds,
        selected_indices=current[final_ds.row_norms() > 0],
        feature_ids=list(x.feature_ids),
    )


def report_to_tsv(report: SelectionReport) -> str:
    """TSV serialization: one row per kept feature per stage, plus the final
    fit's surviving features (stage 'final')."""
    lines = ["feature_id\trow_norm\tstage\tpartition"]
    for rec in report.stage_records:
        for j, norm in zip(rec.kept_indices, rec.kept_norms):
            lines.append(f"{report.feature_ids[j]}\t{norm:.12g}\t"
                         f"{rec.stage}\t{rec.partition}")
    final_norms = report.final_directions.row_norms()[
        np.searchsorted(report.survivors, report.selected_indices)]
    for j, norm in zip(report.selected_indices, final_norms):
        lines.append(f"{report.feature_ids[j]}\t{norm:.12g}\tfinal\t0")
    return "\n".join(lines) + "\n"


def report_summary(report: SelectionReport) -> dict:
    """JSON-ready summary of the screening run. `converged` holds only when
    every partition fit and the final fit converged, inner solves included;
    `inner_converged` covers the inner solves alone. `kkt_max_rel`,
    `working_set_size` and `inner_iters` are the final fit's (see
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
        "working_set_size": final.working_set_size,
        "inner_iters": final.inner_iters,
        "stage_kept": {
            str(s): int(sum(len(r.kept_indices) for r in report.stage_records
                            if r.stage == s))
            for s in sorted({r.stage for r in report.stage_records})
        },
    }
