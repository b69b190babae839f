"""Split-and-conquer feature screening: partition columns, fit each
partition, keep the top rows by coefficient norm, merge and repeat."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import optimal_scoring
from .dataset import Phenotype, PredictorMatrix, center
from .errors import SparseSdrError, ValidationError
from .optimal_scoring import DirectionSet, SolverConfig
from .scoring import build_design

_NONZERO_ROW = 1e-10


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
    no_signal: bool
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
    ascending. Returns (positions, norms, no_signal flag)."""
    norms = ds.row_norms()
    if k > len(norms):
        raise ValidationError(f"keep={k} exceeds {len(norms)} features")
    order = np.lexsort((np.arange(len(norms)), -norms))
    kept = order[:k]
    return kept, norms[kept], bool(np.all(norms[kept] <= _NONZERO_ROW))


def _partition_seed(seed: int, stage: int, part: int) -> int:
    return int(np.random.SeedSequence((seed, stage, part)).generate_state(1)[0])


def run_plan(x: PredictorMatrix, y: Phenotype, plan: ScreeningPlan,
             seed: int = 0, n_workers: int = 1,
             h: int | None = None) -> SelectionReport:
    """Execute the staged screening plan and the final fit.

    Centering is global and done once up front; partitions are fit on
    column restrictions of the same centered matrix. `h` is the slice count
    passed to `build_design` (required for a continuous response).
    Deterministic for a fixed seed regardless of worker count (partitions
    are merged in index order). A plan with no stages is one fit on every
    feature.
    """
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    if not x.centered:
        x = center(x)
    design = build_design(y, h)
    base_cfg = plan.final_fit

    current = np.arange(x.n_features)
    records: list[StageRecord] = []
    provenance: dict[int, list[tuple[int, int]]] = {}

    for stage_no, stage in enumerate(plan.stages, start=1):
        ranges = partition_features(len(current), stage.n_partitions)

        def fit_partition(item):
            part_no, (lo, hi) = item
            cols = current[lo:hi]
            if stage.keep_per_partition > len(cols):
                raise ValidationError(
                    f"stage {stage_no} partition {part_no}: keep="
                    f"{stage.keep_per_partition} exceeds {len(cols)} features")
            cfg = replace(base_cfg,
                          seed=_partition_seed(seed, stage_no, part_no))
            try:
                ds = optimal_scoring.fit(x.restrict(cols), design, cfg)
            except SparseSdrError as exc:
                raise type(exc)(
                    f"stage {stage_no}, partition {part_no}: {exc}") from exc
            kept_pos, norms, no_signal = rank_and_keep(
                ds, stage.keep_per_partition)
            return StageRecord(stage_no, part_no, cols[kept_pos], norms,
                               no_signal, ds.converged and ds.inner_converged,
                               ds.inner_converged)

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            stage_out = list(pool.map(fit_partition, enumerate(ranges)))

        merged: list[int] = []
        for rec in stage_out:
            records.append(rec)
            for j in rec.kept_indices:
                provenance.setdefault(int(j), []).append(
                    (rec.stage, rec.partition))
            merged.extend(int(j) for j in rec.kept_indices)
        current = np.array(sorted(merged))

    final_cfg = replace(base_cfg, seed=_partition_seed(seed, 0, 0))
    final_ds = optimal_scoring.fit(x.restrict(current), design, final_cfg)
    nonzero = final_ds.row_norms() > _NONZERO_ROW
    selected = current[nonzero]
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
    `inner_converged` covers the inner solves alone."""
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
        "stage_kept": {
            str(s): int(sum(len(r.kept_indices) for r in report.stage_records
                            if r.stage == s))
            for s in sorted({r.stage for r in report.stage_records})
        },
    }
