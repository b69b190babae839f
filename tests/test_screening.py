import threading

import numpy as np
import pytest

from sparsesdr import blas, screening
from sparsesdr.cli import main
from sparsesdr.admm import PenaltyParams
from sparsesdr.dataset import SyntheticSpec, center, simulate
from sparsesdr.errors import ValidationError
from sparsesdr.optimal_scoring import SolverConfig, fit
from sparsesdr.scoring import build_design
from sparsesdr.screening import (ScreeningPlan, Stage, partition_features,
                                 rank_and_keep, report_summary,
                                 report_to_tsv, run_plan)


def solver(lam, **kw):
    return SolverConfig(d=1, penalty=PenaltyParams(lam=lam, delta=1.0),
                        rho=2.0, **kw)


def signal_instance(seed=13, n=400, p=100):
    spec = SyntheticSpec(n_samples=n, n_features=p, maf_range=(0.1, 0.4),
                         support=[(j, 1.8) for j in range(10, 20)],
                         link="logistic", seed=seed)
    return simulate(spec)


class TestPartitionFeatures:
    def test_uneven_sizes(self):
        assert partition_features(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_even_sizes(self):
        assert partition_features(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_large_case_sizes(self):
        ranges = partition_features(393473, 20)
        sizes = {hi - lo for lo, hi in ranges}
        assert sizes <= {19673, 19674}
        assert ranges[0][0] == 0 and ranges[-1][1] == 393473
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_single_partition(self):
        assert partition_features(7, 1) == [(0, 7)]

    def test_too_many_partitions(self):
        with pytest.raises(ValidationError):
            partition_features(3, 4)


class TestRankAndKeep:
    def make_ds(self, norms):
        from sparsesdr.optimal_scoring import DirectionSet
        B = np.asarray(norms, dtype=float)[:, None]
        K = 2
        return DirectionSet(B=B, Theta=np.zeros((K, 1)), converged=True,
                            outer_iters=1)

    def test_top_k_order(self):
        kept, norms = rank_and_keep(self.make_ds([0.1, 0.9, 0.5, 0.7]), 2)
        assert kept.tolist() == [1, 3]
        assert norms.tolist() == [0.9, 0.7]

    def test_tie_break_by_index(self):
        kept, _ = rank_and_keep(self.make_ds([0.5, 0.5, 0.5]), 2)
        assert kept.tolist() == [0, 1]
        # all-zero rows (no signal) tie the same way
        kept, norms = rank_and_keep(self.make_ds([0.0, 0.0, 0.0]), 2)
        assert kept.tolist() == [0, 1] and norms.tolist() == [0.0, 0.0]

    def test_keep_too_many(self):
        with pytest.raises(ValidationError):
            rank_and_keep(self.make_ds([1.0]), 2)


class TestPlanValidation:
    def test_tuple_coercion(self):
        plan = ScreeningPlan(stages=[(4, 10)], final_fit=solver(1.0))
        assert isinstance(plan.stages[0], Stage)
        assert plan.stages[0].n_partitions == 4

    def test_stage_feeding_too_small(self):
        with pytest.raises(ValidationError):
            ScreeningPlan(stages=[(2, 1), (5, 1)], final_fit=solver(1.0))

    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            Stage(0, 5)


class TestRunPlan:
    def test_single_trivial_stage_matches_direct_fit(self):
        x, y, _ = signal_instance()
        xc = center(x)
        lam = 50.0
        plan = ScreeningPlan(stages=[(1, x.n_features)],
                             final_fit=solver(lam))
        report = run_plan(xc, y, plan)
        direct = fit(xc, build_design(y), solver(lam))
        assert np.array_equal(report.survivors, np.arange(x.n_features))
        assert np.allclose(report.final_directions.B, direct.B, atol=1e-12)

    def test_empty_plan_is_one_fit_on_every_feature(self):
        x, y, _ = signal_instance()
        xc = center(x)
        report = run_plan(xc, y, ScreeningPlan([], solver(50.0)))
        direct = fit(xc, build_design(y), solver(50.0))
        assert report.stage_records == []
        assert np.array_equal(report.survivors, np.arange(x.n_features))
        assert np.allclose(report.final_directions.B, direct.B, atol=1e-12)
        assert report_summary(report)["n_stages"] == 0

    def test_recovers_planted_support(self):
        x, y, truth = signal_instance()
        plan = ScreeningPlan(stages=[(4, 25)], final_fit=solver(60.0))
        report = run_plan(x, y, plan)
        assert set(int(j) for j in report.selected_indices) == truth

    def test_deterministic_on_rerun(self):
        x, y, _ = signal_instance()
        plan = ScreeningPlan(stages=[(4, 10)], final_fit=solver(30.0))
        a = run_plan(x, y, plan)
        b = run_plan(x, y, plan)
        assert report_to_tsv(a) == report_to_tsv(b)
        assert report_summary(a) == report_summary(b)
        assert np.array_equal(a.survivors, b.survivors)
        assert np.array_equal(a.selected_indices, b.selected_indices)

    def test_every_fit_on_calling_thread_with_blas_count_found(
            self, monkeypatch):
        seen = []   # (on the calling thread, OpenBLAS count) per fit
        real_fit = screening.optimal_scoring.fit

        def spy(*args, **kwargs):
            seen.append((threading.get_ident() == caller, blas.get_threads()))
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(screening.optimal_scoring, "fit", spy)
        caller, found = threading.get_ident(), blas.get_threads()
        x, y, _ = signal_instance()
        plan = ScreeningPlan(stages=[(4, 10), (2, 10)], final_fit=solver(30.0))
        run_plan(x, y, plan)
        # 4 + 2 partition fits, then the final fit
        assert seen == [(True, found)] * 7

    def test_every_nonzero_final_row_is_selected(self, monkeypatch):
        x, y, _ = signal_instance()
        plan = ScreeningPlan(stages=[(4, 10)], final_fit=solver(30.0))
        want = run_plan(x, y, plan).selected_indices
        real_fit, calls = screening.optimal_scoring.fit, []

        def spy(*args, **kwargs):
            ds = real_fit(*args, **kwargs)
            calls.append(ds)
            if len(calls) == 5:   # the final fit: shrink one kept row
                row = np.flatnonzero(ds.row_norms())[0]
                ds.B[row] *= 1e-12 / np.linalg.norm(ds.B[row])
            return ds

        monkeypatch.setattr(screening.optimal_scoring, "fit", spy)
        report = run_plan(x, y, plan)
        norms = report.final_directions.row_norms()
        assert len(calls) == 5 and np.any((norms > 0) & (norms <= 1e-12))
        assert np.array_equal(report.selected_indices, want)

    def test_summary_reports_convergence_of_every_fit(self):
        x, y, _ = signal_instance()
        stages = [(4, 10)]
        ok = run_plan(x, y, ScreeningPlan(stages, solver(30.0)))
        assert all(r.converged and r.inner_converged
                   for r in ok.stage_records)
        summary = report_summary(ok)
        assert summary["converged"] and summary["inner_converged"]
        # an inner cap of one iteration stops every ADMM solve short
        capped = run_plan(x, y, ScreeningPlan(
            stages, solver(30.0, inner_max_iter=1)))
        assert not any(r.converged or r.inner_converged
                       for r in capped.stage_records)
        summary = report_summary(capped)
        assert not summary["converged"] and not summary["inner_converged"]
        # one outer iteration cannot show the outer loop has converged
        short = run_plan(x, y, ScreeningPlan(
            stages, solver(30.0, outer_max_iter=1, outer_tol=1e-14)))
        summary = report_summary(short)
        assert not summary["converged"] and summary["inner_converged"]

    def test_cli_fit_outputs_same_for_every_seed(self, tmp_path):
        # five classes at d = 3 < h - 1, with a stage of two partitions:
        # every fit starts from scores computed from the data, so `--seed`
        # changes none of `fit`'s outputs
        rng = np.random.default_rng(0)
        X = rng.standard_normal((300, 20))
        score = X[:, :3] @ [1.0, 0.7, 0.5]
        labels = np.digitize(score, np.quantile(score, [0.2, 0.4, 0.6, 0.8]))
        ids = [f"s{i}" for i in range(300)]
        xp, yp, cfg = (tmp_path / name for name in ("x.tsv", "y.tsv",
                                                     "run.cfg"))
        xp.write_text("\t".join(["id"] + [f"f{j}" for j in range(20)]) + "\n"
                      + "".join("\t".join([i] + [repr(v) for v in row]) + "\n"
                                for i, row in zip(ids, X.tolist())))
        yp.write_text("".join(f"{i}\t{v}\n" for i, v in zip(ids, labels)))
        cfg.write_text("solver.d = 3\npenalty.lambda = 250\npenalty.rho = 2\n"
                       "screen.stages = 2:8\n")
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}"
            assert main(["fit", "--x", str(xp), "--y", str(yp), "--config",
                         str(cfg), "--out", str(out), "--seed", seed]) == 0
            outputs.append({name: (out / name).read_bytes() for name in
                            ("directions.tsv", "theta.tsv", "fit.json")})
        assert outputs[0] == outputs[1]

    def test_survivors_sorted_and_within_bounds(self):
        x, y, _ = signal_instance()
        plan = ScreeningPlan(stages=[(5, 8), (2, 10)], final_fit=solver(30.0))
        report = run_plan(x, y, plan)
        s = report.survivors
        assert np.all(np.diff(s) > 0)
        assert s.min() >= 0 and s.max() < x.n_features
        assert len(s) == 20

    def test_provenance_complete(self):
        x, y, _ = signal_instance()
        plan = ScreeningPlan(stages=[(4, 10)], final_fit=solver(30.0))
        report = run_plan(x, y, plan)
        for j in report.survivors:
            trail = report.provenance[int(j)]
            assert trail[0][0] == 1  # kept at stage one
        for j in report.selected_indices:
            assert (0, 0) in report.provenance[int(j)]

    def test_tsv_shape(self):
        x, y, _ = signal_instance()
        plan = ScreeningPlan(stages=[(4, 10)], final_fit=solver(50.0))
        report = run_plan(x, y, plan)
        lines = report_to_tsv(report).strip().split("\n")
        assert lines[0] == "feature_id\trow_norm\tstage\tpartition"
        stage1 = [l for l in lines[1:] if l.split("\t")[2] == "1"]
        final = [l for l in lines[1:] if l.split("\t")[2] == "final"]
        assert len(stage1) == 40
        assert len(final) == len(report.selected_indices)

    def test_uncoupled_blocks_unaffected_by_partitioning(self):
        # signal isolated in one block: screening with partitions on block
        # boundaries keeps the same selected set as one whole-matrix fit
        spec = SyntheticSpec(
            n_samples=400, n_features=100, maf_range=(0.1, 0.4),
            support=[(j, 1.8) for j in range(10, 20)], link="logistic",
            seed=7)
        x, y, truth = simulate(spec)
        split = run_plan(x, y, ScreeningPlan(stages=[(4, 25)],
                                             final_fit=solver(60.0)))
        whole = run_plan(x, y, ScreeningPlan(stages=[(1, 100)],
                                             final_fit=solver(60.0)))
        assert set(split.selected_ids) == set(whole.selected_ids)
        assert set(int(j) for j in split.selected_indices) == truth
