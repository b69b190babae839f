import threading

import numpy as np
import pytest

from sparsesdr import blas, screening
from sparsesdr.cli import main
from sparsesdr.admm import PenaltyParams
from sparsesdr.dataset import (PredictorMatrix, SyntheticSpec, center,
                               make_phenotype, simulate)
from sparsesdr.errors import ValidationError
from sparsesdr.optimal_scoring import DirectionSet, SolverConfig, fit
from sparsesdr.scoring import build_design
from sparsesdr.screening import (ScreeningPlan, Stage, report_summary,
                                 report_to_tsv, run_plan)


def solver(lam, **kw):
    return SolverConfig(d=1, penalty=PenaltyParams(lam=lam, delta=1.0),
                        rho=2.0, **kw)


def signal_instance(seed=13, n=400, p=100):
    spec = SyntheticSpec(n_samples=n, n_features=p, maf_range=(0.1, 0.4),
                         support=[(j, 1.8) for j in range(10, 20)],
                         link="logistic", seed=seed)
    return simulate(spec)


class TestPartitionSplit:
    """run_plan's split, seen through the columns each fit is handed: a
    stage's partitions are consecutive runs of the sorted survivors that
    cover them, with sizes differing by at most one, larger first. Each
    partition keeps its top rows by norm, ties by index."""

    def stage_partitions(self, monkeypatch, p, stages, norms=np.zeros):
        # every fit returns a DirectionSet whose row norms are norms(width);
        # feature j is named str(j), so each fit's ids are its indices
        fits = []

        def spy(m, design, config):
            fits.append(np.array(m.feature_ids, dtype=int))
            return DirectionSet(B=norms(len(fits[-1]))[:, None],
                                Theta=np.zeros((2, 1)), converged=True,
                                outer_iters=1)
        monkeypatch.setattr(screening.optimal_scoring, "fit", spy)
        x = PredictorMatrix(np.zeros((2, p), dtype=np.uint8),
                            [str(j) for j in range(p)], ["s0", "s1"])
        report = run_plan(x, make_phenotype([0, 1]),
                          ScreeningPlan(stages, solver(1.0)))
        survivors, out = np.arange(p), []
        for stage_no, (n_partitions, _) in enumerate(stages, start=1):
            parts, fits = fits[:n_partitions], fits[n_partitions:]
            assert np.array_equal(np.concatenate(parts), survivors)
            sizes = [len(c) for c in parts]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] - sizes[-1] <= 1
            survivors = np.sort(np.concatenate(
                [r.kept_indices for r in report.stage_records
                 if r.stage == stage_no]))
            out.append([c.tolist() for c in parts])
        assert np.array_equal(survivors, report.survivors)
        assert len(fits) == 1 and np.array_equal(fits[0], survivors)
        self.records = report.stage_records
        return out

    def test_uneven_sizes(self, monkeypatch):
        assert self.stage_partitions(monkeypatch, 10, [(3, 1)]) == [
            [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]]

    def test_even_sizes(self, monkeypatch):
        assert self.stage_partitions(monkeypatch, 8, [(4, 1)]) == [
            [[0, 1], [2, 3], [4, 5], [6, 7]]]

    def test_single_partition(self, monkeypatch):
        assert self.stage_partitions(monkeypatch, 7, [(1, 1)]) == [
            [list(range(7))]]

    def test_large_case_sizes(self, monkeypatch):
        [parts] = self.stage_partitions(monkeypatch, 393473, [(20, 1)])
        assert [len(c) for c in parts] == [19674] * 13 + [19673] * 7

    def test_later_stage_splits_sorted_survivors(self, monkeypatch):
        # norms rising with position keep each partition's last rows,
        # largest first; the next stage splits them in index order
        assert self.stage_partitions(
            monkeypatch, 10, [(3, 2), (2, 2)],
            norms=lambda w: np.arange(w, dtype=float)) == [
            [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[2, 3, 5], [6, 8, 9]]]

    def test_top_k_order(self, monkeypatch):
        # each partition of 4 ranks its rows 1, 3, 2, 0 by norm
        self.stage_partitions(
            monkeypatch, 8, [(2, 2)],
            norms=lambda w: np.array([0.1, 0.9, 0.5, 0.7])[:w])
        assert [r.kept_indices.tolist() for r in self.records] == [
            [1, 3], [5, 7]]
        assert [r.kept_norms.tolist() for r in self.records] == [
            [0.9, 0.7], [0.9, 0.7]]

    def test_tie_break_by_index(self, monkeypatch):
        self.stage_partitions(monkeypatch, 3, [(1, 2)],
                              norms=lambda w: np.full(w, 0.5))
        assert self.records[0].kept_indices.tolist() == [0, 1]
        # all-zero rows (no signal) tie the same way
        self.stage_partitions(monkeypatch, 3, [(1, 2)])
        [rec] = self.records
        assert rec.kept_indices.tolist() == [0, 1]
        assert rec.kept_norms.tolist() == [0.0, 0.0]


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

    @pytest.mark.parametrize("stages, message", [
        ([(10, 50), (2, 300)], "stage 2: keep=300 exceeds the 250 features"),
        ([(3, 5), (2, 8)], "stage 2: keep=8 exceeds the 7 features"),
        ([(4, 10), (2, 1), (3, 1)], "stage 3: keep=1 exceeds the 0 features"),
    ])
    def test_keep_above_smallest_partition_refused(self, stages, message):
        # stage k + 1 gets exactly n_k * keep_k features, split with sizes
        # differing by at most one
        with pytest.raises(ValidationError, match=message):
            ScreeningPlan(stages=stages, final_fit=solver(1.0))

    @pytest.mark.parametrize("stages", [[(10, 50), (2, 250)],
                                        [(3, 5), (2, 7)]])
    def test_keep_of_smallest_partition_accepted(self, stages):
        ScreeningPlan(stages=stages, final_fit=solver(1.0))

    @pytest.mark.parametrize("p, stage, message", [
        (105, (10, 11), "stage 1: keep=11 exceeds the 10 features"),
        (100, (200, 1), "stage 1: keep=1 exceeds the 0 features"),
    ])
    def test_first_stage_refused_before_any_fit(self, monkeypatch, p, stage,
                                                message):
        # the smallest partitions come last, so a partition check would
        # fail only after the larger partitions' fits
        x, y, _ = signal_instance(p=p)

        def no_fit(*args):
            raise AssertionError("fit called")
        monkeypatch.setattr(screening.optimal_scoring, "fit", no_fit)
        with pytest.raises(ValidationError, match=message):
            run_plan(x, y, ScreeningPlan([stage], solver(30.0)))


class TestRunPlan:
    def test_single_trivial_stage_matches_direct_fit(self):
        x, y, _ = signal_instance()
        lam = 50.0
        plan = ScreeningPlan(stages=[(1, x.n_features)],
                             final_fit=solver(lam))
        report = run_plan(x, y, plan)
        direct = fit(x, build_design(y), solver(lam))
        assert np.array_equal(report.survivors, np.arange(x.n_features))
        assert np.allclose(report.final_directions.B, direct.B, atol=1e-12)

    def test_empty_plan_is_one_fit_on_every_feature(self):
        x, y, _ = signal_instance()
        report = run_plan(x, y, ScreeningPlan([], solver(50.0)))
        direct = fit(x, build_design(y), solver(50.0))
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
        # with three classes at d = 1 < h - 1, one outer iteration cannot
        # show the outer loop has converged (a binary fit converges at 1)
        three = make_phenotype(y.labels + (y.labels == 1) * (np.arange(
            len(y.labels)) % 2), "categorical")
        short = run_plan(x, three, ScreeningPlan(
            stages, solver(30.0, outer_max_iter=1, outer_tol=1e-14)))
        assert all(not r.converged and r.inner_converged
                   for r in short.stage_records)
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
        # stage_records name the stage-one partition that kept each
        # survivor, and selected_indices the survivors the final fit kept
        x, y, _ = signal_instance()
        plan = ScreeningPlan(stages=[(4, 10)], final_fit=solver(30.0))
        report = run_plan(x, y, plan)
        assert [(r.stage, r.partition) for r in report.stage_records] == [
            (1, k) for k in range(4)]
        for rec in report.stage_records:   # 100 features in 4 partitions
            assert np.all(rec.kept_indices // 25 == rec.partition)
        kept = np.concatenate([r.kept_indices for r in report.stage_records])
        assert np.array_equal(np.sort(kept), report.survivors)
        assert len(report.selected_indices) > 0
        assert np.all(np.isin(report.selected_indices, report.survivors))

    def test_one_factorization_per_design_and_svd_per_outer_iteration(
            self, monkeypatch):
        # run_plan builds one design and factors its D once for every fit;
        # each outer iteration takes one score step (one SVD), which the
        # fit's final rotation reuses. Four slices at d = 1 < h - 1, so some
        # fits run more than one outer iteration
        from sparsesdr import optimal_scoring
        calls = {"cholesky": 0, "theta_step": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(np.linalg, "cholesky",
                            counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(optimal_scoring, "theta_step",
                            counted("theta_step", optimal_scoring.theta_step))
        fits, real_fit = [], optimal_scoring.fit
        monkeypatch.setattr(optimal_scoring, "fit",
                            lambda *args: fits.append(real_fit(*args))
                            or fits[-1])
        x, _, _ = signal_instance()
        xc, _ = center(x)
        score = xc[:, 10:20].sum(axis=1)
        score += np.random.default_rng(0).standard_normal(len(score))
        y = make_phenotype(score, "continuous")
        plan = ScreeningPlan(stages=[(4, 10)], final_fit=solver(20.0))
        run_plan(x, y, plan, h=4)
        assert len(fits) == 5 and calls["cholesky"] == 1
        outer = sum(ds.outer_iters for ds in fits)
        assert outer > len(fits) and calls["theta_step"] == outer

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
