"""End-to-end acceptance checks, one per criterion, each printing a single
PASS/FAIL line. Expected values come from independent oracles (brute-force
numeric minimization, proximal-gradient, pairwise counting) or from exact
hand computation; none are copied from the implementation under test."""

import contextlib
import json
import time

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from sparsesdr.admm import (PenaltyParams, group_shrink, solve_step_a,
                            step_a_objective)
from sparsesdr.cli import main as cli_main
from sparsesdr.dataset import (PredictorMatrix, SyntheticSpec, center,
                               make_phenotype, simulate)
from sparsesdr.evaluation import (auc_mann_whitney, chi2_rank, cross_validate,
                                  metrics)
from sparsesdr.optimal_scoring import (SolverConfig, check_theta_invariants,
                                       fit)
from sparsesdr.scoring import build_design
from sparsesdr.screening import ScreeningPlan, run_plan
from sparsesdr.sir import block_residual, principal_angle, sir_eigen


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL — {title}")
        raise
    print(f"CRITERION {num}: PASS — {title}")


def three_class_instance(seed, n=400, p=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    labels = np.zeros(n, dtype=int)
    labels[X[:, 0] > 0.4] = 1
    labels[X[:, 1] - 0.3 * X[:, 0] > 0.4] = 2
    values = PredictorMatrix(X, [f"f{j}" for j in range(p)],
                             [f"s{i}" for i in range(n)])
    return center(values), make_phenotype(labels)


@pytest.fixture(scope="module")
def unpenalized_fits():
    """The 20 criterion-1 instances; reused by criteria 4 and 5."""
    out = []
    for seed in range(20):
        x, y = three_class_instance(seed)
        design = build_design(y, 3)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.0), rho=2.0,
                           outer_tol=1e-8, outer_max_iter=300,
                           inner_tol=1e-9, inner_max_iter=5000)
        t0 = time.monotonic()
        ds = fit(x, design, cfg)
        out.append((x, y, design, cfg, ds, time.monotonic() - t0))
    return out


def test_criterion_1_sir_equivalence(unpenalized_fits):
    with criterion(1, "unpenalized fit spans the inverse-regression "
                      "eigen subspace (20 instances, angle < 1e-3)"):
        total = 0.0
        for x, y, design, cfg, ds, elapsed in unpenalized_fits:
            total += elapsed
            eig = sir_eigen(x, design, 2)
            assert principal_angle(ds.B, eig.basis) < 1e-3
        assert total < 5.0


def fista_group_lasso(X, z, lam, n_steps=20000):
    """Independent accelerated proximal-gradient oracle for the convex
    (r = 0, delta = 1) subproblem with exact soft-threshold prox."""
    p = X.shape[1]
    L = 2 * np.linalg.eigvalsh(X.T @ X).max() + 1e-12
    b = np.zeros(p)
    w = b.copy()
    t = 1.0
    for _ in range(n_steps):
        grad = 2 * X.T @ (X @ w - z)
        v = w - grad / L
        b_new = np.sign(v) * np.maximum(0.0, np.abs(v) - lam / L)
        t_new = (1 + np.sqrt(1 + 4 * t * t)) / 2
        w = b_new + ((t - 1) / t_new) * (b_new - b)
        b, t = b_new, t_new
    return b


_UNIT_GRID = np.linspace(0.0, 1.0, 2001)


def prox_r_half(v, lam, L):
    """Numeric scalar prox for the non-convex penalty lam * |b|^(1/2),
    evaluated on a per-coordinate grid over [0, |v|] (vectorized)."""
    a = np.abs(v)
    grid = _UNIT_GRID[:, None] * np.maximum(a, 1e-12)[None, :]
    vals = (L / 2) * (grid - a) ** 2 + lam * np.sqrt(grid)
    s = grid[np.argmin(vals, axis=0), np.arange(len(v))]
    return np.sign(v) * s


def prox_grad_r_half(X, z, lam, n_steps=2000):
    p = X.shape[1]
    L = 2 * np.linalg.eigvalsh(X.T @ X).max() + 1e-12
    b = np.zeros(p)
    for _ in range(n_steps):
        grad = 2 * X.T @ (X @ b - z)
        b = prox_r_half(b - grad / L, lam, L)
    return b


def test_criterion_2_admm_vs_proximal_gradient():
    with criterion(2, "ADMM subproblem objective matches a proximal-"
                      "gradient oracle (1e-5 convex, 1e-2 at r=0.5)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(8, 20))
            p = int(rng.integers(2, 6))
            X = rng.standard_normal((n, p))
            X -= X.mean(axis=0)
            z = rng.standard_normal(n)
            lam = float(rng.uniform(0.05, 2.0))
            params = PenaltyParams(lam=lam, delta=1.0, r=0.0)
            res = solve_step_a(X, z[:, None], params, 2.0, tol=1e-9,
                               max_iter=20000)
            oracle = fista_group_lasso(X, z, lam, n_steps=5000)
            gap = (step_a_objective(X, z[:, None], res.B, params)
                   - step_a_objective(X, z[:, None], oracle[:, None], params))
            assert abs(gap) < 1e-5
        for seed in range(5):
            rng2 = np.random.default_rng(100 + seed)
            X = rng2.standard_normal((15, 4))
            X -= X.mean(axis=0)
            z = rng2.standard_normal(15)
            lam = float(rng2.uniform(0.02, 0.1))
            params = PenaltyParams(lam=lam, delta=1.0, r=0.5)
            res = solve_step_a(X, z[:, None], params, 2.0, tol=1e-10,
                               max_iter=20000)
            oracle = prox_grad_r_half(X, z, lam)
            gap = (step_a_objective(X, z[:, None], res.B, params)
                   - step_a_objective(X, z[:, None], oracle[:, None], params))
            assert abs(gap) < 1e-2
        assert time.monotonic() - t0 < 10.0


def test_criterion_3_shrinkage_oracle():
    with criterion(3, "closed-form row shrinkage matches numeric "
                      "minimization on a parameter grid (1e-4 / 1e-2)"):
        direction = np.array([0.6, -0.8])

        def numeric_argmin(norm_v, params, rho):
            lam, delta, r = params.lam, params.delta, params.r

            def h(s):
                return (lam * (1 - delta) * s ** 2
                        + lam * delta * s ** (1 - r)
                        + (rho / 2) * (s - norm_v) ** 2)

            grid = np.linspace(0, 2 * norm_v + 1, 4001)
            s = grid[np.argmin(h(grid))]
            width = (grid[1] - grid[0])
            fine = np.linspace(max(0, s - width), s + width, 4001)
            return fine[np.argmin(h(fine))]

        n_points = 0
        for rho in (1.0, 2.0):
            for ratio in (0.02, 0.05, 0.1):
                lam = ratio * rho
                for delta in (0.5, 0.8, 1.0):
                    for r in (0.0, 0.1, 0.3, 0.5):
                        params = PenaltyParams(lam=lam, delta=delta, r=r)
                        T = lam * delta * (1 - r * r) / rho
                        edge = T ** (1 / (1 + r))
                        norms = [0.3 * edge, 0.7 * edge, 0.5, 1.0, 2.0, 4.0]
                        for norm_v in norms:
                            if norm_v <= 0:
                                continue
                            n_points += 1
                            got = group_shrink(norm_v * direction, params,
                                               rho)
                            got_norm = float(np.linalg.norm(got))
                            want = numeric_argmin(norm_v, params, rho)
                            tol = 1e-4 if r == 0 else 1e-2
                            assert abs(got_norm - want) <= tol
                            if r == 0 and norm_v ** (1 + r) <= T:
                                assert np.all(got == 0)
        assert n_points >= 200


def test_criterion_4_theta_invariants(unpenalized_fits):
    with criterion(4, "score vectors stay D-orthonormal and deflated "
                      "(1e-8) after every fit"):
        for x, y, design, cfg, ds, _ in unpenalized_fits:
            check_theta_invariants(ds.Theta, design.D, np.eye(design.h)[0],
                                   tol=1e-8)
        # penalized fits too
        for seed in (0, 1, 2):
            x, y = three_class_instance(seed)
            design = build_design(y, 3)
            cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=2.0, delta=0.9,
                                                          r=0.2), rho=2.0)
            ds = fit(x, design, cfg)
            check_theta_invariants(ds.Theta, design.D, np.eye(design.h)[0],
                                   tol=1e-8)


def test_criterion_5_objective_descent(unpenalized_fits):
    with criterion(5, "outer objective descends monotonically "
                      "(tolerance -10 * inner_tol)"):
        histories = [(cfg, ds.objective_history)
                     for _, _, _, cfg, ds, _ in unpenalized_fits]
        rng = np.random.default_rng(3)
        for seed in range(5):
            x, y = three_class_instance(30 + seed)
            design = build_design(y, 3)
            cfg = SolverConfig(d=2, penalty=PenaltyParams(
                lam=float(rng.uniform(0.1, 3.0)), delta=1.0), rho=2.0,
                inner_tol=1e-8, inner_max_iter=5000)
            ds = fit(x, design, cfg)
            histories.append((cfg, ds.objective_history))
        for cfg, h in histories:
            assert len(h) >= 1
            for a, b in zip(h, h[1:]):
                assert b - a <= 10 * cfg.inner_tol


def test_criterion_6_split_and_conquer_equivalence():
    with criterion(6, "partitioned screening selects exactly the single-"
                      "shot set on a block-independent cohort; analytic "
                      "block eigen-extension residual < 1e-10"):
        spec = SyntheticSpec(
            n_samples=1000, n_features=400, maf_range=(0.1, 0.4),
            support=[(j, 1.8) for j in range(110, 120)], link="logistic",
            seed=11)
        x, y, truth = simulate(spec)
        solver = SolverConfig(d=1, penalty=PenaltyParams(lam=100.0, delta=1.0),
                              rho=2.0)
        split = run_plan(x, y, ScreeningPlan(stages=[(4, 100)],
                                             final_fit=solver))
        whole = run_plan(x, y, ScreeningPlan(stages=[(1, 400)],
                                             final_fit=solver))
        split_set = set(int(j) for j in split.selected_indices)
        whole_set = set(int(j) for j in whole.selected_indices)
        assert split_set == whole_set
        assert split_set == truth

        # population-level toy: signal confined to the first block of an
        # exactly block-diagonal problem extends by zero padding
        mu = np.array([1.0, 0.5])
        M = np.zeros((4, 4))
        M[:2, :2] = np.outer(mu, mu)
        sigma = np.eye(4)
        sigma[:2, :2] = np.array([[1.0, 0.3], [0.3, 0.8]]) + np.outer(mu, mu)
        assert block_residual(M, sigma, [0, 1], d=1) < 1e-10


def test_criterion_7_support_recovery_bands():
    with criterion(7, "synthetic cohort (n=600, p=2000): >=8/10 true "
                      "features kept in >=4/5 folds, mean test AUC >= 0.85, "
                      "accuracy >= 0.75"):
        t0 = time.monotonic()
        truth_idx = list(range(10))
        spec = SyntheticSpec(
            n_samples=600, n_features=2000, maf_range=(0.1, 0.4),
            support=[(j, 1.4) for j in truth_idx], link="logistic", seed=42)
        x, y, truth = simulate(spec)
        plan = ScreeningPlan(
            stages=[(4, 100)],
            final_fit=SolverConfig(d=1, penalty=PenaltyParams(
                lam=32.0, delta=1.0), rho=2.0))
        report = cross_validate(x, y, 5, "sparse_sdr", seed=7, plan=plan)
        truth_ids = {x.feature_ids[j] for j in truth}
        good_folds = sum(
            1 for f in report.folds
            if len(set(f.selected_ids) & truth_ids) >= 8)
        avg = report.averages()
        assert good_folds >= 4
        assert avg["test_auc"] >= 0.85
        assert avg["test_accuracy"] >= 0.75
        assert time.monotonic() - t0 < 180


def test_criterion_8_baseline_oracles():
    with criterion(8, "chi-square, AUC and confusion-rate baselines match "
                      "independent counting oracles"):
        rng = np.random.default_rng(8)
        # 100 random genotype tables vs the direct sum (O-E)^2 / E
        for _ in range(100):
            n = int(rng.integers(20, 80))
            X = rng.integers(0, 3, size=(n, 1)).astype(float)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            x = PredictorMatrix(X, ["f0"], [f"s{i}" for i in range(n)])
            y = make_phenotype(labels)
            (j, stat, p, flagged), = chi2_rank(x, y)
            col = X[:, 0].astype(int)
            case = labels == 1
            table = np.zeros((2, 3))
            for g in range(3):
                m = col == g
                table[0, g] = np.sum(m & ~case)
                table[1, g] = np.sum(m & case)
            table = table[:, table.sum(axis=0) > 0]
            df = table.shape[1] - 1
            if df == 0:
                assert flagged and stat == 0.0 and p == 1.0
            else:
                e = np.outer(table.sum(1), table.sum(0)) / table.sum()
                want = float(((table - e) ** 2 / e).sum())
                assert abs(stat - want) < 1e-10
                assert abs(p - float(chi2_dist.sf(want, df))) < 1e-10

        # 100 random score vectors vs the O(n^2) pairwise count
        for _ in range(100):
            n = int(rng.integers(4, 40))
            truth = rng.integers(0, 2, size=n)
            truth[:2] = [0, 1]
            scores = np.round(rng.standard_normal(n), 1)
            case = scores[truth == 1]
            ctrl = scores[truth == 0]
            pairwise = sum(1.0 if a > b else (0.5 if a == b else 0.0)
                           for a in case for b in ctrl) / (len(case)
                                                           * len(ctrl))
            assert auc_mann_whitney(truth, scores, 1) == pytest.approx(
                pairwise, abs=1e-12)

        # 1000 fuzzed confusion matrices: the bundle's internal identity
        # (accuracy consistent with sensitivity/specificity mix) must hold
        for _ in range(1000):
            n = int(rng.integers(4, 60))
            truth = rng.integers(0, 2, size=n)
            if truth.min() == truth.max():
                continue
            pred = rng.integers(0, 2, size=n)
            scores = rng.standard_normal(n)
            m = metrics(truth, pred, scores, positive=1)
            assert m.tp + m.fn + m.tn + m.fp == n


def write_cohort(tmp_path, x, y, cfg_text):
    """Write `x`, `y` and a run config as the CLI reads them; return the
    three paths."""
    xp = tmp_path / "x.tsv"
    yp = tmp_path / "y.tsv"
    lines = ["\t".join(["id"] + x.feature_ids)]
    for sid, row in zip(x.sample_ids, x.values):
        lines.append("\t".join([sid] + [f"{v:g}" for v in row]))
    xp.write_text("\n".join(lines) + "\n")
    yp.write_text("".join(f"{s}\t{int(v)}\n"
                          for s, v in zip(x.sample_ids, y.labels)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    return xp, yp, cfg


def cli_outputs(cmd, out, xp, yp, cfg, threads):
    """Run `cmd` at seed 4 and return its output files' bytes by name."""
    rc = cli_main([cmd, "--x", str(xp), "--y", str(yp), "--config", str(cfg),
                   "--out", str(out), "--seed", "4",
                   "--threads", str(threads)])
    assert rc == 0
    # manifest.json records the requested thread count itself and is run
    # metadata, not a report
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())
            if f.name != "manifest.json"}


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "repeated CLI runs with the same seed are byte-"
                      "identical for any --threads value"):
        spec = SyntheticSpec(n_samples=120, n_features=40,
                             maf_range=(0.1, 0.4),
                             support=[(j, 2.0) for j in range(5)],
                             link="logistic", seed=6)
        x, y, _ = simulate(spec)
        paths = write_cohort(tmp_path, x, y,
                             "penalty.lambda = 8\npenalty.rho = 2\n"
                             "solver.d = 1\nscreen.stages = 2:10\n"
                             "cv.folds = 3\ncv.method = sparse_sdr\n")
        for cmd in ("fit", "screen", "cv"):
            runs = [cli_outputs(cmd, tmp_path / f"{cmd}_{i}", *paths, threads)
                    for i, threads in enumerate((1, 1, 2, 4))]
            assert all(run == runs[0] for run in runs[1:])


def test_criterion_9_determinism_where_blas_threads(tmp_path):
    # 120 x 40 is below the sizes at which OpenBLAS splits its work over
    # threads. Here the stage-1 partitions are 400 x 500. On 2 cores, with
    # each of the N workers' fits on max(1, 2 // N) BLAS threads instead of
    # one, this cohort's selection.tsv differed between --threads 1 and 2 in
    # the last digit of two norms.
    with criterion(9, "screen and fit are byte-identical across --threads "
                      "on a 400 x 2000 cohort"):
        spec = SyntheticSpec(n_samples=400, n_features=2000,
                             maf_range=(0.1, 0.4),
                             support=[(j, 1.8) for j in range(10)],
                             link="logistic", seed=12)
        x, y, _ = simulate(spec)
        paths = write_cohort(tmp_path, x, y,
                             "penalty.lambda = 70\npenalty.rho = 2\n"
                             "solver.d = 1\nscreen.stages = 4:50, 2:50\n")
        for cmd in ("screen", "fit"):
            runs = [cli_outputs(cmd, tmp_path / f"{cmd}_{threads}", *paths,
                                threads)
                    for threads in (1, 2, 4)]
            assert runs[0] == runs[1] == runs[2]


def test_criterion_10_protocol_shape_fidelity():
    with criterion(10, "staged plans on a 393,473-feature matrix produce "
                       "40,000 stage-1 candidates and a 6,000-feature "
                       "final pool"):
        t0 = time.monotonic()
        spec = SyntheticSpec(n_samples=40, n_features=393473,
                             maf_range=(0.1, 0.4),
                             support=[(j, 2.0) for j in range(5)],
                             link="logistic", seed=1)
        x, y, _ = simulate(spec)
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=0.5, delta=1.0),
                           rho=2.0, inner_max_iter=30, outer_max_iter=2,
                           outer_tol=1e-3)
        wide = run_plan(x, y, ScreeningPlan(stages=[(20, 2000), (4, 1500)],
                                            final_fit=cfg))
        stage1 = sum(len(r.kept_indices) for r in wide.stage_records
                     if r.stage == 1)
        assert stage1 == 40000
        narrow = run_plan(x, y, ScreeningPlan(stages=[(25, 2000), (4, 1500)],
                                              final_fit=cfg))
        assert len(narrow.survivors) == 6000
        assert time.monotonic() - t0 < 300
