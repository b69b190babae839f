import numpy as np
import pytest
import scipy.linalg

from sparsesdr.admm import PenaltyParams, solve_step_a, step_a_objective
from sparsesdr.dataset import (PredictorMatrix, SyntheticSpec, center,
                               make_phenotype, simulate)
from sparsesdr.errors import ValidationError
from sparsesdr.optimal_scoring import (SolverConfig, check_theta_invariants,
                                       fit, init_theta, theta_step)
from sparsesdr.scoring import build_design
from sparsesdr.sir import principal_angle, sir_eigen


def matrix(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return PredictorMatrix(values, [f"f{j}" for j in range(p)],
                           [f"s{i}" for i in range(n)])


def three_class_instance(seed=0, n=300, p=6):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    labels = np.zeros(n, dtype=int)
    labels[X[:, 0] > 0.4] = 1
    labels[X[:, 1] > 0.4] = 2
    return center(matrix(X)), make_phenotype(labels)


def genotype_instance(n, p, seed):
    x, y, _ = simulate(SyntheticSpec(
        n_samples=n, n_features=p, maf_range=(0.1, 0.4),
        support=[(j, 1.5) for j in range(6)], link="logistic", seed=seed))
    return center(x), y


def suppressor_instance():
    # f0 = s + e carries the class signal s; f1 = e is orthogonal to s, so
    # its KKT score is 0 at B = 0, yet it cancels f0's noise once f0 is in
    rng = np.random.default_rng(0)
    labels = rng.permutation(np.repeat([0, 1], 100))
    s = labels - 0.5
    e = rng.standard_normal(200)
    e -= e.mean()
    e -= (e @ s) / (s @ s) * s
    X = np.column_stack([s + e, e, rng.standard_normal((200, 8))])
    return center(matrix(X)), make_phenotype(labels)


def record_calls(monkeypatch, *names):
    """Wrap optimal_scoring's `names`; returns the (name, args, kwargs,
    result) list of their calls, in order."""
    from sparsesdr import optimal_scoring
    calls = []

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args, kwargs, fn(*args, **kwargs)))
            return calls[-1][3]
        return wrapped

    for name in names:
        monkeypatch.setattr(optimal_scoring, name,
                            wrap(name, getattr(optimal_scoring, name)))
    return calls


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(outer_tol=float("nan")), dict(outer_tol=float("inf")),
        dict(inner_tol=float("nan")), dict(inner_tol=0.0),
    ])
    def test_bad_tolerance_refused(self, kwargs):
        with pytest.raises(ValidationError, match="tolerances"):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(outer_max_iter=0), dict(inner_max_iter=0),
        dict(inner_max_iter=-1),
    ])
    def test_iteration_cap_below_one_refused(self, kwargs):
        with pytest.raises(ValidationError, match="iteration caps"):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_rho_refused(self, rho):
        with pytest.raises(ValidationError,
                           match=r"rho must be finite and > 0"):
            SolverConfig(rho=rho)


def quintile_instance():
    # five classes by quintile of a linear score of the first three columns
    rng = np.random.default_rng(0)
    X = rng.standard_normal((300, 20))
    score = X[:, :3] @ [1.0, 0.7, 0.5]
    labels = np.digitize(score, np.quantile(score, [0.2, 0.4, 0.6, 0.8]))
    return center(matrix(X)), make_phenotype(labels, "categorical")


class TestInitTheta:
    def test_invariants_hold(self):
        # a predictor matrix with no signal still gets a valid start
        x, y = three_class_instance()
        design = build_design(y)
        for X in (x.values, np.zeros_like(x.values)):
            for d in (1, 2):
                Theta = init_theta(design, X, d)
                assert Theta.shape == (design.h, d)
                check_theta_invariants(Theta, design.D, np.eye(design.h)[0])

    def test_d_too_large(self):
        x, y = three_class_instance()
        design = build_design(y)
        with pytest.raises(ValidationError):
            init_theta(design, x.values, design.h)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_spans_top_generalized_eigenvectors(self, d):
        # the maximizer of ||X^T Z Theta||_F over D-orthonormal scores spans
        # the top d eigenvectors of Z^T X X^T Z v = mu D v; for centered X,
        # Z^T X e_1 = 0, so they are deflated against the constant score
        x, y = quintile_instance()
        design = build_design(y)
        XtZ = x.values.T @ design.Z
        V = scipy.linalg.eigh(XtZ.T @ XtZ, design.D)[1][:, ::-1][:, :d]
        Theta = init_theta(design, x.values, d)
        assert np.max(scipy.linalg.subspace_angles(Theta, V)) < 1e-10


def categorical_design(K, rng):
    labels = rng.integers(0, K, size=60)
    labels[:K] = np.arange(K)
    return build_design(make_phenotype(labels, "categorical"))


class TestThetaStep:
    def setup_problem(self, seed=0):
        x, y = three_class_instance(seed)
        design = build_design(y)
        B = np.random.default_rng(seed + 1).standard_normal((x.n_features, 2))
        return design, design.Z.T @ (x.values @ B)

    def test_output_invariants(self):
        design, ztxb = self.setup_problem()
        Theta = theta_step(ztxb, design.D, None)
        check_theta_invariants(Theta, design.D, np.eye(design.h)[0],
                               tol=1e-12)
        # a maximizer of tr(Theta^T ztxb) makes Theta^T ztxb symmetric and
        # positive definite
        S = Theta.T @ ztxb
        assert np.allclose(S, S.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh((S + S.T) / 2) > 0)

    def test_scale_invariance_in_beta(self):
        design, ztxb = self.setup_problem()
        t1 = theta_step(ztxb, design.D, None)
        t2 = theta_step(10.0 * ztxb, design.D, None)
        assert np.allclose(t1, t2, atol=1e-12)

    def test_matches_constrained_maximizer_oracle(self):
        # Theta maximizes tr(Theta^T M) over D-orthonormal h x d scores
        # D-orthogonal to q1 = e_1. Oracle: Theta = N L^-T P with N a basis
        # of null(q1^T D), N^T D N = L L^T, and P = U V^T the polar factor
        # of L^-1 N^T M = U S V^T
        rng = np.random.default_rng(11)
        for K in range(2, 7):
            design = categorical_design(K, rng)
            D = design.D
            N = scipy.linalg.null_space(D[:1])
            L = np.linalg.cholesky(N.T @ D @ N)
            for d in range(1, K):
                M = rng.standard_normal((K, d))
                U, _, Vt = np.linalg.svd(np.linalg.solve(L, N.T @ M),
                                         full_matrices=False)
                oracle = N @ np.linalg.solve(L.T, U @ Vt)
                Theta = theta_step(M, D, None)
                assert np.max(np.abs(Theta - oracle)) < 1e-10
                assert np.trace(Theta.T @ M) >= np.trace(oracle.T @ M) - 1e-10

    def test_one_direction_is_normalized_w(self):
        # at d = 1 the polar factor is w / sqrt(w^T D w), with w = D^-1 m
        # deflated against q1
        rng = np.random.default_rng(12)
        for K in range(2, 7):
            D = categorical_design(K, rng).D
            m = rng.standard_normal(K)
            w = np.linalg.solve(D, m)
            w -= (D[0] @ w) * np.eye(K)[0]
            theta = theta_step(m[:, None], D, None)[:, 0]
            assert np.max(np.abs(theta - w / np.sqrt(w @ D @ w))) < 1e-12

    def test_rank_deficient_returns_given_theta(self):
        # B = 0, or B of rank 1 at d = 2: tr(Theta^T ztxb) has no unique
        # maximizer, and the given scores come back as they are
        design, ztxb = self.setup_problem()
        Theta = theta_step(ztxb, design.D, None)
        rank_one = np.outer(ztxb[:, 0], [1.0, -2.0])
        for M in (np.zeros_like(ztxb), rank_one):
            assert theta_step(M, design.D, Theta) is Theta


class TestFit:
    def test_unpenalized_matches_eigen_solution(self):
        # with no penalty the alternating solver and the generalized
        # eigenproblem span the same subspace
        x, y = three_class_instance(5, n=400, p=5)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.0), rho=2.0,
                           outer_tol=1e-8, outer_max_iter=300,
                           inner_tol=1e-9, inner_max_iter=5000)
        ds = fit(x, design, cfg)
        assert ds.converged
        eig = sir_eigen(x, design, 2)
        assert principal_angle(ds.B, eig.basis) < 1e-3

    def test_huge_lambda_zero_solution(self):
        x, y = three_class_instance(6)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=1e9, delta=1.0),
                           rho=2.0)
        ds = fit(x, design, cfg)
        assert ds.converged
        assert ds.outer_iters <= 2
        assert np.all(ds.B == 0)

    def test_support_recovery(self):
        spec = SyntheticSpec(n_samples=500, n_features=200,
                             maf_range=(0.1, 0.4),
                             support=[(j, 1.5) for j in range(10)],
                             link="logistic", seed=21)
        x, y, truth = simulate(spec)
        xc = center(x)
        design = build_design(y)
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=50.0, delta=1.0),
                           rho=2.0, outer_max_iter=50)
        ds = fit(xc, design, cfg)
        selected = set(np.flatnonzero(ds.row_norms() > 1e-10))
        assert len(selected & truth) >= 8
        assert len(selected - truth) <= 5

    def test_objective_history_descends(self):
        x, y = three_class_instance(7)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.5, delta=1.0),
                           rho=2.0, inner_tol=1e-8, inner_max_iter=5000,
                           outer_tol=1e-7, outer_max_iter=200)
        ds = fit(x, design, cfg)
        h = ds.objective_history
        for a, b in zip(h, h[1:]):
            assert b <= a + 10 * cfg.inner_tol

    def test_one_nonzero_row_at_two_directions(self):
        # B = e_l b^T has rank 1 < d = 2: the score step keeps the scores
        # instead of failing on a direction with no signal of its own
        x, y = three_class_instance(0)
        ds = fit(x, build_design(y), SolverConfig(
            d=2, penalty=PenaltyParams(lam=410.0), rho=2.0))
        assert ds.converged
        assert np.count_nonzero(ds.row_norms()) == 1

    def test_full_rank_scores_need_one_step_a(self, monkeypatch):
        # at d = h - 1 every start spans the same scores, so the first step
        # A is the optimum: the loop stops at outer iteration 2, and the
        # final rotation gives the same B from any D-orthonormal start
        from sparsesdr import optimal_scoring
        x, y = three_class_instance(3, n=300, p=40)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=60.0), rho=2.0)
        fits = [fit(x, design, cfg)]
        L = np.linalg.cholesky(design.D)
        for seed in range(3):
            P = np.linalg.qr(
                np.random.default_rng(seed).standard_normal((2, 2)))[0]
            start = np.linalg.solve(L.T, np.vstack([np.zeros((1, 2)), P]))
            monkeypatch.setattr(optimal_scoring, "init_theta",
                                lambda *args: start)
            fits.append(fit(x, design, cfg))
        assert all(ds.converged and ds.outer_iters <= 3 for ds in fits)
        for ds in fits[1:]:
            assert np.max(np.abs(ds.B - fits[0].B)) < 1e-9

    def test_data_start_below_every_random_start(self):
        # five classes at d = 3 and a lambda that keeps two rows: B's rank
        # stays below d, the score step keeps its start, and random starts
        # (seeds 0-3 of a Gaussian draw) end at objectives 872.74-890.19
        x, y = quintile_instance()
        cfg = SolverConfig(d=3, penalty=PenaltyParams(lam=250.0), rho=2.0)
        ds = fit(x, build_design(y), cfg)
        assert ds.converged and np.count_nonzero(ds.row_norms()) == 2
        assert ds.objective_history[-1] <= 871.95

    @pytest.mark.parametrize("case", ["h=3,d=2", "h=5,d=2"])
    def test_objective_never_exceeds_first_step_a(self, monkeypatch, case):
        # each score step is the exact minimizer over the scores, so no
        # recorded objective exceeds the first step A's, at the starting
        # scores and the B it solved for
        if case == "h=3,d=2":
            x, y = three_class_instance(3, n=300, p=40)
        else:
            rng = np.random.default_rng(5)
            X = rng.standard_normal((300, 30))
            labels = np.digitize(X[:, :2] @ [1.0, 0.5], [-1.0, -0.3, 0.3, 1.0])
            x, y = center(matrix(X)), make_phenotype(labels, "categorical")
        pen = PenaltyParams(lam=20.0)
        calls = record_calls(monkeypatch, "solve_step_a", "theta_step")
        ds = fit(x, build_design(y), SolverConfig(d=2, penalty=pen, rho=2.0))
        names = [c[0] for c in calls]
        _, args, _, res = calls[names.index("theta_step") - 1]
        first = step_a_objective(args[0], args[1], res.B, pen)
        assert max(ds.objective_history) <= first * (1 + 1e-12)

    def test_binary_second_step_a_resumes_at_its_answer(self, monkeypatch):
        # with two classes the score cannot move, so the second outer
        # iteration's step A starts at the first one's converged answer: it
        # adds no column and its one ADMM solve stops after one iteration
        calls = record_calls(monkeypatch, "solve_step_a", "theta_step")
        x, y, _ = simulate(SyntheticSpec(
            n_samples=200, n_features=60, maf_range=(0.1, 0.4),
            support=[(j, 1.5) for j in range(5)], link="logistic", seed=4))
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=20.0), rho=2.0)
        ds = fit(center(x), build_design(y), cfg)
        assert ds.converged and ds.inner_converged and ds.outer_iters == 2
        # the solves of each outer iteration, which one score step ends
        per_outer = [[]]
        for name, _, _, result in calls:
            if name == "solve_step_a":
                per_outer[-1].append(result)
            else:
                per_outer.append([])
        first, second = per_outer[:2]
        assert first[0].n_iter > 1 and all(r.converged for r in first)
        assert len(second) == 1 and second[0].n_iter == 1

    def test_sign_canonicalization(self):
        x, y = three_class_instance(8)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.2), rho=2.0)
        ds = fit(x, design, cfg)
        for i in range(2):
            k = np.argmax(np.abs(ds.Theta[:, i]))
            assert ds.Theta[k, i] > 0

    def test_requires_centered_input(self):
        x, y = three_class_instance(9)
        raw = PredictorMatrix(x.values.copy(), x.feature_ids, x.sample_ids)
        with pytest.raises(ValidationError, match="centered"):
            fit(raw, build_design(y), SolverConfig(d=1))

    def test_theta_invariants_on_result(self):
        x, y = three_class_instance(10)
        design = build_design(y)
        for lam in [0.0, 0.5, 5.0]:
            cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=lam, delta=0.9,
                                                          r=0.1), rho=2.0)
            ds = fit(x, design, cfg)
            check_theta_invariants(ds.Theta, design.D, np.eye(design.h)[0])


class TestWorkingSet:
    """`fit` solves each step A on a KKT-checked working set of columns;
    the oracle is `admm.solve_step_a` on every column at the fit's scores."""

    @pytest.mark.parametrize("case", ["p>n", "p<n", "d=2", "delta=0.7"])
    def test_matches_full_column_solve(self, case):
        (x, y), d, pen = {
            "p>n": (genotype_instance(120, 300, 1), 1,
                    PenaltyParams(lam=20.0)),
            "p<n": (genotype_instance(300, 60, 2), 1,
                    PenaltyParams(lam=20.0)),
            "d=2": (three_class_instance(3, n=300, p=40), 2,
                    PenaltyParams(lam=60.0)),
            "delta=0.7": (genotype_instance(200, 150, 4), 1,
                          PenaltyParams(lam=20.0, delta=0.7)),
        }[case]
        design = build_design(y)
        ds = fit(x, design, SolverConfig(d=d, penalty=pen, rho=2.0))
        assert ds.converged and ds.inner_converged
        assert 0 < ds.working_set_size < x.n_features
        assert ds.kkt_max_rel <= ds.kkt_slack + 1e-12
        X, Ztheta = x.values, design.Z @ ds.Theta
        oracle = solve_step_a(X, Ztheta, pen, 2.0, tol=1e-10, max_iter=50000)
        assert oracle.converged
        assert np.array_equal(np.flatnonzero(ds.row_norms()),
                              np.flatnonzero(np.linalg.norm(oracle.B, axis=1)))
        got = step_a_objective(X, Ztheta, ds.B, pen)
        want = step_a_objective(X, Ztheta, oracle.B, pen)
        assert abs(got - want) <= 1e-9 * want

    def test_suppressor_is_added_by_the_kkt_pass(self, monkeypatch):
        x, y = suppressor_instance()
        design = build_design(y)
        pen = PenaltyParams(lam=40.0)
        calls = record_calls(monkeypatch, "solve_step_a", "theta_step")
        ds = fit(x, design, SolverConfig(penalty=pen, rho=2.0))
        names = [c[0] for c in calls]
        first_outer = calls[:names.index("theta_step")]
        # f0 alone, then f1 added by the pass after the first solve
        assert [c[1][0].shape[1] for c in first_outer] == [1, 2]
        assert np.flatnonzero(ds.row_norms()).tolist() == [0, 1]
        oracle = solve_step_a(x.values, design.Z @ ds.Theta, pen, 2.0,
                              tol=1e-10, max_iter=50000)
        assert np.flatnonzero(
            np.linalg.norm(oracle.B, axis=1)).tolist() == [0, 1]
        assert ds.kkt_max_rel <= ds.kkt_slack + 1e-12

    def test_no_signal_needs_no_solve(self, monkeypatch):
        x, y = three_class_instance(6)
        calls = record_calls(monkeypatch, "solve_step_a", "GramSolver")
        ds = fit(x, build_design(y), SolverConfig(
            d=2, penalty=PenaltyParams(lam=1e9), rho=2.0))
        assert calls == [] and ds.working_set_size == 0
        assert ds.converged and ds.kkt_max_rel == 0 and ds.kkt_slack == 0

    def test_capped_solve_ends_the_step(self, monkeypatch):
        # a capped solve certifies nothing: no KKT pass follows it, so each
        # outer iteration runs one solve and the fit is reported unconverged
        x, y = genotype_instance(120, 300, 1)
        calls = record_calls(monkeypatch, "solve_step_a")
        ds = fit(x, build_design(y), SolverConfig(
            penalty=PenaltyParams(lam=0.5), rho=2.0, inner_max_iter=1,
            outer_max_iter=3))
        assert not ds.inner_converged
        assert len(calls) == ds.outer_iters
        assert not any(c[3].converged for c in calls)

    def test_partition_fit_factors_narrow_grams(self, monkeypatch):
        # a sparse 400 x 500 partition fit (the README screen's first stage)
        # factors no Gram wider than 50 columns, where a full-column solve
        # factors a 400 x 400 one; X_W and its GramSolver are kept while W
        # is unchanged, so each factorization is of a larger W than the last
        x, y, _ = simulate(SyntheticSpec(
            n_samples=400, n_features=500, maf_range=(0.1, 0.4),
            support=[(j, 1.8) for j in range(10)], link="logistic", seed=3))
        calls = record_calls(monkeypatch, "GramSolver")
        ds = fit(center(x), build_design(y), SolverConfig(
            penalty=PenaltyParams(lam=70.0), rho=2.0))
        widths = [c[1][0].shape[1] for c in calls]
        assert ds.converged and ds.inner_converged
        assert 0 < max(widths) <= 50
        assert widths == sorted(set(widths))

    def test_r_positive_solves_on_every_column(self, monkeypatch):
        # no KKT pass and no column subset: one solve per outer iteration on
        # X itself, warm from the one before: the full-column path
        x, y = three_class_instance(10)
        calls = record_calls(monkeypatch, "solve_step_a", "GramSolver")
        ds = fit(x, build_design(y), SolverConfig(
            d=2, penalty=PenaltyParams(lam=0.5, delta=0.9, r=0.5), rho=2.0,
            outer_max_iter=4))
        gram, solves = calls[0], calls[1:]
        assert gram[0] == "GramSolver" and len(solves) == ds.outer_iters
        X = gram[1][0]
        assert np.array_equal(X, x.values)
        assert all(c[0] == "solve_step_a" and c[1][0] is X
                   and c[2]["gram"] is gram[3] for c in solves)
        warm = [c[2]["warm"] for c in solves]
        assert warm[0] is None
        assert all(w is c[3] for w, c in zip(warm[1:], solves))
        # the final rotation mixes B's columns and keeps its row norms
        assert np.allclose(ds.row_norms(),
                           np.linalg.norm(solves[-1][3].B, axis=1),
                           rtol=1e-12, atol=1e-14)
        assert ds.kkt_max_rel is None and ds.kkt_slack is None
        assert ds.working_set_size == x.n_features
