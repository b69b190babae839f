import numpy as np
import pytest
import scipy.linalg

from sparsesdr.admm import PenaltyParams, solve_step_a, step_a_objective
from sparsesdr.dataset import (PredictorMatrix, SyntheticSpec, center,
                               make_phenotype, simulate)
from sparsesdr.errors import NumericError, ValidationError
from sparsesdr.optimal_scoring import (SolverConfig, _scores,
                                       check_theta_invariants, column_signs,
                                       fit, init_theta, kkt_violations,
                                       theta_step)
from sparsesdr.scoring import build_design
from sir_oracle import principal_angle, sir_eigen


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
    return matrix(X), make_phenotype(labels)


def genotype_instance(n, p, seed):
    x, y, _ = simulate(SyntheticSpec(
        n_samples=n, n_features=p, maf_range=(0.1, 0.4),
        support=[(j, 1.5) for j in range(6)], link="logistic", seed=seed))
    return x, y


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
    return matrix(X), make_phenotype(labels)


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
    return matrix(X), make_phenotype(labels, "categorical")


def paired_column_instance(seed, n=150, p=60):
    # columns 2k and 2k+1 correlated at ~0.96; a binary and a four-slice
    # response driven by the first six columns
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X[:, 1::2] = X[:, ::2] + 0.3 * rng.standard_normal((n, p // 2))
    eta = X[:, :6] @ rng.uniform(0.5, 1.0, 6)
    binary = (eta + rng.standard_normal(n) > 0).astype(int)
    cont = eta + rng.standard_normal(n)
    slices = np.digitize(cont, np.quantile(cont, [0.25, 0.5, 0.75]))
    return (matrix(X), make_phenotype(binary),
            make_phenotype(slices, "categorical"))


class TestInitTheta:
    def test_invariants_hold(self):
        # a predictor matrix with no signal still gets a valid start
        x, y = three_class_instance()
        design = build_design(y)
        Xc, _ = center(x)
        for X in (Xc, np.zeros_like(Xc)):
            for d in (1, 2):
                P = init_theta(design.Zw.T @ X, d)
                assert np.allclose(P.T @ P, np.eye(d), atol=1e-12)
                Theta = _scores(design.L, P)
                assert Theta.shape == (design.h, d)
                check_theta_invariants(Theta, design.D, np.eye(design.h)[0])

    def test_d_too_large(self):
        x, y = three_class_instance()
        design = build_design(y)
        with pytest.raises(ValidationError):
            init_theta(design.Zw.T @ center(x)[0], design.h)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_spans_top_generalized_eigenvectors(self, d):
        # the maximizer of ||X^T Z Theta||_F over D-orthonormal scores spans
        # the top d eigenvectors of Z^T X X^T Z v = mu D v; for centered X,
        # Z^T X e_1 = 0, so they are deflated against the constant score
        x, y = quintile_instance()
        design = build_design(y)
        X, _ = center(x)
        XtZ = X.T @ design.Z
        V = scipy.linalg.eigh(XtZ.T @ XtZ, design.D)[1][:, ::-1][:, :d]
        Theta = _scores(design.L, init_theta(design.Zw.T @ X, d))
        assert np.max(scipy.linalg.subspace_angles(Theta, V)) < 1e-10


def categorical_design(K, rng):
    labels = rng.integers(0, K, size=60)
    labels[:K] = np.arange(K)
    return build_design(make_phenotype(labels, "categorical"))


class TestThetaStep:
    """`theta_step` maps Zw^T F, for fitted values F = X B, to the
    orthonormal P whose scores Theta = `_scores(L, P)` maximize
    tr(Theta^T Z^T F) over D-orthonormal scores deflated against q1."""

    def setup_problem(self, seed=0):
        x, y = three_class_instance(seed)
        design = build_design(y)
        B = np.random.default_rng(seed + 1).standard_normal((x.n_features, 2))
        return design, center(x)[0] @ B

    def test_output_invariants(self):
        design, F = self.setup_problem()
        P, _ = theta_step(design.Zw.T @ F, None)
        Theta = _scores(design.L, P)
        check_theta_invariants(Theta, design.D, np.eye(design.h)[0],
                               tol=1e-12)
        # a maximizer of tr(Theta^T Z^T F) makes Theta^T Z^T F symmetric and
        # positive definite
        S = Theta.T @ design.Z.T @ F
        assert np.allclose(S, S.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh((S + S.T) / 2) > 0)

    def test_scale_invariance_in_beta(self):
        design, F = self.setup_problem()
        p1, _ = theta_step(design.Zw.T @ F, None)
        p2, _ = theta_step(design.Zw.T @ (10.0 * F), None)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_matches_constrained_maximizer_oracle(self):
        # Theta maximizes tr(Theta^T M), M = Z^T F, over D-orthonormal h x d
        # scores D-orthogonal to q1 = e_1. Oracle: Theta = N L^-T P with N a
        # basis of null(q1^T D), N^T D N = L L^T, and P = U V^T the polar
        # factor of L^-1 N^T M = U S V^T
        rng = np.random.default_rng(11)
        for K in range(2, 7):
            design = categorical_design(K, rng)
            D = design.D
            N = scipy.linalg.null_space(D[:1])
            L = np.linalg.cholesky(N.T @ D @ N)
            for d in range(1, K):
                F = rng.standard_normal((design.n_samples, d))
                M = design.Z.T @ F
                U, _, Vt = np.linalg.svd(np.linalg.solve(L, N.T @ M),
                                         full_matrices=False)
                oracle = N @ np.linalg.solve(L.T, U @ Vt)
                Theta = _scores(design.L, theta_step(design.Zw.T @ F,
                                                     None)[0])
                assert np.max(np.abs(Theta - oracle)) < 1e-10
                assert np.trace(Theta.T @ M) >= np.trace(oracle.T @ M) - 1e-10

    def test_one_direction_is_normalized_w(self):
        # at d = 1 the polar factor is w / sqrt(w^T D w), with w = D^-1 m
        # deflated against q1, for m = Z^T f
        rng = np.random.default_rng(12)
        for K in range(2, 7):
            design = categorical_design(K, rng)
            D = design.D
            f = rng.standard_normal(design.n_samples)
            w = np.linalg.solve(D, design.Z.T @ f)
            w -= (D[0] @ w) * np.eye(K)[0]
            P = theta_step((design.Zw.T @ f)[:, None], None)[0]
            theta = _scores(design.L, P)[:, 0]
            assert np.max(np.abs(theta - w / np.sqrt(w @ D @ w))) < 1e-12

    def test_rank_deficient_returns_given_theta(self):
        # B = 0, or B of rank 1 at d = 2: tr(P^T Zw^T X B) has no unique
        # maximizer, and the given scores come back as they are
        design, F = self.setup_problem()
        zwtxb = design.Zw.T @ F
        P, _ = theta_step(zwtxb, None)
        rank_one = np.outer(zwtxb[:, 0], [1.0, -2.0])
        for M in (np.zeros_like(zwtxb), rank_one):
            assert theta_step(M, P)[0] is P


class TestCheckThetaInvariants:
    def valid_scores(self):
        design = categorical_design(4, np.random.default_rng(13))
        P = np.linalg.qr(
            np.random.default_rng(14).standard_normal((3, 2)))[0]
        return design.D, _scores(design.L, P)

    def d_unit(self, D, t):
        return t / np.sqrt(t @ D @ t)

    def test_valid_scores_pass(self):
        D, Theta = self.valid_scores()
        check_theta_invariants(Theta, D, np.eye(4)[0], tol=1e-12)

    def test_not_d_unit(self):
        D, Theta = self.valid_scores()
        Theta[:, 1] *= 1.01
        with pytest.raises(NumericError, match="theta_1 is not D-unit"):
            check_theta_invariants(Theta, D, np.eye(4)[0])

    def test_not_deflated(self):
        # D-unit, but with a share of the constant score
        D, Theta = self.valid_scores()
        Theta[:, 0] = self.d_unit(D, Theta[:, 0] + 0.1 * np.eye(4)[0])
        with pytest.raises(NumericError, match="theta_0 not deflated"):
            check_theta_invariants(Theta, D, np.eye(4)[0])

    def test_not_d_orthogonal(self):
        # both columns D-unit and deflated, but not D-orthogonal
        D, Theta = self.valid_scores()
        Theta[:, 1] = self.d_unit(D, Theta[:, 1] + 0.1 * Theta[:, 0])
        with pytest.raises(NumericError,
                           match="theta_1 not D-orthogonal to theta_0"):
            check_theta_invariants(Theta, D, np.eye(4)[0])


class TestColumnSigns:
    def test_negative_largest_entry_flips(self):
        V = np.array([[0.5, 0.1], [-2.0, 0.3], [1.0, -0.2]])
        assert column_signs(V).tolist() == [-1.0, 1.0]

    def test_first_entry_decides_ties(self):
        V = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert column_signs(V).tolist() == [-1.0, 1.0]

    def test_zero_column_gets_plus_one(self):
        assert column_signs(np.zeros((3, 2))).tolist() == [1.0, 1.0]


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
        _, vecs = sir_eigen(center(x)[0], design.slice_assignments)
        assert principal_angle(ds.B, vecs[:, :2]) < 1e-3

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
        design = build_design(y)
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=50.0, delta=1.0),
                           rho=2.0, outer_max_iter=50)
        ds = fit(x, design, cfg)
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
        # A is the optimum and the score step only rotates its scores: the
        # loop stops at outer iteration 1, and the final rotation gives the
        # same B from any orthonormal start P, whose scores L^-T [0; P] are
        # D-orthonormal and deflated
        from sparsesdr import optimal_scoring
        x, y = three_class_instance(3, n=300, p=40)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=60.0), rho=2.0)
        fits = [fit(x, design, cfg)]
        for seed in range(3):
            start = np.linalg.qr(
                np.random.default_rng(seed).standard_normal((2, 2)))[0]
            monkeypatch.setattr(optimal_scoring, "init_theta",
                                lambda *args: start)
            fits.append(fit(x, design, cfg))
        assert all(ds.converged and ds.outer_iters == 1 for ds in fits)
        for ds in fits[1:]:
            assert np.max(np.abs(ds.B - fits[0].B)) < 1e-9

    @pytest.mark.parametrize("case", ["h=5,d=4", "h=3,d=2,r=0.2"])
    def test_full_rank_fit_stops_at_outer_iteration_1(self, case):
        # the r > 0 case is criterion 4's seed-2 fit, whose capped step A
        # kept the outer loop cycling to its cap while the loop also waited
        # for B to stop moving
        if case == "h=5,d=4":
            (x, y), pen = quintile_instance(), PenaltyParams(lam=30.0)
        else:
            rng = np.random.default_rng(2)
            X = rng.standard_normal((400, 8))
            labels = np.zeros(400, dtype=int)
            labels[X[:, 0] > 0.4] = 1
            labels[X[:, 1] - 0.3 * X[:, 0] > 0.4] = 2
            x, y = matrix(X), make_phenotype(labels)
            pen = PenaltyParams(lam=2.0, delta=0.9, r=0.2)
        design = build_design(y)
        ds = fit(x, design, SolverConfig(d=design.h - 1, penalty=pen,
                                         rho=2.0))
        assert ds.converged and ds.outer_iters == 1
        assert len(ds.objective_history) == 1
        check_theta_invariants(ds.Theta, design.D, np.eye(design.h)[0])

    @pytest.mark.parametrize("case", [
        "h=3,d=2", "h=5,d=2,outer cap 1", "h=5,d=2,outer cap 3",
        "h=3,d=2,inner cap 2"])
    def test_kkt_figures_describe_the_returned_pair(self, case):
        # kkt_max_rel is the KKT violation at the returned Theta and B, for
        # a converged fit, for fits stopped by the outer cap and for a fit
        # whose only step A ends on a capped solve alike
        cap, inner_cap = 100, 2 if "inner cap" in case else 1000
        if case.startswith("h=3,d=2"):
            x, y = three_class_instance(3, n=300, p=40)
            pen = PenaltyParams(lam=60.0)
        else:
            (x, y), pen = quintile_instance(), PenaltyParams(lam=30.0)
            cap = int(case[-1])
        design = build_design(y)
        ds = fit(x, design, SolverConfig(d=2, penalty=pen, rho=2.0,
                                         outer_max_iter=cap,
                                         inner_max_iter=inner_cap))
        assert ds.converged == (cap == 100)
        assert ds.inner_converged == (inner_cap > 2)
        X, _ = center(x)
        G = 2 * X.T @ (design.Z @ ds.Theta - X @ ds.B)
        want = np.max(kkt_violations(G, ds.B, pen))
        assert abs(ds.kkt_max_rel - want) <= 1e-8 * want
        assert ds.objective_history[-1] == pytest.approx(
            step_a_objective(X @ ds.B, design.Z @ ds.Theta, ds.B, pen),
            rel=1e-12)

    @pytest.mark.parametrize("d, lam, bound, rows", [
        (1, 30.0, 75.6205, 3), (2, 30.0, 365.0618, 13),
        (2, 100.0, 463.7767, 3), (3, 30.0, 656.8922, 13),
        (3, 250.0, 871.95, 2)])
    def test_data_start_below_every_random_start(self, d, lam, bound, rows):
        # five classes at d < h - 1; each bound is the objective, rounded
        # up, of a loop that also waited for B to stop moving. At d = 3 and
        # a lambda that keeps two rows, B's rank stays below d, the score
        # step keeps its start, and random starts (seeds 0-3 of a Gaussian
        # draw) end at objectives 872.74-890.19
        x, y = quintile_instance()
        cfg = SolverConfig(d=d, penalty=PenaltyParams(lam=lam), rho=2.0)
        ds = fit(x, build_design(y), cfg)
        assert ds.converged and np.count_nonzero(ds.row_norms()) == rows
        assert ds.objective_history[-1] <= bound

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
            x, y = matrix(X), make_phenotype(labels, "categorical")
        pen = PenaltyParams(lam=20.0)
        calls = record_calls(monkeypatch, "solve_step_a", "theta_step")
        ds = fit(x, build_design(y), SolverConfig(d=2, penalty=pen, rho=2.0))
        names = [c[0] for c in calls]
        _, args, _, res = calls[names.index("theta_step") - 1]
        first = step_a_objective(args[0] @ res.B, args[1], res.B, pen)
        assert max(ds.objective_history) <= first * (1 + 1e-12)

    def test_binary_fit_ends_at_its_first_step_a(self, monkeypatch):
        # with two classes the score step can only flip the score's sign,
        # so the fit returns the first step A's answer after one score step
        calls = record_calls(monkeypatch, "solve_step_a", "theta_step")
        x, y, _ = simulate(SyntheticSpec(
            n_samples=200, n_features=60, maf_range=(0.1, 0.4),
            support=[(j, 1.5) for j in range(5)], link="logistic", seed=4))
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=20.0), rho=2.0)
        ds = fit(x, build_design(y), cfg)
        assert ds.converged and ds.inner_converged and ds.outer_iters == 1
        names = [c[0] for c in calls]
        assert names.count("theta_step") == 1 and names[-1] == "theta_step"
        solves = [c[3] for c in calls[:-1]]
        assert solves[0].n_iter > 1 and all(r.converged for r in solves)
        # the returned B is the last solve's, up to the final sign
        norms = np.linalg.norm(solves[-1].B, axis=1)
        assert np.allclose(np.sort(ds.row_norms()[ds.row_norms() > 0]),
                           np.sort(norms[norms > 0]), rtol=1e-12)

    def test_sign_canonicalization(self):
        x, y = three_class_instance(8)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.2), rho=2.0)
        ds = fit(x, design, cfg)
        for i in range(2):
            k = np.argmax(np.abs(ds.Theta[:, i]))
            assert ds.Theta[k, i] > 0

    def test_dosages_fit_as_their_float_copy(self):
        # uint8 dosages and the same cells in float64 have the same exact
        # column means, so the fit centers them to the same bits
        x, y, _ = simulate(SyntheticSpec(
            n_samples=150, n_features=30, maf_range=(0.1, 0.4),
            support=[(j, 1.5) for j in range(4)], seed=9))
        f64 = PredictorMatrix(x.raw.astype(float), x.feature_ids,
                              x.sample_ids)
        design = build_design(y)
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=5.0), rho=2.0)
        u8, f64 = fit(x, design, cfg), fit(f64, design, cfg)
        assert u8.row_norms().any()
        for name, value in vars(f64).items():
            assert np.array_equal(getattr(u8, name), value), name

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
        (X, _), Ztheta = center(x), design.Z @ ds.Theta
        oracle = solve_step_a(X, Ztheta, pen, 2.0, tol=1e-10, max_iter=50000)
        assert oracle.converged
        assert np.array_equal(np.flatnonzero(ds.row_norms()),
                              np.flatnonzero(np.linalg.norm(oracle.B, axis=1)))
        got = step_a_objective(X @ ds.B, Ztheta, ds.B, pen)
        want = step_a_objective(X @ oracle.B, Ztheta, oracle.B, pen)
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
        oracle = solve_step_a(center(x)[0], design.Z @ ds.Theta, pen, 2.0,
                              tol=1e-10, max_iter=50000)
        assert np.flatnonzero(
            np.linalg.norm(oracle.B, axis=1)).tolist() == [0, 1]

    def test_no_signal_needs_no_solve(self, monkeypatch):
        x, y = three_class_instance(6)
        calls = record_calls(monkeypatch, "solve_step_a", "GramSolver")
        ds = fit(x, build_design(y), SolverConfig(
            d=2, penalty=PenaltyParams(lam=1e9), rho=2.0))
        assert calls == [] and ds.working_set_size == 0
        assert ds.converged and ds.kkt_max_rel == 0

    def test_capped_solve_ends_the_step(self, monkeypatch):
        # a capped solve certifies nothing: the KKT pass after it scores its
        # answer but adds no column, so each outer iteration runs one solve
        # and the fit is reported unconverged
        x, y = genotype_instance(120, 300, 1)
        calls = record_calls(monkeypatch, "solve_step_a")
        ds = fit(x, build_design(y), SolverConfig(
            penalty=PenaltyParams(lam=0.5), rho=2.0, inner_max_iter=1,
            outer_max_iter=3))
        assert not ds.inner_converged
        assert len(calls) == ds.outer_iters
        assert not any(c[3].converged for c in calls)

    @pytest.mark.parametrize("case", ["converged", "suppressor",
                                      "inner cap 2", "r=0.5"])
    def test_each_step_ends_on_one_pass(self, monkeypatch, case):
        # each step A opens with a KKT pass and ends on the pass after its
        # last solve, capped or not, and kkt_max_rel is read from that pass:
        # outer_iters + solves passes over every column in all. At r = 0, X
        # is read in full once for Z^T X and once by each pass but the
        # first, at B = 0, which reads Z^T X instead. At r > 0 W is every
        # column, so each step is a pass, one solve on X and a pass, and
        # each pass but the first reads X for X_W B_W and for the gradient
        from sparsesdr import optimal_scoring
        pen = PenaltyParams(lam=60.0)
        if case == "suppressor":
            (x, y), pen = suppressor_instance(), PenaltyParams(lam=40.0)
        elif case == "r=0.5":
            x, y = three_class_instance(10)
            pen = PenaltyParams(lam=0.5, delta=0.9, r=0.5)
        else:
            x, y = three_class_instance(3, n=300, p=40)
        n, p = x.raw.shape
        reads = []

        class WideReads(np.ndarray):
            # logs each product that reads every column of this n x p matrix
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    reads.extend(a.shape for a in inputs
                                 if isinstance(a, WideReads) and p in a.shape)
                inputs = [a.view(np.ndarray) if isinstance(a, WideReads)
                          else a for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        X = center(x)[0].view(WideReads)
        monkeypatch.setattr(optimal_scoring, "center", lambda m: (X, None))
        passes = []
        kkt_pass = optimal_scoring._WorkingSet.kkt_pass

        def counted(ws, *args):
            before = len(reads)
            out = kkt_pass(ws, *args)
            passes.append(reads[before:])
            del reads[before:]
            return out
        monkeypatch.setattr(optimal_scoring._WorkingSet, "kkt_pass", counted)
        solves = record_calls(monkeypatch, "solve_step_a")
        ds = fit(x, build_design(y), SolverConfig(
            d=1, penalty=pen, rho=2.0, outer_max_iter=3 if pen.r else 100,
            inner_max_iter=2 if case == "inner cap 2" else 1000))
        assert len(solves) > 1   # over many steps, or within one step
        assert len(passes) == ds.outer_iters + len(solves)
        assert passes[0] == []
        if case == "r=0.5":
            assert len(solves) == ds.outer_iters == 3
            assert all(c[1][0].shape[1] == p for c in solves)
            assert all(r == [(n, p), (p, n)] for r in passes[1:])
            assert ds.kkt_max_rel is None
            return
        assert ds.converged
        assert ds.inner_converged == (case != "inner cap 2")
        assert max(c[1][0].shape[1] for c in solves) < p
        assert all(r == [(p, n)] for r in passes[1:])
        assert reads == [(n, p)]   # Z^T X, read once for the whole fit

    def test_partition_fit_factors_narrow_grams(self, monkeypatch):
        # a sparse 400 x 500 partition fit (the README screen's first stage)
        # factors no Gram wider than 50 columns, where a full-column solve
        # factors a 400 x 400 one; X_W and its GramSolver are kept while W
        # is unchanged, so each factorization is of a larger W than the last
        x, y, _ = simulate(SyntheticSpec(
            n_samples=400, n_features=500, maf_range=(0.1, 0.4),
            support=[(j, 1.8) for j in range(10)], link="logistic", seed=3))
        calls = record_calls(monkeypatch, "GramSolver")
        ds = fit(x, build_design(y), SolverConfig(
            penalty=PenaltyParams(lam=70.0), rho=2.0))
        widths = [c[1][0].shape[1] for c in calls]
        assert ds.converged and ds.inner_converged
        assert 0 < max(widths) <= 50
        assert widths == sorted(set(widths))

    def test_r_positive_solves_on_every_column(self, monkeypatch):
        # no KKT pass and no column subset: one solve per outer iteration on
        # X itself, warm from the one before: the full-column path (d = 1 <
        # h - 1, so the outer loop runs to its cap)
        x, y = three_class_instance(10)
        calls = record_calls(monkeypatch, "solve_step_a", "GramSolver")
        ds = fit(x, build_design(y), SolverConfig(
            d=1, penalty=PenaltyParams(lam=0.5, delta=0.9, r=0.5), rho=2.0,
            outer_max_iter=4))
        gram, solves = calls[0], calls[1:]
        assert gram[0] == "GramSolver" and len(solves) == ds.outer_iters == 4
        X = gram[1][0]
        assert np.array_equal(X, center(x)[0])
        assert all(c[0] == "solve_step_a" and c[1][0] is X
                   and c[2]["gram"] is gram[3] for c in solves)
        warm = [c[2]["warm"] for c in solves]
        assert warm[0] is None
        assert all(w is c[3] for w, c in zip(warm[1:], solves))
        # the final rotation keeps B's row norms
        assert np.allclose(ds.row_norms(),
                           np.linalg.norm(solves[-1][3].B, axis=1),
                           rtol=1e-12, atol=1e-14)
        assert ds.kkt_max_rel is None
        assert ds.working_set_size == x.n_features

    @pytest.mark.parametrize("seed", range(4))
    def test_relaxed_fits_report_their_kkt_figure(self, monkeypatch, seed):
        # the full-rank working sets are solved at the held, over-relaxed
        # step rho* = 2 sqrt(s2_min s2_max), and kkt_max_rel is the KKT
        # violation over every column at the returned pair
        x, binary, slices = paired_column_instance(seed)
        calls = record_calls(monkeypatch, "solve_step_a")
        for y, d, lam, delta in [(binary, 1, 5.0, 1.0), (binary, 1, 20.0, 1.0),
                                 (binary, 1, 60.0, 0.8), (slices, 2, 30.0, 1.0),
                                 (slices, 2, 100.0, 1.0)]:
            del calls[:]
            design = build_design(y)
            pen = PenaltyParams(lam=lam, delta=delta)
            ds = fit(x, design, SolverConfig(d=d, penalty=pen, rho=2.0))
            assert ds.converged and ds.inner_converged
            s2 = np.linalg.svd(calls[-1][1][0], compute_uv=False) ** 2
            assert calls[-1][3].rho == pytest.approx(
                2 * np.sqrt(s2.min() * s2.max()), rel=1e-10)
            X, _ = center(x)
            G = 2 * X.T @ (design.Z @ ds.Theta - X @ ds.B)
            want = np.max(kkt_violations(G, ds.B, pen))
            assert 0 < want and abs(ds.kkt_max_rel - want) <= 1e-8 * want

    def test_inner_iters_sums_every_solve(self, monkeypatch):
        x, y = three_class_instance(3, n=300, p=40)
        calls = record_calls(monkeypatch, "solve_step_a")
        ds = fit(x, build_design(y), SolverConfig(
            d=1, penalty=PenaltyParams(lam=60.0), rho=2.0,
            outer_max_iter=4, inner_max_iter=200))
        assert len(calls) > 1
        assert ds.inner_iters == sum(c[3].n_iter for c in calls)
