import numpy as np
import pytest
import scipy.linalg

from sparsesdr.admm import PenaltyParams
from sparsesdr.dataset import (PredictorMatrix, SyntheticSpec, center,
                               make_phenotype, simulate)
from sparsesdr.errors import NumericError, ValidationError
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


class TestInitTheta:
    def test_invariants_hold(self):
        _, y = three_class_instance()
        design = build_design(y)
        for seed in range(5):
            Theta, Q = init_theta(design, 2, seed)
            check_theta_invariants(Theta, design.D, Q[:, 0])
            assert Q.shape == (design.h, 3)
            assert Q[0, 0] == 1 and np.all(Q[1:, 0] == 0)

    def test_d_too_large(self):
        _, y = three_class_instance()
        design = build_design(y)
        with pytest.raises(ValidationError):
            init_theta(design, design.h)

    def test_deterministic_per_seed(self):
        _, y = three_class_instance()
        design = build_design(y)
        a, _ = init_theta(design, 2, 7)
        b, _ = init_theta(design, 2, 7)
        c, _ = init_theta(design, 2, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestThetaStep:
    def setup_problem(self, seed=0):
        x, y = three_class_instance(seed)
        design = build_design(y)
        xtz = x.values.T @ design.Z
        q1 = np.zeros((design.h, 1))
        q1[0, 0] = 1.0
        return x, design, xtz, q1

    def test_output_invariants(self):
        x, design, xtz, q1 = self.setup_problem()
        beta = np.random.default_rng(1).standard_normal(x.n_features)
        theta = theta_step(xtz, design.D, beta, q1)
        check_theta_invariants(theta[:, None], design.D, q1[:, 0])
        assert theta @ (xtz.T @ beta) >= 0

    def test_scale_invariance_in_beta(self):
        x, design, xtz, q1 = self.setup_problem()
        beta = np.random.default_rng(2).standard_normal(x.n_features)
        t1 = theta_step(xtz, design.D, beta, q1)
        t2 = theta_step(xtz, design.D, 10.0 * beta, q1)
        assert np.allclose(t1, t2, atol=1e-9)

    def test_zero_beta_degenerate(self):
        x, design, xtz, q1 = self.setup_problem()
        with pytest.raises(NumericError, match="degenerate"):
            theta_step(xtz, design.D, np.zeros(x.n_features), q1)

    def test_matches_constrained_maximizer_oracle(self):
        # theta maximizes theta^T v over D-unit vectors D-orthogonal to Q.
        # Oracle: write theta = N a with N a basis of null(Q^T D); then
        # a is proportional to (N^T D N)^-1 N^T v.
        rng = np.random.default_rng(11)
        for K in range(2, 7):
            labels = rng.integers(0, K, size=60)
            labels[:K] = np.arange(K)
            design = build_design(make_phenotype(labels, "categorical"))
            D = design.D
            for i in range(K - 1):
                _, Q = init_theta(design, i, seed=K)  # 1 + i columns
                xtz = rng.standard_normal((8, K))
                beta = rng.standard_normal(8)
                v = xtz.T @ beta
                N = scipy.linalg.null_space(Q.T @ D)
                oracle = N @ np.linalg.solve(N.T @ D @ N, N.T @ v)
                oracle /= np.sqrt(oracle @ D @ oracle)
                theta = theta_step(xtz, D, beta, Q)
                assert np.max(np.abs(theta - oracle)) < 1e-10
                assert theta @ v > 0


class TestFit:
    def test_unpenalized_matches_eigen_solution(self):
        # with no penalty the alternating solver and the generalized
        # eigenproblem span the same subspace
        x, y = three_class_instance(5, n=400, p=5)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.0, rho=2.0),
                           outer_tol=1e-8, outer_max_iter=300,
                           inner_tol=1e-9, inner_max_iter=5000, seed=0)
        ds = fit(x, design, cfg)
        assert ds.converged
        eig = sir_eigen(x, design, 2)
        assert principal_angle(ds.B, eig.basis) < 1e-3

    def test_huge_lambda_zero_solution(self):
        x, y = three_class_instance(6)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=1e9, delta=1.0,
                                                      rho=2.0))
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
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=50.0, delta=1.0,
                                                      rho=2.0),
                           outer_max_iter=50, seed=0)
        ds = fit(xc, design, cfg)
        selected = set(np.flatnonzero(ds.row_norms() > 1e-10))
        assert len(selected & truth) >= 8
        assert len(selected - truth) <= 5

    def test_objective_history_descends(self):
        x, y = three_class_instance(7)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.5, delta=1.0,
                                                      rho=2.0),
                           inner_tol=1e-8, inner_max_iter=5000,
                           outer_tol=1e-7, outer_max_iter=200)
        ds = fit(x, design, cfg)
        h = ds.objective_history
        for a, b in zip(h, h[1:]):
            assert b <= a + 10 * cfg.inner_tol

    def test_binary_second_step_a_resumes_at_its_answer(self, monkeypatch):
        # with two classes the score cannot move, so the warm-started second
        # ADMM call starts at its own converged answer
        from sparsesdr import optimal_scoring
        solve = optimal_scoring.solve_step_a
        calls = []

        def recording(*args, **kwargs):
            calls.append(solve(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(optimal_scoring, "solve_step_a", recording)
        x, y, _ = simulate(SyntheticSpec(
            n_samples=200, n_features=60, maf_range=(0.1, 0.4),
            support=[(j, 1.5) for j in range(5)], link="logistic", seed=4))
        cfg = SolverConfig(d=1, penalty=PenaltyParams(lam=20.0, rho=2.0))
        ds = fit(center(x), build_design(y), cfg)
        assert ds.converged and ds.inner_converged and ds.outer_iters == 2
        assert calls[0].n_iter > 1 and calls[1].n_iter == 1

    def test_sign_canonicalization(self):
        x, y = three_class_instance(8)
        design = build_design(y)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.2, rho=2.0))
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
                                                          r=0.1, rho=2.0))
            ds = fit(x, design, cfg)
            check_theta_invariants(ds.Theta, design.D, ds.Q[:, 0])
