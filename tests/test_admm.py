from dataclasses import replace

import numpy as np
import pytest

from sparsesdr.admm import (_RELAX, GramSolver, PenaltyParams, shrink_rows,
                            solve_step_a, step_a_objective)
from sparsesdr.errors import ValidationError


def random_problem(seed, n, p, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    Ztheta = rng.standard_normal((n, d))
    return X, Ztheta


class TestPenaltyParams:
    def test_valid(self):
        PenaltyParams(lam=1.0, delta=0.5, r=0.3)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1), dict(delta=1.5), dict(delta=-0.1),
        dict(r=1.0), dict(r=-0.2),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            PenaltyParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=float("nan")), dict(lam=float("inf")),
    ])
    def test_non_finite_refused(self, kwargs):
        with pytest.raises(ValidationError, match="must be finite"):
            PenaltyParams(**kwargs)


class TestGroupShrink:
    def test_zero_vector_stays_zero(self):
        params = PenaltyParams(lam=1.0, delta=1.0, r=0.0)
        assert np.all(shrink_rows(np.zeros((1, 3)), params, 2.0) == 0)

    def test_soft_threshold_example(self):
        # r=0, delta=1: plain group soft-threshold with T = lam/rho = 0.5,
        # so a row of norm 2 contracts by the factor (2 - 0.5)/2 = 0.75
        params = PenaltyParams(lam=1.0, delta=1.0, r=0.0)
        v = np.array([1.2, -1.6])  # norm 2
        assert np.allclose(shrink_rows(v[None, :], params, 2.0)[0],
                           0.75 * v, atol=1e-12)

    def test_below_threshold_zeroed(self):
        params = PenaltyParams(lam=1.0, delta=1.0, r=0.0)
        v = np.array([0.24, 0.32])  # norm 0.4 < T = 0.5
        assert np.all(shrink_rows(v[None, :], params, 2.0)[0] == 0)

    def test_output_collinear_and_contractive(self):
        rng = np.random.default_rng(0)
        params = PenaltyParams(lam=0.3, delta=0.7, r=0.4)
        for _ in range(20):
            v = rng.standard_normal(4) * rng.uniform(0.1, 5)
            g = shrink_rows(v[None, :], params, 3.0)[0]
            gn, vn = np.linalg.norm(g), np.linalg.norm(v)
            assert gn <= vn + 1e-12
            if gn > 0:
                cos = float(g @ v) / (gn * vn)
                assert cos > 1 - 1e-12

    def test_monotone_in_lambda(self):
        v = np.array([2.0, 1.0, -1.0])
        prev = np.linalg.norm(v)
        for lam in [0.0, 0.5, 1.0, 2.0, 4.0]:
            params = PenaltyParams(lam=lam, delta=0.8, r=0.2)
            cur = np.linalg.norm(shrink_rows(v[None, :], params, 2.0)[0])
            assert cur <= prev + 1e-12
            prev = cur

    def test_rowwise_matches_vector_version(self):
        # each row is shrunk on its own: the matrix call equals the
        # one-row calls stacked
        rng = np.random.default_rng(2)
        V = rng.standard_normal((6, 3))
        params = PenaltyParams(lam=0.4, delta=0.9, r=0.1)
        rows = np.stack([shrink_rows(V[i:i + 1], params, 1.5)[0]
                         for i in range(6)])
        assert np.allclose(shrink_rows(V, params, 1.5), rows, atol=1e-14)


class TestBetaUpdate:
    def test_zero_design_returns_alpha_minus_u(self):
        X = np.zeros((4, 3))
        gram = GramSolver(X)
        alpha = np.ones((3, 2))
        u = 0.25 * np.ones((3, 2))
        out = gram.solve(alpha - u, 1.0)   # rho = 2, X^T Z Theta = 0
        assert np.allclose(out, alpha - u, atol=1e-12)

    def test_huge_rho_pins_to_alpha_minus_u(self):
        X, Ztheta = random_problem(1, 20, 5, 2)
        gram = GramSolver(X)
        rng = np.random.default_rng(3)
        alpha = rng.standard_normal((5, 2))
        u = rng.standard_normal((5, 2))
        out = gram.solve(X.T @ Ztheta + 0.5e12 * (alpha - u), 0.5e12)
        assert np.max(np.abs(out - (alpha - u))) < 1e-4

    def test_matches_dense_solve(self):
        X, Ztheta = random_problem(4, 15, 6, 2)
        rho = 1.7
        gram = GramSolver(X)
        rng = np.random.default_rng(5)
        alpha = rng.standard_normal((6, 2))
        u = rng.standard_normal((6, 2))
        rhs = X.T @ Ztheta + (rho / 2) * (alpha - u)
        expected = np.linalg.solve(X.T @ X + (rho / 2) * np.eye(6), rhs)
        assert np.allclose(gram.solve(rhs, rho / 2), expected, atol=1e-8)

    @pytest.mark.parametrize("shape", ["wide", "tall", "rank_deficient"])
    def test_gram_solve_matches_dense_solve(self, shape):
        # one factorization serves every shift c, a repeated one included
        rng = np.random.default_rng(6)
        if shape == "wide":
            X = rng.standard_normal((10, 40))
        elif shape == "tall":
            X = rng.standard_normal((40, 10))
        else:
            X = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 12))
        X -= X.mean(axis=0)
        p = X.shape[1]
        gram = GramSolver(X)
        rhs = rng.standard_normal((p, 3))
        for c in (1e-3, 0.5, 0.5, 1.0, 7.0, 1e4, 1e-3):
            expected = np.linalg.solve(X.T @ X + c * np.eye(p), rhs)
            err = np.max(np.abs(gram.solve(rhs, c) - expected))
            assert err <= 1e-9 * np.max(np.abs(expected))


class TestSolveStepA:
    def test_unpenalized_matches_least_squares(self):
        X, Ztheta = random_problem(10, 40, 8, 2)
        params = PenaltyParams(lam=0.0)
        res = solve_step_a(X, Ztheta, params, 2.0, tol=1e-9, max_iter=5000)
        assert res.converged
        ls, *_ = np.linalg.lstsq(X, Ztheta, rcond=None)
        assert np.max(np.abs(res.B - ls)) < 1e-6

    def test_huge_lambda_gives_zero(self):
        X, Ztheta = random_problem(11, 30, 10, 2)
        params = PenaltyParams(lam=1e9, delta=1.0)
        res = solve_step_a(X, Ztheta, params, 2.0)
        assert res.converged
        assert np.all(res.B == 0)

    def test_row_sparsity_is_all_or_nothing(self):
        X, Ztheta = random_problem(12, 50, 20, 3)
        params = PenaltyParams(lam=5.0, delta=1.0)
        res = solve_step_a(X, Ztheta, params, 2.0, tol=1e-8, max_iter=5000)
        norms = np.linalg.norm(res.B, axis=1)
        for l in range(20):
            if norms[l] <= 1e-14:
                assert np.all(res.B[l] == 0)
            else:
                # active rows have every coordinate determined jointly;
                # no coordinate was zeroed independently of its row
                assert np.all(np.abs(res.B[l]) > 0) or norms[l] > 1e-14

    def test_score_column_permutation_equivariance(self):
        X, Ztheta = random_problem(13, 40, 12, 3)
        params = PenaltyParams(lam=2.0, delta=0.8, r=0.2)
        a = solve_step_a(X, Ztheta, params, 2.0, tol=1e-10, max_iter=5000)
        b = solve_step_a(X, Ztheta[:, [2, 0, 1]], params, 2.0, tol=1e-10,
                         max_iter=5000)
        assert np.max(np.abs(a.B[:, [2, 0, 1]] - b.B)) <= 1e-8

    def test_primal_residual_small_at_convergence(self):
        X, Ztheta = random_problem(14, 30, 15, 2)
        params = PenaltyParams(lam=1.0, delta=1.0)
        res = solve_step_a(X, Ztheta, params, 2.0, tol=1e-8, max_iter=5000)
        assert res.converged
        assert res.primal_residual <= 1e-7

    def test_objective_not_worse_than_start(self):
        X, Ztheta = random_problem(15, 40, 10, 2)
        params = PenaltyParams(lam=1.5, delta=1.0)
        res = solve_step_a(X, Ztheta, params, 2.0, tol=1e-9, max_iter=5000)
        start = step_a_objective(np.zeros_like(Ztheta), Ztheta,
                                 np.zeros((10, 2)), params)
        end = step_a_objective(X @ res.B, Ztheta, res.B, params)
        assert end <= start + 1e-9

    def test_matches_proximal_gradient_oracle(self):
        # independent first-order method on the same convex (r=0) objective
        X, Ztheta = random_problem(16, 30, 12, 2)
        lam = 0.8
        params = PenaltyParams(lam=lam, delta=1.0, r=0.0)
        res = solve_step_a(X, Ztheta, params, 2.0, tol=1e-10, max_iter=10000)
        s2 = GramSolver(X).s2   # full rank: the held, relaxed step
        assert res.rho == 2 * np.sqrt(s2[0] * s2[-1])

        L = 2 * np.linalg.eigvalsh(X.T @ X).max()
        B = np.zeros((12, 2))
        for _ in range(20000):
            grad = 2 * X.T @ (X @ B - Ztheta)
            V = B - grad / L
            norms = np.linalg.norm(V, axis=1)
            scale = np.maximum(0, 1 - (lam / L) / np.maximum(norms, 1e-300))
            B = V * scale[:, None]
        gap = (step_a_objective(X @ res.B, Ztheta, res.B, params)
               - step_a_objective(X @ B, Ztheta, B, params))
        assert abs(gap) < 1e-6
        assert np.max(np.abs(res.B - B)) < 1e-4

    def test_bad_max_iter(self):
        X, Ztheta = random_problem(17, 10, 4, 1)
        with pytest.raises(ValidationError):
            solve_step_a(X, Ztheta, PenaltyParams(), 1.0, max_iter=0)


class TestStepAOptimality:
    """Convex case r = 0: the answer satisfies the subgradient conditions of
    the objective, whatever rho the solve starts from."""

    PROBLEMS = [(21, 30, 60, 2, 6.0, 1.0), (22, 50, 20, 3, 5.0, 0.8),
                (23, 40, 200, 1, 8.0, 1.0)]

    @pytest.mark.parametrize("seed, n, p, d, lam, delta", PROBLEMS)
    def test_kkt_conditions(self, seed, n, p, d, lam, delta):
        X, Ztheta = random_problem(seed, n, p, d)
        params = PenaltyParams(lam=lam, delta=delta, r=0.0)
        res = solve_step_a(X, Ztheta, params, 2.0, tol=1e-10, max_iter=5000)
        assert res.converged
        B = res.B
        grad = 2 * X.T @ (Ztheta - X @ B)     # minus the smooth gradient
        norms = np.linalg.norm(B, axis=1)
        zero = norms == 0
        # zero rows: the smooth gradient lies in the ball of radius lam*delta
        assert np.all(np.linalg.norm(grad[zero], axis=1)
                      <= lam * delta * (1 + 1e-6))
        # nonzero rows: stationarity of the differentiable objective
        nz = ~zero
        stat = (-grad[nz] + 2 * lam * (1 - delta) * B[nz]
                + lam * delta * B[nz] / norms[nz, None])
        assert np.max(np.abs(stat)) <= 1e-6 * lam

    @pytest.mark.parametrize("seed, n, p, d, lam, delta", PROBLEMS)
    def test_starting_rho_does_not_change_answer(self, seed, n, p, d, lam,
                                                 delta):
        X, Ztheta = random_problem(seed, n, p, d)
        answers = []
        params = PenaltyParams(lam=lam, delta=delta, r=0.0)
        for rho in (0.02, 2.0, 200.0):
            res = solve_step_a(X, Ztheta, params, rho, tol=1e-10,
                               max_iter=5000)
            assert res.converged
            answers.append(res.B)
        for other in answers[1:]:
            assert np.max(np.abs(other - answers[0])) <= 1e-7
            assert np.array_equal(np.linalg.norm(other, axis=1) == 0,
                                  np.linalg.norm(answers[0], axis=1) == 0)

    @pytest.mark.parametrize("r", [0.0, 0.3])
    def test_warm_restart_from_converged_result(self, r):
        X, Ztheta = random_problem(24, 40, 80, 2)
        params = PenaltyParams(lam=4.0, delta=0.8, r=r)
        first = solve_step_a(X, Ztheta, params, 2.0, tol=1e-8, max_iter=5000)
        assert first.converged and first.n_iter > 1
        again = solve_step_a(X, Ztheta, params, 2.0, tol=1e-8, max_iter=5000,
                             warm=first)
        assert again.converged and again.n_iter == 1
        assert again.rho == first.rho
        assert np.max(np.abs(again.B - first.B)) <= 1e-6


class TestStepRule:
    """At r = 0 on a well-conditioned full-column-rank X the step is held
    at rho* = 2 sqrt(s2_min s2_max) and over-relaxed; a singular or
    ill-conditioned X and r > 0 start at the given rho."""

    PARAMS = PenaltyParams(lam=5.0, delta=0.8)

    def test_full_rank_answer_ignores_rho(self):
        X, Ztheta = random_problem(22, 50, 20, 3)
        gram = GramSolver(X)
        a, b = (solve_step_a(X, Ztheta, self.PARAMS, rho, tol=1e-8,
                             max_iter=5000) for rho in (0.5, 8.0))
        assert a.converged
        assert a.rho == b.rho == 2 * np.sqrt(gram.s2[0] * gram.s2[-1])
        assert a.n_iter == b.n_iter
        assert np.array_equal(a.B, b.B)

    @pytest.mark.parametrize("case", ["singular", "ill-conditioned", "r>0"])
    def test_rho_starts_other_solves(self, case):
        # |W| > n leaves X^T X singular; a near copy of a column leaves it
        # of full rank with condition number above 1e4; at r > 0 the shrink
        # is approximate
        X, Ztheta = random_problem(23, 40, 80, 2) if case == "singular" \
            else random_problem(22, 50, 20, 3)
        if case == "ill-conditioned":
            X[:, 1] = X[:, 0] + 1e-3 * X[:, 1]
            s2 = GramSolver(X).s2
            assert len(s2) == 20 and s2[-1] > 1e4 * s2[0]
        params = replace(self.PARAMS, r=0.3 if case == "r>0" else 0.0)
        a, b = (solve_step_a(X, Ztheta, params, rho, tol=1e-8, max_iter=1000)
                for rho in (0.5, 8.0))
        s2 = GramSolver(X).s2
        assert 2 * np.sqrt(s2[0] * s2[-1]) not in (a.rho, b.rho)
        assert a.n_iter != b.n_iter

    def test_resumed_after_the_columns_grow(self):
        # a warm answer on 12 of the 20 columns, zero-padded as a KKT pass
        # pads it, resumes at the wider X's rho* to the cold answer
        X, Ztheta = random_problem(22, 50, 20, 3)
        tol = 1e-8
        first = solve_step_a(X[:, :12], Ztheta, self.PARAMS, 2.0, tol=tol,
                             max_iter=5000)
        B, u = np.zeros((20, 3)), np.zeros((20, 3))
        B[:12], u[:12] = first.B, first.u
        res = solve_step_a(X, Ztheta, self.PARAMS, 2.0, tol=tol,
                           max_iter=5000, warm=replace(first, B=B, u=u))
        cold = solve_step_a(X, Ztheta, self.PARAMS, 2.0, tol=tol,
                            max_iter=5000)
        assert res.converged and res.rho == cold.rho != first.rho
        assert np.max(np.abs(res.B - cold.B)) <= tol * np.max(np.abs(cold.B))

    def test_warm_dual_rescaled_to_the_new_rho(self):
        # the same dual rho * u, stored at another rho, still resumes a
        # converged answer in one iteration
        X, Ztheta = random_problem(22, 50, 20, 3)
        done = solve_step_a(X, Ztheta, self.PARAMS, 2.0, tol=1e-8,
                            max_iter=5000)
        warm = replace(done, rho=4 * done.rho, u=done.u / 4)
        again = solve_step_a(X, Ztheta, self.PARAMS, 2.0, tol=1e-8,
                             max_iter=5000, warm=warm)
        assert again.converged and again.n_iter == 1

    @pytest.mark.parametrize("seed", [22, 25])
    def test_relaxed_step_gradient_identity(self, seed):
        # one relaxed step from (alpha_prev, u_prev), at the held step rho*
        # and a = _RELAX: the gradient at its answer differs from rho u by
        # rho (alpha - alpha_prev) + rho (1 - a)(B - alpha_prev)
        # + 2 X^T X (B - alpha)
        X, Ztheta = random_problem(seed, 50, 20, 3)
        gram = GramSolver(X)
        prev = solve_step_a(X, Ztheta, self.PARAMS, 2.0, max_iter=3,
                            gram=gram)
        res = solve_step_a(X, Ztheta, self.PARAMS, 2.0, max_iter=1,
                           gram=gram, warm=prev)
        rho, a = res.rho, _RELAX
        B = np.linalg.solve(X.T @ X + rho / 2 * np.eye(20),
                            X.T @ Ztheta + rho / 2 * (prev.B - prev.u))
        lhs = 2 * X.T @ (Ztheta - X @ res.B) - rho * res.u
        rhs = (rho * (res.B - prev.B) + rho * (1 - a) * (B - prev.B)
               + 2 * X.T @ X @ (B - res.B))
        assert rho == 2 * np.sqrt(gram.s2[0] * gram.s2[-1])
        assert not res.converged
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(lhs))
        assert np.isclose(res.primal_residual, np.linalg.norm(B - res.B))
