"""The sliced-inverse-regression reference (sir_oracle) that the fit's
unpenalized answers are compared against: its slice-mean covariance, its
estimator properties, and the block eigen-extension that split-and-conquer
screening rests on."""

import numpy as np
import pytest
import scipy.linalg

from sparsesdr.dataset import (PredictorMatrix, Phenotype, SyntheticSpec,
                               center, make_phenotype, simulate)
from sparsesdr.optimal_scoring import column_signs
from sparsesdr.scoring import build_design
from sir_oracle import (block_residual, generalized_eigen, principal_angle,
                        sir_eigen, slice_mean_cov)


def matrix(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return PredictorMatrix(values, [f"f{j}" for j in range(p)],
                           [f"s{i}" for i in range(n)])


def gaussian_instance(seed, n, p, rule):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    labels = rule(X)
    x = matrix(X)
    y = make_phenotype(labels)
    return x, y


def sir(x, design):
    return sir_eigen(center(x)[0], design.slice_assignments)


def sample_cov(x):
    X, _ = center(x)
    return X.T @ X / x.n_samples


def sample_slice_cov(x, design):
    return slice_mean_cov(center(x)[0], design.slice_assignments)


class TestSliceMeanCov:
    def test_equal_slice_means_give_zero(self):
        # two slices with identical (zero) within-slice means
        X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        x = matrix(X)
        y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
        M = sample_slice_cov(x, build_design(y, 2))
        assert np.allclose(M, 0)

    def test_hand_computed_scalar(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        x = matrix(X)
        y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
        M = sample_slice_cov(x, build_design(y, 2))
        assert np.allclose(M, [[1.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3))
        labels = rng.integers(0, 3, size=20)
        x = matrix(X)
        y = Phenotype(labels, "categorical")
        design = build_design(y, 3)
        M = sample_slice_cov(x, design)
        brute = np.zeros((3, 3))
        for s in range(3):
            rows = center(x)[0][design.slice_assignments == s]
            brute += (len(rows) / 20) * np.outer(rows.mean(0), rows.mean(0))
        assert np.allclose(M, brute, atol=1e-12)

    def test_psd_on_random_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 4))
            y = make_phenotype(rng.integers(0, 3, size=40))
            M = sample_slice_cov(matrix(X), build_design(y, 3))
            assert np.linalg.eigvalsh(M).min() >= -1e-8


class TestSirEigen:
    def test_independent_response_small_eigenvalues(self):
        x, y = gaussian_instance(0, 5000, 5,
                                 lambda X: np.random.default_rng(1)
                                 .integers(0, 2, size=len(X)))
        vals, _ = sir(x, build_design(y, 2))
        assert vals.max() < 0.01

    def test_recovers_first_axis(self):
        x, y = gaussian_instance(2, 5000, 5, lambda X: (X[:, 0] > 0).astype(int))
        _, vecs = sir(x, build_design(y, 2))
        e1 = np.zeros((5, 1))
        e1[0, 0] = 1
        assert principal_angle(vecs[:, :1], e1) < 0.1

    def test_scalar_case(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        x = matrix(X)
        y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
        design = build_design(y, 2)
        vals, _ = sir(x, design)
        M = sample_slice_cov(x, design)[0, 0]
        sigma = sample_cov(x).item()
        assert np.isclose(vals[0], M / sigma)

    def test_singular_covariance_error(self):
        X = np.column_stack([np.arange(6.0), 2 * np.arange(6.0)])
        x = matrix(X)
        y = Phenotype(np.array([0, 0, 0, 1, 1, 1]), "binary", [0, 1])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            sir(x, build_design(y, 2))

    def test_eigenvalues_within_unit_interval(self):
        for seed in range(5):
            x, y = gaussian_instance(seed, 300, 4,
                                     lambda X: (X[:, 0] + X[:, 1] > 0)
                                     .astype(int))
            vals, _ = sir(x, build_design(y, 2))
            assert vals.max() <= 1 + 1e-8
            assert vals.min() >= -1e-8

    def test_sigma_orthonormal_vectors(self):
        x, y = gaussian_instance(3, 400, 4,
                                 lambda X: (X[:, 0] > 0).astype(int))
        _, vecs = sir(x, build_design(y, 2))
        gram = vecs.T @ sample_cov(x) @ vecs
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_affine_invariance_of_subspace(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((500, 3))
        labels = (X[:, 0] - X[:, 2] > 0).astype(int)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        x1 = matrix(X)
        x2 = matrix(X @ A)
        y = make_phenotype(labels)
        design = build_design(y, 2)
        b1 = sir(x1, design)[1][:, :1]
        b2 = sir(x2, design)[1][:, :1]
        assert principal_angle(A @ b2, b1) < 1e-6


def whitening_eigen(M, sigma):
    """Reference: Cholesky-whiten sigma, solve the standard symmetric
    problem, map the eigenvectors back, sort descending."""
    L = np.linalg.cholesky(sigma)
    Linv_M = scipy.linalg.solve_triangular(L, M, lower=True)
    W = scipy.linalg.solve_triangular(L, Linv_M.T, lower=True).T
    W = (W + W.T) / 2
    vals, vecs = np.linalg.eigh(W)
    order = np.argsort(vals)[::-1]
    vecs = scipy.linalg.solve_triangular(L.T, vecs[:, order], lower=False)
    return vals[order], vecs


class TestGeneralizedEigen:
    @pytest.mark.parametrize("seed,p", [(0, 3), (1, 6), (2, 12), (3, 20)])
    def test_matches_cholesky_whitening(self, seed, p):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4 * p, p))
        sigma = A.T @ A / (4 * p)
        B = rng.standard_normal((p, p))
        M = B @ B.T / p
        ref_vals, ref_vecs = whitening_eigen(M, sigma)
        vals, vecs = generalized_eigen(M, sigma)
        ref_vecs = ref_vecs * column_signs(ref_vecs)
        vecs = vecs * column_signs(vecs)
        # float64 backward-error scale; eigenvectors also scale with the
        # conditioning of sigma over the smallest eigenvalue gap
        tol = 100 * p * np.finfo(float).eps * np.abs(ref_vals).max()
        gap = np.abs(np.diff(ref_vals)).min()
        assert np.all(np.diff(vals) <= 0)
        assert np.max(np.abs(vals - ref_vals)) < tol
        assert np.max(np.abs(vecs - ref_vecs)) < tol * np.linalg.cond(sigma) / gap
        assert np.allclose(vecs.T @ sigma @ vecs, np.eye(p),
                           rtol=0, atol=100 * p * np.finfo(float).eps)


class TestBlockExtension:
    def test_population_exact_toy(self):
        mu = np.array([1.0, 0.5])
        within = np.array([[1.0, 0.3], [0.3, 0.8]])
        other = np.array([[1.2, -0.2], [-0.2, 0.9]])
        M = np.zeros((4, 4))
        M[:2, :2] = np.outer(mu, mu)
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = within + np.outer(mu, mu)
        sigma[2:, 2:] = other
        assert block_residual(M, sigma, [0, 1]) < 1e-10

    def test_sampled_instance(self):
        spec = SyntheticSpec(n_samples=5000, n_features=6,
                             maf_range=(0.2, 0.4),
                             support=[(0, 2.0), (1, 1.5)], link="logistic",
                             seed=17)
        x, y, _ = simulate(spec)
        design = build_design(y)
        sigma = sample_cov(x)
        M = sample_slice_cov(x, design)
        resid = block_residual(M, sigma, [0, 1, 2])
        # scale reference: lambda * ||sigma beta|| for the block eigenpair
        vals, vecs = generalized_eigen(M[:3, :3], sigma[:3, :3])
        beta = np.zeros(6)
        beta[:3] = vecs[:, 0]
        scale = vals[0] * np.linalg.norm(sigma @ beta)
        assert resid < 0.05 * scale

    def test_whole_block_matches_full_problem(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 4))
        labels = (X[:, 0] > 0).astype(int)
        x = matrix(X)
        y = make_phenotype(labels)
        design = build_design(y, 2)
        M = sample_slice_cov(x, design)
        assert block_residual(M, sample_cov(x), list(range(4))) < 1e-8
