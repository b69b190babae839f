import numpy as np
import pytest
import scipy.linalg

from sparsesdr.dataset import (PredictorMatrix, Phenotype, SyntheticSpec,
                               center, make_phenotype, simulate)
from sparsesdr.errors import NumericError, ValidationError
from sparsesdr.scoring import build_design
from sparsesdr.sir import (block_extension_check, block_residual,
                           column_signs, generalized_eigen, principal_angle,
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
    x = center(matrix(X))
    y = make_phenotype(labels)
    return x, y


class TestSliceMeanCov:
    def test_equal_slice_means_give_zero(self):
        # two slices with identical (zero) within-slice means
        X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        x = center(matrix(X))
        y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
        design = build_design(y, 2)
        M = slice_mean_cov(x, design)
        assert np.allclose(M, 0)

    def test_hand_computed_scalar(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        x = center(matrix(X))
        y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
        M = slice_mean_cov(x, build_design(y, 2))
        assert np.allclose(M, [[1.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3))
        labels = rng.integers(0, 3, size=20)
        x = center(matrix(X))
        y = Phenotype(labels, "categorical")
        design = build_design(y, 3)
        M = slice_mean_cov(x, design)
        brute = np.zeros((3, 3))
        for s in range(3):
            rows = x.values[design.slice_assignments == s]
            brute += (len(rows) / 20) * np.outer(rows.mean(0), rows.mean(0))
        assert np.allclose(M, brute, atol=1e-12)

    def test_psd_on_random_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 4))
            y = make_phenotype(rng.integers(0, 3, size=40))
            M = slice_mean_cov(center(matrix(X)), build_design(y, 3))
            assert np.linalg.eigvalsh(M).min() >= -1e-8


class TestSirEigen:
    def test_independent_response_small_eigenvalues(self):
        x, y = gaussian_instance(0, 5000, 5,
                                 lambda X: np.random.default_rng(1)
                                 .integers(0, 2, size=len(X)))
        ev = sir_eigen(x, build_design(y, 2), 1).eigenvalues
        assert ev.max() < 0.01

    def test_recovers_first_axis(self):
        x, y = gaussian_instance(2, 5000, 5, lambda X: (X[:, 0] > 0).astype(int))
        basis = sir_eigen(x, build_design(y, 2), 1).basis
        e1 = np.zeros((5, 1))
        e1[0, 0] = 1
        assert principal_angle(basis, e1) < 0.1

    def test_scalar_case(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        x = center(matrix(X))
        y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
        design = build_design(y, 2)
        eb = sir_eigen(x, design, 1)
        M = slice_mean_cov(x, design)[0, 0]
        sigma = (x.values.T @ x.values / 4).item()
        assert np.isclose(eb.eigenvalues[0], M / sigma)

    def test_singular_covariance_error(self):
        X = np.column_stack([np.arange(6.0), 2 * np.arange(6.0)])
        x = center(matrix(X))
        y = Phenotype(np.array([0, 0, 0, 1, 1, 1]), "binary", [0, 1])
        with pytest.raises(NumericError, match="singular"):
            sir_eigen(x, build_design(y, 2), 1)

    def test_eigenvalues_within_unit_interval(self):
        for seed in range(5):
            x, y = gaussian_instance(seed, 300, 4,
                                     lambda X: (X[:, 0] + X[:, 1] > 0)
                                     .astype(int))
            ev = sir_eigen(x, build_design(y, 2), 1).eigenvalues
            assert ev.max() <= 1 + 1e-8
            assert ev.min() >= -1e-8

    def test_sigma_orthonormal_vectors(self):
        x, y = gaussian_instance(3, 400, 4,
                                 lambda X: (X[:, 0] > 0).astype(int))
        eb = sir_eigen(x, build_design(y, 2), 2)
        sigma = x.values.T @ x.values / 400
        gram = eb.vectors.T @ sigma @ eb.vectors
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_affine_invariance_of_subspace(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((500, 3))
        labels = (X[:, 0] - X[:, 2] > 0).astype(int)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        x1 = center(matrix(X))
        x2 = center(matrix(X @ A))
        y = make_phenotype(labels)
        design = build_design(y, 2)
        b1 = sir_eigen(x1, design, 1).basis
        b2 = sir_eigen(x2, design, 1).basis
        assert principal_angle(A @ b2, b1) < 1e-6


def whitening_eigen(M, sigma):
    """Reference: Cholesky-whiten sigma, solve the standard symmetric
    problem, map the eigenvectors back, sort descending, fix signs."""
    L = np.linalg.cholesky(sigma)
    Linv_M = scipy.linalg.solve_triangular(L, M, lower=True)
    W = scipy.linalg.solve_triangular(L, Linv_M.T, lower=True).T
    W = (W + W.T) / 2
    vals, vecs = np.linalg.eigh(W)
    order = np.argsort(vals)[::-1]
    vecs = scipy.linalg.solve_triangular(L.T, vecs[:, order], lower=False)
    return vals[order], vecs * column_signs(vecs)


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
        # float64 backward-error scale; eigenvectors also scale with the
        # conditioning of sigma over the smallest eigenvalue gap
        tol = 100 * p * np.finfo(float).eps * np.abs(ref_vals).max()
        gap = np.abs(np.diff(ref_vals)).min()
        assert np.all(np.diff(vals) <= 0)
        assert np.max(np.abs(vals - ref_vals)) < tol
        assert np.max(np.abs(vecs - ref_vecs)) < tol * np.linalg.cond(sigma) / gap
        assert np.allclose(vecs.T @ sigma @ vecs, np.eye(p),
                           rtol=0, atol=100 * p * np.finfo(float).eps)


    @pytest.mark.parametrize("seed,p", [(4, 5), (5, 15)])
    def test_matches_scipy_generalized_eigh(self, seed, p):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3 * p, p))
        sigma = A.T @ A / (3 * p)
        B = rng.standard_normal((p, p))
        M = B @ B.T / p
        ref_vals, ref_vecs = scipy.linalg.eigh(M, sigma)
        ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]
        ref_vecs = ref_vecs * column_signs(ref_vecs)
        vals, vecs = generalized_eigen(M, sigma)
        tol = 100 * p * np.finfo(float).eps * np.abs(ref_vals).max()
        gap = np.abs(np.diff(ref_vals)).min()
        assert np.max(np.abs(vals - ref_vals)) < tol
        assert np.max(np.abs(vecs - ref_vecs)) < tol * np.linalg.cond(sigma) / gap


class TestPrincipalAngle:
    def test_identical(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert principal_angle(A, A) == 0

    def test_orthogonal_complements(self):
        assert np.isclose(principal_angle(np.array([[1.0], [0.0]]),
                                          np.array([[0.0], [1.0]])),
                          np.pi / 2)

    def test_forty_five_degrees(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert np.isclose(principal_angle(a, b), np.pi / 4)

    def test_rank_deficient_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            principal_angle(bad, np.eye(3)[:, :2])


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
        assert block_residual(M, sigma, [0, 1], d=1) < 1e-10

    def test_sampled_instance(self):
        spec = SyntheticSpec(n_samples=5000, n_features=6,
                             maf_range=(0.2, 0.4),
                             support=[(0, 2.0), (1, 1.5)], link="logistic",
                             seed=17)
        x, y, _ = simulate(spec)
        xc = center(x)
        design = build_design(y)
        resid = block_extension_check(xc, [0, 1, 2], design, d=1)
        # scale reference: lambda * ||sigma beta|| for the block eigenpair
        sigma = xc.values.T @ xc.values / 5000
        M = slice_mean_cov(xc, design)
        from sparsesdr.sir import generalized_eigen
        vals, vecs = generalized_eigen(M[:3, :3], sigma[:3, :3])
        beta = np.zeros(6)
        beta[:3] = vecs[:, 0]
        scale = vals[0] * np.linalg.norm(sigma @ beta)
        assert resid < 0.05 * scale

    def test_whole_block_matches_full_problem(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 4))
        labels = (X[:, 0] > 0).astype(int)
        x = center(matrix(X))
        y = make_phenotype(labels)
        design = build_design(y, 2)
        assert block_extension_check(x, list(range(4)), design, d=1) < 1e-8
