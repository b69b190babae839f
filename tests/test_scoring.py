import numpy as np
import pytest

from sparsesdr.dataset import Phenotype, make_phenotype
from sparsesdr.errors import ValidationError
from sparsesdr.optimal_scoring import _scores, check_theta_invariants
from sparsesdr.scoring import build_design


def test_binary_example():
    y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
    design = build_design(y, 2)
    assert design.Z.tolist() == [[1, 0], [1, 0], [1, 1], [1, 1]]
    assert design.D.tolist() == [[1, 0.5], [0.5, 0.5]]
    assert design.h == 2


def test_h_must_match_levels():
    y = Phenotype(np.array([0, 1, 2, 0, 1, 2]), "categorical")
    with pytest.raises(ValidationError):
        build_design(y, 2)
    assert build_design(y, 3).h == 3


def test_h_below_two_rejected():
    y = make_phenotype(np.linspace(0, 1, 10), kind="continuous")
    with pytest.raises(ValidationError):
        build_design(y, 1)


def test_continuous_quartiles():
    y = make_phenotype(np.arange(1.0, 101.0), kind="continuous")
    design = build_design(y, 4)
    sizes = np.bincount(design.slice_assignments)
    assert sizes.tolist() == [25, 25, 25, 25]
    assert design.D[0][0] == 1.0
    # recompute D directly from the constructed Z
    assert np.allclose(design.D, design.Z.T @ design.Z / 100, atol=1e-12)


def test_first_column_is_ones_and_column_sums():
    y = make_phenotype(np.random.default_rng(0).standard_normal(37),
                       kind="continuous")
    design = build_design(y, 5)
    n = 37
    assert np.all(design.Z[:, 0] == 1)
    sums = design.Z.sum(axis=0)
    assert sums[0] == n
    sizes = np.bincount(design.slice_assignments, minlength=5)
    for k in range(1, 5):
        assert sums[k] == sizes[k]


def test_permutation_leaves_D_unchanged():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, size=60)
    y = Phenotype(labels, "categorical")
    d1 = build_design(y, 3)
    perm = rng.permutation(60)
    d2 = build_design(Phenotype(labels[perm], "categorical"), 3)
    assert np.allclose(d1.Z[perm], d2.Z)
    assert np.allclose(d1.D, d2.D, atol=1e-12)


def test_D_positive_semidefinite():
    y = Phenotype(np.array([0, 1, 1, 2, 2, 2]), "categorical")
    design = build_design(y, 3)
    vals = np.linalg.eigvalsh(design.D)
    assert vals.min() > 0  # all slices non-empty


@pytest.mark.parametrize("h", [2, 3, 5])
def test_whitened_basis_is_orthonormal(h):
    # Zw = Z L^-T less its first column: Zw^T Zw = n I, and any orthonormal
    # P gives D-orthonormal scores Theta = L^-T [0; P], deflated against
    # the constant score e_1, with Z Theta = Zw P
    rng = np.random.default_rng(h)
    y = make_phenotype(rng.standard_normal(47), kind="continuous")
    design = build_design(y, h)
    n = design.n_samples
    assert design.Zw.shape == (n, h - 1)
    assert np.allclose(design.Zw.T @ design.Zw, n * np.eye(h - 1),
                       atol=1e-12 * n)
    for d in range(1, h):
        P = np.linalg.qr(rng.standard_normal((h - 1, d)))[0]
        Theta = _scores(design.L, P)
        assert np.allclose(Theta.T @ design.D @ Theta, np.eye(d), atol=1e-12)
        assert np.allclose(Theta.T @ design.D[:, 0], 0.0, atol=1e-12)
        check_theta_invariants(Theta, design.D, np.eye(h)[0], tol=1e-12)
        assert np.allclose(design.Z @ Theta, design.Zw @ P, atol=1e-12)
