"""Reference SIR estimator via the inverse-regression generalized eigenproblem.

Small-scale oracle used to cross-validate the penalized optimal-scoring
solver; solves M v = lambda * Sigma_x v with M the between-slice covariance
of predictor means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataset import PredictorMatrix
from .errors import NumericError, ValidationError
from .scoring import ScoringDesign

_MAX_DENSE_P = 2000


@dataclass
class EigenBasis:
    eigenvalues: np.ndarray  # descending, length p
    vectors: np.ndarray      # p x p, columns Sigma_x-orthonormal
    d_used: int

    @property
    def basis(self) -> np.ndarray:
        return self.vectors[:, : self.d_used]


def slice_mean_cov(x: PredictorMatrix, design: ScoringDesign) -> np.ndarray:
    """M = sum_s pi_s m_s m_s^T over slices (pi_s slice fraction, m_s
    within-slice mean of the centered predictors)."""
    if not x.centered:
        raise ValidationError("predictors must be centered")
    X = x.values
    n, p = X.shape
    M = np.zeros((p, p))
    for s in range(design.h):
        mask = design.slice_assignments == s
        pi = mask.sum() / n
        m = X[mask].mean(axis=0)
        M += pi * np.outer(m, m)
    return M


def column_signs(V: np.ndarray) -> np.ndarray:
    """+1 or -1 per column: the sign that makes the column's
    largest-magnitude entry positive (first such entry on ties)."""
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def generalized_eigen(M: np.ndarray, sigma: np.ndarray):
    """Solve M v = lambda sigma v for symmetric M and positive definite sigma.

    Returns (eigenvalues descending, sigma-orthonormal eigenvectors)."""
    try:
        vals, vecs = scipy.linalg.eigh(M, sigma)
    except np.linalg.LinAlgError:
        raise NumericError("covariance singular: Cholesky factorization "
                           "failed (p >= n or collinear columns)") from None
    vals, vecs = vals[::-1], vecs[:, ::-1]
    return vals, vecs * column_signs(vecs)


def sir_eigen(x: PredictorMatrix, design: ScoringDesign, d: int) -> EigenBasis:
    """Top-d solutions of M v = lambda Sigma_x v on the centered sample."""
    if not x.centered:
        raise ValidationError("predictors must be centered")
    n, p = x.values.shape
    if p > _MAX_DENSE_P:
        raise ValidationError(f"dense eigensolve guarded at p <= {_MAX_DENSE_P}")
    if not 1 <= d <= p:
        raise ValidationError(f"d={d} out of range for p={p}")
    sigma = x.values.T @ x.values / n
    M = slice_mean_cov(x, design)
    vals, vecs = generalized_eigen(M, sigma)
    return EigenBasis(eigenvalues=vals, vectors=vecs, d_used=d)


def principal_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of A and B."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.ndim == 2 and A.shape[0] == 1:
        A = A.T
    if B.ndim == 2 and B.shape[0] == 1:
        B = B.T
    qa, ra = np.linalg.qr(A)
    qb, rb = np.linalg.qr(B)
    tol = 1e-10
    if np.min(np.abs(np.diag(ra))) < tol * max(1.0, np.abs(ra).max()):
        raise ValidationError("first basis is rank deficient")
    if np.min(np.abs(np.diag(rb))) < tol * max(1.0, np.abs(rb).max()):
        raise ValidationError("second basis is rank deficient")
    svals = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(svals.min(), -1.0, 1.0)))


def block_residual(M: np.ndarray, sigma: np.ndarray, block,
                   d: int = 1) -> float:
    """Residual ||M beta - lambda sigma beta|| for the zero-padded top
    eigenvector of the block-restricted problem.

    Operates on explicit (M, sigma) matrices so population-exact covariances
    can be checked directly.
    """
    block = np.asarray(block, dtype=int)
    p = M.shape[0]
    M_bb = M[np.ix_(block, block)]
    sigma_bb = sigma[np.ix_(block, block)]
    vals, vecs = generalized_eigen(M_bb, sigma_bb)
    resid = 0.0
    for j in range(d):
        beta = np.zeros(p)
        beta[block] = vecs[:, j]
        resid = max(resid, float(np.linalg.norm(
            M @ beta - vals[j] * (sigma @ beta))))
    return resid


def block_extension_check(x: PredictorMatrix, block, design: ScoringDesign,
                          d: int = 1) -> float:
    """Sample version of the block eigen-extension property: solve the SIR
    eigenproblem on one feature block, zero-pad, and measure how well the
    padded vector satisfies the whole-problem eigenequation."""
    if not x.centered:
        raise ValidationError("predictors must be centered")
    n = x.n_samples
    sigma = x.values.T @ x.values / n
    M = slice_mean_cov(x, design)
    return block_residual(M, sigma, block, d)
