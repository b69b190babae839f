"""Reference sliced inverse regression that the optimal-scoring fit is
checked against: the top solutions of M v = lambda Sigma v, with Sigma the
covariance of the centered predictors and M the covariance of their slice
means. Built on scipy, so it shares no code with the solver."""

import numpy as np
import scipy.linalg


def slice_mean_cov(X, slices):
    """M = sum_s pi_s m_s m_s^T over the slices of the rows of X (pi_s the
    slice's fraction of rows, m_s its mean row)."""
    onehot = np.asarray(slices)[:, None] == np.unique(slices)
    sums = onehot.T @ X
    return sums.T @ (sums / onehot.sum(axis=0)[:, None]) / len(X)


def generalized_eigen(M, sigma):
    """Eigenvalues (descending) and sigma-orthonormal eigenvectors of
    M v = lambda sigma v."""
    vals, vecs = scipy.linalg.eigh(M, sigma)
    return vals[::-1], vecs[:, ::-1]


def sir_eigen(X, slices):
    """The SIR eigenproblem on the centered predictors X."""
    return generalized_eigen(slice_mean_cov(X, slices), X.T @ X / len(X))


def principal_angle(A, B):
    """Largest principal angle (radians) between the column spans of A and
    B."""
    return float(scipy.linalg.subspace_angles(A, B).max())


def block_residual(M, sigma, block):
    """||M beta - lambda sigma beta|| for the zero-padded top eigenpair of
    the problem restricted to the features in `block`."""
    block = np.asarray(block)
    vals, vecs = generalized_eigen(M[np.ix_(block, block)],
                                   sigma[np.ix_(block, block)])
    beta = np.zeros(len(M))
    beta[block] = vecs[:, 0]
    return float(np.linalg.norm(M @ beta - vals[0] * (sigma @ beta)))
