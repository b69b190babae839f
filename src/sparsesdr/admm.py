"""ADMM solver for the penalized multi-response least-squares subproblem.

Minimizes, for fixed score matrix,

    sum_j ||Z theta_j - X beta_j||^2
        + lambda * ((1-delta) * sum_l ||b_l||^2 + delta * sum_l ||b_l||^(1-r))

over the p x d coefficient matrix B with rows b_l, via a smooth regularized
solve, a closed-form row-wise group shrinkage and a scaled dual update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Residual balancing on residuals relative to their tolerances (Wohlberg
# 2017): for a solve's first _ADAPT_ITERS iterations, rho *= _TAU and u /= _TAU
# (or the inverse) when one exceeds the other _MU-fold; then rho is held.
_MU, _TAU, _ADAPT_ITERS = 10.0, 2.0, 100


@dataclass
class PenaltyParams:
    lam: float = 0.0
    delta: float = 1.0
    r: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValidationError("lambda must be finite and >= 0")
        if not 0 <= self.delta <= 1:
            raise ValidationError("delta must be in [0, 1]")
        if not 0 <= self.r < 1:
            raise ValidationError("r must be in [0, 1)")


@dataclass
class StepAResult:
    B: np.ndarray
    n_iter: int
    converged: bool
    primal_residual: float
    dual_residual: float
    u: np.ndarray    # final scaled dual; with rho and B, a warm start
    rho: float       # final step parameter


def shrink_rows(V: np.ndarray, params: PenaltyParams,
                rho: float) -> np.ndarray:
    """Row-wise group shrinkage at ADMM step rho: each row is scaled toward
    zero, exactly zeroed when its norm falls below the penalty threshold.

    Exact proximal map at r = 0; for r > 0 it is the first-order closed form
    (the small approximation is quantified by the oracle tests).
    """
    lam, delta, r = params.lam, params.delta, params.r
    norms = np.sqrt(np.add.reduce(V * V, axis=1))   # np.linalg.norm's rows
    thresh = lam * delta * (1 - r * r) / rho
    denom = 1 + 2 * lam * (1 - delta) * (1 + r) / rho
    s = (norms ** (1 + r) - thresh) / denom
    pos = s > 0
    factor = np.zeros_like(norms)
    nz = pos & (norms > 0)
    factor[nz] = s[nz] ** (1 / (1 + r)) / norms[nz]
    return V * factor[:, None]


def group_shrink(v: np.ndarray, params: PenaltyParams,
                 rho: float) -> np.ndarray:
    """Shrink a single length-d row vector (see shrink_rows)."""
    v = np.asarray(v, dtype=float)
    return shrink_rows(v[None, :], params, rho)[0]


class GramSolver:
    """Eigenpairs of X's smaller Gram matrix (X X^T when p > n, else X^T X)
    less the zero eigenvalues centering creates: V holds X's p x k right
    singular vectors and s2 their squared singular values, so for any c > 0

        (X^T X + c I)^{-1} r = V((V^T r)/(s2 + c) - (V^T r)/c) + r/c

    and a change of the ADMM step parameter needs no new factorization.
    """

    def __init__(self, X: np.ndarray):
        n, p = X.shape
        s2, W = np.linalg.eigh(X @ X.T if p > n else X.T @ X)
        keep = s2 > s2[-1] * max(n, p) * np.finfo(float).eps
        self.s2 = s2[keep]
        self.V = X.T @ (W[:, keep] / np.sqrt(self.s2)) if p > n else W[:, keep]
        self._c, self._filter = None, None

    def solve(self, rhs: np.ndarray, c: float) -> np.ndarray:
        """Solve (X^T X + c I) B = rhs, keeping s2/(s2 + c) for the last c."""
        if c != self._c:
            self._c, self._filter = c, (self.s2 / (self.s2 + c))[:, None]
        return (rhs - self.V @ ((self.V.T @ rhs) * self._filter)) / c


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a), by its own sum, without its argument dispatch."""
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def step_a_objective(X: np.ndarray, Ztheta: np.ndarray, B: np.ndarray,
                     params: PenaltyParams) -> float:
    """The penalized least-squares objective this module minimizes."""
    fit = float(np.sum((Ztheta - X @ B) ** 2))
    norms = np.linalg.norm(B, axis=1)
    pen = params.lam * ((1 - params.delta) * float(np.sum(norms ** 2))
                        + params.delta * float(np.sum(norms ** (1 - params.r))))
    return fit + pen


def solve_step_a(X: np.ndarray, Ztheta: np.ndarray, params: PenaltyParams,
                 rho: float, tol: float = 1e-6, max_iter: int = 1000,
                 gram: GramSolver | None = None,
                 warm: StepAResult | None = None) -> StepAResult:
    """Run ADMM to convergence on the row-sparse subproblem.

    X is the n x p centered predictor matrix, Ztheta the n x d matrix of
    current response scores. Stops on the primal (B - alpha) and dual
    (rho times the change of alpha) residual tests of Boyd et al. (2011,
    sec. 3.3.1) with eps_abs = eps_rel = tol. `rho` is the starting step,
    balanced against the residuals at r = 0 (sec. 3.4.1) without moving
    the optimum; at r > 0 the shrinkage is approximate, its fixed point
    depends on rho, and rho is held. `warm`, an earlier result on the same
    X, is resumed: its B (alpha), u and rho, in place of `rho`. Returns
    alpha as B.

    This solves on every column of the X it is given. `optimal_scoring.fit`
    gives it the working set's columns X_W: at r = 0 a KKT pass over the
    other columns adds violators and solves again until none is left or a
    solve hits `max_iter`; at r > 0 X_W is every column.
    """
    if max_iter < 1 or tol <= 0:
        raise ValidationError("max_iter must be >= 1 and tol > 0")
    if gram is None:
        gram = GramSolver(X)
    xtz_theta = X.T @ Ztheta
    if warm is None:  # cold start: the ridge solution with a zero dual
        alpha = gram.solve(xtz_theta, rho / 2.0)
        warm = StepAResult(alpha, 0, False, 0.0, 0.0, 0 * alpha, rho)
    alpha, u, rho = warm.B, warm.u, warm.rho
    eps_abs = np.sqrt(alpha.size) * tol

    for n_iter in range(1, max_iter + 1):
        # smooth step: (X^T X + (rho/2) I) B = X^T Z Theta + (rho/2)(alpha - u)
        B = gram.solve(xtz_theta + rho / 2.0 * (alpha - u), rho / 2.0)
        alpha_new = shrink_rows(B + u, params, rho)
        r = B - alpha_new
        u = u + r
        r_norm = _norm(r)
        s_norm = rho * _norm(alpha_new - alpha)
        alpha = alpha_new
        eps_pri = eps_abs + tol * max(_norm(B), _norm(alpha))
        eps_dual = eps_abs + tol * rho * _norm(u)
        pri, dual = r_norm / eps_pri, s_norm / eps_dual
        converged = bool(pri <= 1 and dual <= 1)
        if converged:
            break
        if (params.r == 0 and n_iter <= _ADAPT_ITERS
                and max(pri, dual) > _MU * min(pri, dual)):
            scale = _TAU if pri > dual else 1.0 / _TAU
            rho, u = rho * scale, u / scale

    return StepAResult(B=alpha, n_iter=n_iter, converged=converged, u=u,
                       rho=rho, primal_residual=r_norm, dual_residual=s_norm)
