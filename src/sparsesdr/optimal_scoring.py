"""Bi-convex optimal-scoring solver: alternate the penalized coefficient
subproblem (ADMM) with the closed-form score step under D-orthonormality."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admm import GramSolver, PenaltyParams, solve_step_a, step_a_objective
from .dataset import PredictorMatrix
from .errors import NumericError, ValidationError
from .scoring import ScoringDesign
from .sir import column_signs

_ZERO_BETA = 1e-14


@dataclass
class SolverConfig:
    d: int = 1
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    outer_tol: float = 1e-5
    outer_max_iter: int = 100
    inner_tol: float = 1e-6
    inner_max_iter: int = 1000

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if not all(0 < t < np.inf for t in (self.outer_tol, self.inner_tol)):
            raise ValidationError("tolerances must be finite and > 0")
        if min(self.outer_max_iter, self.inner_max_iter) < 1:
            raise ValidationError("iteration caps must be >= 1")


@dataclass
class DirectionSet:
    B: np.ndarray          # p x d coefficient matrix, rows exactly sparse
    Theta: np.ndarray      # h x d score coefficients, D-orthonormal
    Q: np.ndarray          # h x (d+1); first column deflates the constant score
    converged: bool
    outer_iters: int
    objective_history: list[float] = field(default_factory=list)
    inner_converged: bool = True

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.B, axis=1)


def check_theta_invariants(Theta: np.ndarray, D: np.ndarray,
                           q1: np.ndarray, tol: float = 1e-8) -> None:
    """Assert D-orthonormality of the score columns and deflation against
    the constant score."""
    d = Theta.shape[1]
    for i in range(d):
        ti = Theta[:, i]
        if abs(ti @ D @ ti - 1) > tol:
            raise NumericError(f"theta_{i} is not D-unit")
        if abs(ti @ D @ q1) > tol:
            raise NumericError(f"theta_{i} not deflated against constant score")
        for j in range(i):
            if abs(ti @ D @ Theta[:, j]) > tol:
                raise NumericError(f"theta_{i} not D-orthogonal to theta_{j}")


def _deflated_draw(rng: np.random.Generator, D: np.ndarray,
                   Q: np.ndarray) -> np.ndarray:
    """Random D-unit score D-orthogonal to every column of Q."""
    for _ in range(10):
        star = rng.standard_normal(D.shape[0])
        tilde = star - Q @ (Q.T @ (D @ star))
        norm2 = tilde @ D @ tilde
        if norm2 > 1e-12:
            return tilde / np.sqrt(norm2)
    raise NumericError("degenerate random score draw")


def init_theta(design: ScoringDesign, d: int, seed: int = 0):
    """Random D-orthonormal initialization deflated against the constant
    score. Returns (Theta: h x d, Q: h x (d+1))."""
    h, D = design.h, design.D
    if d > h - 1:
        raise ValidationError(f"d={d} must be <= h-1={h - 1}")
    rng = np.random.default_rng(seed)
    q1 = np.zeros(h)
    q1[0] = 1.0
    Q = q1[:, None]
    Theta = np.zeros((h, d))
    for i in range(d):
        theta = _deflated_draw(rng, D, Q)
        Theta[:, i] = theta
        Q = np.column_stack([Q, theta])
    return Theta, Q


def theta_step(xtz: np.ndarray, D: np.ndarray, beta: np.ndarray,
               Q: np.ndarray) -> np.ndarray:
    """Closed-form score update for one direction.

    xtz is the precomputed p x h matrix X^T Z, beta the current length-p
    coefficient vector, Q the h x i D-orthonormal deflation matrix (constant
    score plus previously extracted scores). With v = Z^T X beta and w the
    deflation of D^-1 v against Q, the score is theta = w / sqrt(w^T D w):
    a D-unit vector D-orthogonal to every column of Q. Because
    w^T v = w^T D w, theta^T v = sqrt(w^T D w) > 0, so no sign fix is needed.
    """
    v = xtz.T @ beta                       # Z^T X beta
    w = np.linalg.solve(D, v)
    w = w - Q @ (Q.T @ (D @ w))            # deflate against Q
    wDw = w @ D @ w
    if wDw <= 1e-24 or np.linalg.norm(v) < 1e-12:
        raise NumericError("degenerate score/direction pairing: direction "
                           "carries no signal for the score update")
    return w / np.sqrt(wDw)


def fit(x: PredictorMatrix, design: ScoringDesign, cfg: SolverConfig,
        seed: int = 0) -> DirectionSet:
    """Alternate the coefficient subproblem and the score step until both
    stop moving (or the outer iteration cap is hit). `seed` draws the
    starting scores."""
    if not x.centered:
        raise ValidationError("predictors must be centered")
    if x.n_samples != design.n_samples:
        raise ValidationError("design/predictor sample counts differ")

    X, Z, D = x.values, design.Z, design.D
    d = cfg.d
    Theta, Q = init_theta(design, d, seed)
    xtz = X.T @ Z
    gram = GramSolver(X)
    rng = np.random.default_rng(seed + 1)

    B = np.zeros((x.n_features, d))
    history: list[float] = []
    converged = False
    inner_ok = True
    outer = 0
    res = None
    for outer in range(1, cfg.outer_max_iter + 1):
        res = solve_step_a(X, Z @ Theta, cfg.penalty,
                           tol=cfg.inner_tol, max_iter=cfg.inner_max_iter,
                           gram=gram, warm=res)
        inner_ok = inner_ok and res.converged
        B_new = res.B

        Theta_new = np.zeros_like(Theta)
        Qi = Q[:, :1]
        for i in range(d):
            beta = B_new[:, i]
            if np.linalg.norm(beta) <= _ZERO_BETA:
                # no signal for this direction: keep the previous score,
                # re-deflated against the refreshed earlier scores
                tilde = Theta[:, i] - Qi @ (Qi.T @ (D @ Theta[:, i]))
                norm2 = tilde @ D @ tilde
                theta = (tilde / np.sqrt(norm2) if norm2 > 1e-12
                         else _deflated_draw(rng, D, Qi))
            else:
                theta = theta_step(xtz, D, beta, Qi)
            Theta_new[:, i] = theta
            Qi = np.column_stack([Qi, theta])

        check_theta_invariants(Theta_new, D, Q[:, 0])
        history.append(step_a_objective(X, Z @ Theta_new, B_new, cfg.penalty))

        theta_moved = max(float(np.linalg.norm(Theta_new[:, i] - Theta[:, i]))
                          for i in range(d))
        beta_moved = max(float(np.linalg.norm(B_new[:, i] - B[:, i]))
                         for i in range(d))
        Theta, Q, B = Theta_new, Qi, B_new
        if theta_moved < cfg.outer_tol and beta_moved < cfg.outer_tol:
            converged = True
            break

    signs = column_signs(Theta)
    B, Theta = B * signs, Theta * signs
    Q = np.column_stack([Q[:, :1], Theta])
    return DirectionSet(B=B, Theta=Theta, Q=Q, converged=converged,
                        outer_iters=outer, objective_history=history,
                        inner_converged=inner_ok)
