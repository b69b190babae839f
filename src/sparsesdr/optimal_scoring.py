"""Bi-convex optimal-scoring solver: alternate the penalized coefficient
subproblem (ADMM) with the score fixed point under D-orthonormality."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admm import GramSolver, PenaltyParams, solve_step_a, step_a_objective
from .dataset import PredictorMatrix
from .errors import NumericError, ValidationError
from .scoring import ScoringDesign

_ZERO_BETA = 1e-14


@dataclass
class SolverConfig:
    d: int = 1
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    outer_tol: float = 1e-5
    outer_max_iter: int = 100
    inner_tol: float = 1e-6
    inner_max_iter: int = 1000
    theta_fixed_point: str = "iterate"  # "iterate" | "newton"
    theta_inner_tol: float = 1e-10
    theta_max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if min(self.outer_tol, self.inner_tol, self.theta_inner_tol) <= 0:
            raise ValidationError("tolerances must be positive")
        if self.theta_fixed_point not in ("iterate", "newton"):
            raise ValidationError(
                f"unknown theta solver {self.theta_fixed_point!r}")


@dataclass
class DirectionSet:
    B: np.ndarray          # p x d coefficient matrix, rows exactly sparse
    Theta: np.ndarray      # K x d score coefficients, D-orthonormal
    Q: np.ndarray          # K x (d+1); first column deflates the constant score
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


def init_theta(design: ScoringDesign, d: int, seed: int = 0):
    """Random D-orthonormal initialization deflated against the constant
    score. Returns (Theta: K x d, Q: K x (d+1))."""
    K, D = design.K, design.D
    if d > K - 1:
        raise ValidationError(f"d={d} must be <= K-1={K - 1}")
    rng = np.random.default_rng(seed)
    q1 = np.zeros(K)
    q1[0] = 1.0
    Q = q1[:, None]
    Theta = np.zeros((K, d))
    for i in range(d):
        for attempt in range(10):
            star = rng.standard_normal(K)
            tilde = star - Q @ (Q.T @ (D @ star))
            norm2 = tilde @ D @ tilde
            if norm2 > 1e-12:
                break
        else:
            raise NumericError(f"degenerate random draw for theta_{i}")
        theta = tilde / np.sqrt(norm2)
        Theta[:, i] = theta
        Q = np.column_stack([Q, theta])
    return Theta, Q


def theta_step(xtz: np.ndarray, D: np.ndarray, beta: np.ndarray,
               Q: np.ndarray, mode: str = "iterate", tol: float = 1e-10,
               max_iter: int = 200) -> np.ndarray:
    """Solve the score fixed point for one direction.

    xtz is the precomputed p x K matrix X^T Z, beta the current length-p
    coefficient vector, Q the K x i deflation matrix (constant score plus
    previously extracted scores). Returns a D-unit vector D-orthogonal to
    every column of Q, with sign chosen so theta^T Z^T X beta >= 0.
    """
    v = xtz.T @ beta                       # Z^T X beta
    w = np.linalg.solve(D, v)
    w = w - Q @ (Q.T @ (D @ w))            # deflate against Q
    wDw = w @ D @ w
    if wDw <= 1e-24 or np.linalg.norm(v) < 1e-12:
        raise NumericError("degenerate score/direction pairing: direction "
                           "carries no signal for the score update")

    if mode == "iterate":
        theta = w / np.sqrt(wDw)
        for _ in range(max_iter):
            denom = theta @ v
            if abs(denom) < 1e-12:
                raise NumericError("degenerate score/direction pairing: "
                                   "fixed-point denominator vanished")
            theta_new = w / denom
            if np.linalg.norm(theta_new - theta) < tol:
                theta = theta_new
                break
            theta = theta_new
    elif mode == "newton":
        # theta = w / c with the scalar c solving c^2 = w^T v
        target = w @ v
        if abs(target) < 1e-24:
            raise NumericError("degenerate score/direction pairing")
        c = np.sqrt(abs(target))
        for _ in range(max_iter):
            step = (c * c - abs(target)) / (2 * c)
            c -= step
            if abs(step) < tol:
                break
        theta = w / c
    else:
        raise ValidationError(f"unknown theta solver {mode!r}")

    theta = theta / np.sqrt(theta @ D @ theta)
    if theta @ v < 0:
        theta = -theta
    return theta


def _canonicalize_signs(B: np.ndarray, Theta: np.ndarray):
    """Make the largest-|entry| of each score column positive, flipping the
    matching coefficient column so the objective is untouched."""
    B = B.copy()
    Theta = Theta.copy()
    for i in range(Theta.shape[1]):
        k = np.argmax(np.abs(Theta[:, i]))
        if Theta[k, i] < 0:
            Theta[:, i] = -Theta[:, i]
            B[:, i] = -B[:, i]
    return B, Theta


def objective(X: np.ndarray, Z: np.ndarray, Theta: np.ndarray,
              B: np.ndarray, penalty: PenaltyParams) -> float:
    """Penalized optimal-scoring objective at (Theta, B)."""
    return step_a_objective(X, Z @ Theta, B, penalty)


def fit(x: PredictorMatrix, design: ScoringDesign,
        cfg: SolverConfig) -> DirectionSet:
    """Alternate the coefficient subproblem and the score fixed point until
    both stop moving (or the outer iteration cap is hit)."""
    if not x.centered:
        raise ValidationError("predictors must be centered")
    if x.n_samples != design.n_samples:
        raise ValidationError("design/predictor sample counts differ")

    X, Z, D = x.values, design.Z, design.D
    d = cfg.d
    Theta, Q = init_theta(design, d, cfg.seed)
    xtz = X.T @ Z
    gram = GramSolver(X)
    rng = np.random.default_rng(cfg.seed + 1)

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
                if norm2 <= 1e-12:
                    for _ in range(10):
                        star = rng.standard_normal(design.K)
                        tilde = star - Qi @ (Qi.T @ (D @ star))
                        norm2 = tilde @ D @ tilde
                        if norm2 > 1e-12:
                            break
                    else:
                        raise NumericError("degenerate score draw during fit")
                theta = tilde / np.sqrt(norm2)
            else:
                theta = theta_step(xtz, D, beta, Qi,
                                   mode=cfg.theta_fixed_point,
                                   tol=cfg.theta_inner_tol,
                                   max_iter=cfg.theta_max_iter)
            Theta_new[:, i] = theta
            Qi = np.column_stack([Qi, theta])

        check_theta_invariants(Theta_new, D, Q[:, 0])
        history.append(objective(X, Z, Theta_new, B_new, cfg.penalty))

        theta_moved = max(float(np.linalg.norm(Theta_new[:, i] - Theta[:, i]))
                          for i in range(d))
        beta_moved = max(float(np.linalg.norm(B_new[:, i] - B[:, i]))
                         for i in range(d))
        Theta, Q, B = Theta_new, Qi, B_new
        if theta_moved < cfg.outer_tol and beta_moved < cfg.outer_tol:
            converged = True
            break

    B, Theta = _canonicalize_signs(B, Theta)
    Q = np.column_stack([Q[:, :1], Theta])
    return DirectionSet(B=B, Theta=Theta, Q=Q, converged=converged,
                        outer_iters=outer, objective_history=history,
                        inner_converged=inner_ok)
