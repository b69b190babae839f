"""Bi-convex optimal-scoring solver: alternate the penalized coefficient
subproblem (ADMM) with the closed-form score step under D-orthonormality."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .admm import (GramSolver, PenaltyParams, StepAResult, solve_step_a,
                   step_a_objective)
from .dataset import PredictorMatrix
from .errors import NumericError, ValidationError
from .scoring import ScoringDesign
from .sir import column_signs

# W has rank < d when its smallest singular value (in the D metric) is at
# most this fraction of its largest
_RANK_TOL = np.sqrt(np.finfo(float).eps)


@dataclass
class SolverConfig:
    d: int = 1
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    rho: float = 1.0   # starting ADMM step of each coefficient step
    outer_tol: float = 1e-5
    outer_max_iter: int = 100
    inner_tol: float = 1e-6
    inner_max_iter: int = 1000

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ValidationError("rho must be finite and > 0")
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
    converged: bool
    outer_iters: int
    objective_history: list[float] = field(default_factory=list)
    inner_converged: bool = True
    kkt_max_rel: float | None = None  # see fit; None at r > 0 or lambda = 0
    kkt_slack: float | None = None    # bound on kkt_max_rel, or None
    working_set_size: int = 0         # columns the last step A was solved on

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.B, axis=1)


def kkt_violations(G: np.ndarray, B: np.ndarray,
                   params: PenaltyParams) -> np.ndarray:
    """Per-row violation of step A's optimality conditions at r = 0,
    relative to lambda > 0, given the gradient G = 2 X^T (Z Theta - X B).

    A zero row needs ||g_l|| <= lambda delta and scores
    (||g_l|| - lambda delta)_+ / lambda; a nonzero row needs
    g_l = 2 lambda (1 - delta) b_l + lambda delta b_l / ||b_l|| and scores
    the norm of the difference over lambda.
    """
    lam, delta = params.lam, params.delta
    gnorms, norms = np.linalg.norm(G, axis=1), np.linalg.norm(B, axis=1)
    out = np.maximum(gnorms - lam * delta, 0.0)
    nz = norms > 0
    Bnz = B[nz]
    out[nz] = np.linalg.norm(
        G[nz] - 2 * lam * (1 - delta) * Bnz
        - lam * delta * Bnz / norms[nz, None], axis=1)
    return out / lam


class _WorkingSet:
    """The sorted columns W that step A is solved on, their submatrix X_W
    (X itself when W is every column) and its GramSolver, kept until W
    grows. W never shrinks."""

    def __init__(self, X: np.ndarray, every: bool):
        self.X = X
        self.in_w = np.full(X.shape[1], every)
        self.cols = np.flatnonzero(self.in_w)
        self.X_W = X if every else X[:, self.cols]
        self.gram = None

    def gradient(self, Ztheta: np.ndarray,
                 res: StepAResult | None) -> np.ndarray:
        """G = 2 X^T (Z Theta - X_W B_W) at res's B_W, over every column."""
        R = Ztheta if res is None else Ztheta - self.X_W @ res.B
        return 2.0 * (self.X.T @ R)

    def add_violators(self, Ztheta: np.ndarray, res: StepAResult | None,
                      thresh: float) -> tuple[bool, StepAResult | None]:
        """Add every column outside W whose KKT score ||g_l|| exceeds
        `thresh`. Returns whether W grew, and `res` mapped onto the new W
        (new rows start at B = u = 0; rho is kept)."""
        score = np.linalg.norm(self.gradient(Ztheta, res), axis=1)
        score[self.in_w] = 0.0
        new = np.flatnonzero(score > thresh)
        if len(new) == 0:
            return False, res
        self.in_w[new] = True
        cols = np.flatnonzero(self.in_w)
        if res is not None:
            pos = np.searchsorted(cols, self.cols)
            B = np.zeros((len(cols), res.B.shape[1]))
            u = np.zeros_like(B)
            B[pos], u[pos] = res.B, res.u
            res = replace(res, B=B, u=u)
        self.cols = cols
        self.X_W = self.X if len(cols) == self.X.shape[1] else self.X[:, cols]
        self.gram = None
        return True, res

    def full(self, B_W: np.ndarray) -> np.ndarray:
        """The p x d coefficient matrix: B_W on W, zero elsewhere."""
        if len(self.cols) == self.X.shape[1]:
            return B_W
        B = np.zeros((self.X.shape[1], B_W.shape[1]))
        B[self.cols] = B_W
        return B

    def solve(self, Ztheta: np.ndarray, cfg: SolverConfig,
              res: StepAResult | None) -> StepAResult | None:
        """Step A for the response scores Ztheta over every column of X,
        solved on W.

        At r = 0, a KKT pass first adds every column outside W that
        violates the zero-row condition at the warm answer `res`; then
        `solve_step_a` runs on X_W, warm from `res`, and another pass adds
        the violators of its answer, until a pass adds none (the answer is
        then optimal over every column, within the inner tolerance) or a
        solve hits the inner cap (no certificate is possible; it is reported
        unconverged). At r > 0 W is every column and one solve runs. None
        when W is empty: B = 0 passed every column's test.
        """
        pen = cfg.penalty
        solved = False
        while True:
            grew = False
            if pen.r == 0:
                grew, res = self.add_violators(Ztheta, res,
                                               pen.lam * pen.delta)
            if (solved and not grew) or len(self.cols) == 0:
                return res
            if self.gram is None:
                self.gram = GramSolver(self.X_W)
            res = solve_step_a(self.X_W, Ztheta, pen, cfg.rho,
                               tol=cfg.inner_tol, max_iter=cfg.inner_max_iter,
                               gram=self.gram, warm=res)
            solved = True
            if pen.r > 0 or not res.converged:
                return res


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


def _score_svd(ztxb: np.ndarray, D: np.ndarray):
    """L with D = L L^T, and the thin SVD U s Vt of A = L^-1 ztxb less its
    first row. Scores Theta = L^-T [0; P] are D-orthonormal and deflated
    against the constant score q1 = e_1 exactly when P's columns are
    orthonormal, and then tr(Theta^T ztxb) = tr(P^T A). A^T A = W^T D W,
    for W = D^-1 ztxb deflated against q1."""
    L = np.linalg.cholesky(D)
    return (L, *np.linalg.svd(np.linalg.solve(L, ztxb)[1:],
                              full_matrices=False))


def _scores(L: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Theta = L^-T [0; P] (see `_score_svd`)."""
    return np.linalg.solve(L.T, np.vstack([np.zeros((1, P.shape[1])), P]))


def init_theta(design: ScoringDesign, X: np.ndarray, d: int) -> np.ndarray:
    """The D-orthonormal scores deflated against the constant score that
    maximize ||X^T Z Theta||_F: L^-T [0; P] (see `_score_svd`), P the top d
    eigenvectors of L^-1 Z^T X X^T Z L^-T's trailing (h-1) x (h-1) block."""
    h = design.h
    if d > h - 1:
        raise ValidationError(f"d={d} must be <= h-1={h - 1}")
    L = np.linalg.cholesky(design.D)
    K = np.linalg.solve(L, design.Z.T @ X)[1:]
    P = np.linalg.eigh(K @ K.T)[1][:, ::-1][:, :d]
    return _scores(L, P)


def theta_step(ztxb: np.ndarray, D: np.ndarray,
               Theta: np.ndarray) -> np.ndarray:
    """The scores that minimize ||Z Theta - X B||^2 for ztxb = Z^T X B, by
    maximizing tr(Theta^T ztxb): the D-metric polar factor
    W (W^T D W)^(-1/2) of W = D^-1 ztxb deflated against the constant
    score (Schoenemann 1966), as L^-T [0; U Vt] (see `_score_svd`), which
    stays D-orthonormal however ill-conditioned W is. When W^T D W is
    singular (B = 0 or of rank < d) the maximizer is not unique and
    `Theta` is returned unchanged, which cannot raise the objective."""
    L, U, s, Vt = _score_svd(ztxb, D)
    if s[-1] <= _RANK_TOL * s[0]:
        return Theta
    return _scores(L, U @ Vt)


def fit(x: PredictorMatrix, design: ScoringDesign,
        cfg: SolverConfig) -> DirectionSet:
    """Alternate the coefficient subproblem and the score step until both
    stop moving (or the outer iteration cap is hit), starting at
    `init_theta`'s scores, where the KKT pass's column scores at B = 0 peak.

    Each score step is `theta_step`, exact over the scores. At d = h - 1
    every start spans the same scores, so the loop stops at outer iteration
    2. At the end (Theta, B) is rotated once, by the right singular vectors
    of `_score_svd` at the last B, so that W's columns are D-orthogonal,
    largest first: neither the objective nor B's row norms change.

    Each coefficient step is solved on a working set W of columns (see
    `_WorkingSet.solve`), so a sparse answer factors a |W| x |W| Gram
    matrix, not one as wide as X. At r = 0, W starts empty and grows by the
    columns that fail the zero-row KKT test ||2 X_l^T (Z Theta - X B)|| <=
    lambda delta; each step stops when a pass finds no violator or its
    solve hits the inner cap. At r > 0 the penalty's slope is infinite at
    zero, so that test certifies nothing, and W is every column from the
    start. `working_set_size` is |W| at the end.

    When r = 0 and lambda > 0, `kkt_max_rel` is the largest
    `kkt_violations` entry over every column, at the returned B and the
    scores its step A was solved for, and `kkt_slack` bounds it when that
    step's last ADMM solve converged: (s + 2 ||X_W||^2 r) / lambda, with s
    and r that solve's last dual and primal residuals. Columns outside W
    score 0 after the final pass, and at each ADMM iterate the gradient
    differs from a subgradient of the penalty by rho (alpha - alpha_prev)
    + 2 X_W^T X_W (B - alpha), whose norm is at most s + 2 ||X_W||^2 r.
    Both are None otherwise.
    """
    if not x.centered:
        raise ValidationError("predictors must be centered")
    if x.n_samples != design.n_samples:
        raise ValidationError("design/predictor sample counts differ")

    X, Z, D = x.values, design.Z, design.D
    d, pen = cfg.d, cfg.penalty
    Theta = init_theta(design, X, d)
    ws = _WorkingSet(X, every=pen.r > 0)

    B = np.zeros((x.n_features, d))
    history: list[float] = []
    converged = False
    inner_ok = True
    res = None
    for outer in range(1, cfg.outer_max_iter + 1):
        Ztheta = Z @ Theta
        res = ws.solve(Ztheta, cfg, res)
        inner_ok = inner_ok and (res is None or res.converged)
        B_W = np.zeros((0, d)) if res is None else res.B
        B_new = ws.full(B_W)
        ztxb = Z.T @ (ws.X_W @ B_W)
        Theta_new = theta_step(ztxb, D, Theta)
        check_theta_invariants(Theta_new, D, np.eye(design.h)[0])
        history.append(step_a_objective(ws.X_W, Z @ Theta_new, B_W, pen))

        moved = max(np.linalg.norm(Theta_new - Theta, axis=0).max(),
                    np.linalg.norm(B_new - B, axis=0).max())
        Theta, B = Theta_new, B_new
        if moved < cfg.outer_tol:
            converged = True
            break

    kkt = slack = None
    if pen.r == 0 and pen.lam > 0:
        G = ws.gradient(Ztheta, res)
        kkt = float(np.max(kkt_violations(G, B, pen), initial=0.0))
        slack = 0.0 if res is None else float(
            res.dual_residual + 2 * ws.gram.s2.max(initial=0.0)
            * res.primal_residual) / pen.lam
    V = _score_svd(ztxb, D)[3].T   # the final rotation (see above)
    V = V * column_signs(Theta @ V)
    B, Theta = B @ V, Theta @ V
    return DirectionSet(B=B, Theta=Theta, converged=converged,
                        outer_iters=outer, objective_history=history,
                        inner_converged=inner_ok, kkt_max_rel=kkt,
                        kkt_slack=slack, working_set_size=len(ws.cols))
