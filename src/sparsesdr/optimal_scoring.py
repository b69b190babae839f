"""Bi-convex optimal-scoring solver: alternate the penalized coefficient
subproblem (ADMM) with the closed-form score step under D-orthonormality."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .admm import (GramSolver, PenaltyParams, StepAResult, solve_step_a,
                   step_a_objective)
from .dataset import PredictorMatrix, center
from .errors import NumericError, ValidationError
from .scoring import ScoringDesign

# Zw^T X_W B_W has rank < d when its smallest singular value is at most
# this fraction of its largest
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
    working_set_size: int = 0         # columns the last step A was solved on
    inner_iters: int = 0              # ADMM iterations over every step A

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
    grows. W never shrinks. `fitted` and `G` are the last KKT pass's fitted
    values and gradient, and `inner_iters` counts the ADMM iterations of
    every solve it ran. K = Zw^T X gives the gradient at B = 0."""

    def __init__(self, X: np.ndarray, K: np.ndarray, every: bool):
        self.X, self.K = X, K
        self.in_w = np.full(X.shape[1], every)
        self.cols = np.flatnonzero(self.in_w)
        self.X_W = X if every else X[:, self.cols]
        self.gram = self.G = self.fitted = None
        self.inner_iters = 0

    def kkt_pass(self, ZwP: np.ndarray, P: np.ndarray,
                 res: StepAResult | None,
                 thresh: float) -> tuple[bool, StepAResult | None]:
        """Store the fitted values X_W B_W at res's B_W and the gradient
        G = 2 X^T (Zw P - X_W B_W) over every column (0 and 2 K^T P at
        B = 0, when `res` is None), then add every column outside W whose
        KKT score ||g_l|| exceeds `thresh`.
        Returns whether W grew, and `res` mapped onto the new W (new rows
        start at B = u = 0; rho is kept, and `solve_step_a` rescales u if it
        changes rho)."""
        if res is None:
            self.fitted = np.zeros_like(ZwP)
            self.G = 2.0 * (self.K.T @ P)
        else:
            self.fitted = self.X_W @ res.B
            self.G = 2.0 * (self.X.T @ (ZwP - self.fitted))
        score = np.linalg.norm(self.G, axis=1)
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

    def solve(self, ZwP: np.ndarray, P: np.ndarray, cfg: SolverConfig,
              res: StepAResult | None) -> StepAResult | None:
        """Step A for the response scores Zw P = Z Theta over every column
        of X, solved on W.

        A KKT pass first adds every column outside W that violates the
        zero-row condition at the warm answer `res`; then `solve_step_a`
        runs on X_W, warm from `res`, and another pass adds the violators of
        its answer, until a pass adds none (the answer is then optimal over
        every column, within the inner tolerance). A solve that hits the
        inner cap certifies nothing: its pass scores the answer but adds no
        column, and the step ends, reported unconverged. So every step ends
        on a pass, and `fitted` and `G` are at its answer. At r > 0 W is
        every column, so both passes add nothing and one solve runs. None
        when W is empty: B = 0 passed every column's test.
        """
        pen = cfg.penalty
        thresh = pen.lam * pen.delta
        _, res = self.kkt_pass(ZwP, P, res, thresh)
        while len(self.cols) > 0:
            if self.gram is None:
                self.gram = GramSolver(self.X_W)
            res = solve_step_a(self.X_W, ZwP, pen, cfg.rho,
                               tol=cfg.inner_tol, max_iter=cfg.inner_max_iter,
                               gram=self.gram, warm=res)
            self.inner_iters += res.n_iter
            grew, res = self.kkt_pass(ZwP, P, res,
                                      thresh if res.converged else np.inf)
            if not grew:
                break
        return res


def check_theta_invariants(Theta: np.ndarray, D: np.ndarray,
                           q1: np.ndarray, tol: float = 1e-8) -> None:
    """Assert D-orthonormality of the score columns and deflation against
    the constant score."""
    G, c = Theta.T @ D @ Theta, Theta.T @ D @ q1
    for i in range(Theta.shape[1]):
        if abs(G[i, i] - 1) > tol:
            raise NumericError(f"theta_{i} is not D-unit")
        if abs(c[i]) > tol:
            raise NumericError(f"theta_{i} not deflated against constant score")
        for j in range(i):
            if abs(G[i, j]) > tol:
                raise NumericError(f"theta_{i} not D-orthogonal to theta_{j}")


def column_signs(V: np.ndarray) -> np.ndarray:
    """+1 or -1 per column: the sign that makes the column's
    largest-magnitude entry positive (first such entry on ties)."""
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def _scores(L: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Theta = L^-T [0; P], so that Z Theta = Zw P (see `ScoringDesign`)."""
    return np.linalg.solve(L.T, np.vstack([np.zeros((1, P.shape[1])), P]))


def init_theta(K: np.ndarray, d: int) -> np.ndarray:
    """The orthonormal P that maximizes ||X^T Zw P||_F, given K = Zw^T X:
    the top d eigenvectors of K K^T."""
    if d > len(K):
        raise ValidationError(f"d={d} must be <= h-1={len(K)}")
    return np.linalg.eigh(K @ K.T)[1][:, ::-1][:, :d]


def theta_step(zwtxb: np.ndarray,
               P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal P that minimizes ||Zw P - X B||^2, given
    zwtxb = Zw^T X B = U s Vt: the polar factor U Vt (Schoenemann 1966).
    When zwtxb has rank < d the maximizer of tr(P^T zwtxb) is not unique,
    and `P` is returned unchanged, which cannot raise the objective.
    Returned with Vt: zwtxb Vt^T has orthogonal columns, largest first."""
    U, s, Vt = np.linalg.svd(zwtxb, full_matrices=False)
    if s[-1] <= _RANK_TOL * s[0]:
        return P, Vt
    return U @ Vt, Vt


def fit(x: PredictorMatrix, design: ScoringDesign,
        cfg: SolverConfig) -> DirectionSet:
    """Alternate the coefficient subproblem (step A) and the exact score
    step `theta_step`, starting at `init_theta`'s scores, where the KKT
    pass's column scores at B = 0 peak, until the score step leaves the span
    of step A's scores by less than `outer_tol` (a rotation within it moves
    neither the objective nor B's row norms) or the outer cap is hit. Both
    ways the last step A's (Theta, B) is returned; `objective_history` is
    the objective at each step A's answer. At d = h - 1 every start spans
    the same scores, so the loop stops at outer iteration 1 and
    `inner_max_iter` caps the fit's only step A.

    The loop holds the scores as an orthonormal P, with Z Theta = Zw P
    (see `ScoringDesign`). Its only solve with L is the stopping test, which
    measures the off-span part in Theta's coordinates. At the end (P, B) is
    rotated once, by the last score step's Vt, so that Zw^T X B has
    orthogonal columns, largest first; then Theta = L^-T [0; P] is formed,
    signed by `column_signs` and checked.

    Each coefficient step is solved on a working set W of columns (see
    `_WorkingSet.solve`), so a sparse answer factors a |W| x |W| Gram
    matrix, not one as wide as X. At r = 0, W starts empty and grows by the
    columns that fail the zero-row KKT test ||2 X_l^T (Zw P - X B)|| <=
    lambda delta; the first pass, at B = 0, is 2 K^T P, from the
    K = Zw^T X that `init_theta` reads. At r > 0 that test certifies
    nothing (the penalty's slope is infinite at zero): W is every column.
    The objective and the score step read the fitted values X_W B_W of
    each step's closing pass. `working_set_size` is |W| at the end.

    When r = 0 and lambda > 0, `kkt_max_rel` is the largest
    `kkt_violations` entry over every column at the returned Theta and B,
    read from the last step's closing pass; None otherwise. `inner_iters`
    is the sum of the ADMM iterations of every step-A solve the fit ran.
    X is `x`'s cells centered by `center`.
    """
    if x.n_samples != design.n_samples:
        raise ValidationError("design/predictor sample counts differ")

    X, _ = center(x)
    Zw, L = design.Zw, design.L
    d, pen = cfg.d, cfg.penalty
    K = Zw.T @ X
    P_next = init_theta(K, d)
    ws = _WorkingSet(X, K, every=pen.r > 0)

    history: list[float] = []
    converged, inner_ok, res = False, True, None
    for outer in range(1, cfg.outer_max_iter + 1):
        P = P_next
        ZwP = Zw @ P
        res = ws.solve(ZwP, P, cfg, res)
        inner_ok = inner_ok and (res is None or res.converged)
        B_W = np.zeros((0, d)) if res is None else res.B
        history.append(step_a_objective(ws.fitted, ZwP, B_W, pen))
        P_next, Vt = theta_step(Zw.T @ ws.fitted, P)
        off_span = _scores(L, P_next - P @ (P.T @ P_next))
        if np.linalg.norm(off_span, axis=0).max() < cfg.outer_tol:
            converged = True
            break

    B = np.zeros((X.shape[1], d))
    B[ws.cols] = B_W
    kkt = None
    if pen.r == 0 and pen.lam > 0:
        kkt = float(np.max(kkt_violations(ws.G, B, pen), initial=0.0))
    Theta = _scores(L, P @ Vt.T)   # the final rotation (see above)
    signs = column_signs(Theta)
    B, Theta = B @ (Vt.T * signs), Theta * signs
    check_theta_invariants(Theta, design.D, np.eye(design.h)[0])
    return DirectionSet(B=B, Theta=Theta, converged=converged,
                        outer_iters=outer, objective_history=history,
                        inner_converged=inner_ok, kkt_max_rel=kkt,
                        working_set_size=len(ws.cols),
                        inner_iters=ws.inner_iters)
