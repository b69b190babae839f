"""Response-side basis expansion: slice indicators with a leading constant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Phenotype
from .errors import ValidationError


@dataclass
class ScoringDesign:
    """Z = [phi(y_1), ..., phi(y_n)]^T with phi = [1, slice indicators],
    D = Z^T Z / n = L L^T, and Zw = Z L^-T less its first column
    (Zw^T Zw = n I): scores Theta = L^-T [0; P] are D-orthonormal and deflated
    exactly when P is orthonormal, and then Z Theta = Zw P. Immutable."""

    Z: np.ndarray
    D: np.ndarray
    L: np.ndarray
    Zw: np.ndarray
    h: int
    slice_assignments: np.ndarray  # n-vector of slice index in [0, h)

    @property
    def n_samples(self) -> int:
        return self.Z.shape[0]


def _assign_continuous_slices(y: np.ndarray, h: int) -> np.ndarray:
    """Near-equal slices at empirical quantiles i/h, ties broken by sample
    order (stable sort), so the assignment is deterministic."""
    n = len(y)
    order = np.argsort(y, kind="stable")
    sizes = np.full(h, n // h)
    sizes[: n % h] += 1
    assign = np.empty(n, dtype=int)
    start = 0
    for s, size in enumerate(sizes):
        assign[order[start:start + size]] = s
        start += size
    return assign


def slice_count(y: Phenotype, h: int | None = None) -> int:
    """The slice count of `y`'s design: a binary or categorical response's
    level count, which `h` must equal when given; a continuous response's
    `h`, at least 2 and at most the sample count."""
    if y.kind == "continuous":
        if h is None or h < 2:
            raise ValidationError("a continuous response needs design.h >= 2")
        if len(y.labels) < h:
            raise ValidationError(f"need n >= h, got n={len(y.labels)}, h={h}")
        return h
    if h not in (None, y.n_levels):
        raise ValidationError(f"h={h} but the response has {y.n_levels} levels")
    if y.n_levels < 2:
        raise ValidationError("h must be at least 2")
    return y.n_levels


def build_design(y: Phenotype, h: int | None = None) -> ScoringDesign:
    """Slice the response into `slice_count(y, h)` slices and build Z
    (n x h), D = Z^T Z / n, L and Zw. No slice is empty: each level of a
    `Phenotype` has a sample, and each of h quantile slices of n >= h
    samples holds at least n // h."""
    n = len(y.labels)
    h = slice_count(y, h)
    if y.kind == "continuous":
        assign = _assign_continuous_slices(y.labels, h)
    else:
        assign = np.empty(n, dtype=int)
        for s, code in enumerate(y.level_codes):
            assign[np.asarray(y.labels) == code] = s
    Z = np.zeros((n, h))
    Z[:, 0] = 1.0
    for s in range(1, h):
        Z[assign == s, s] = 1.0
    D = Z.T @ Z / n
    L = np.linalg.cholesky(D)
    Zw = np.linalg.solve(L, Z.T)[1:].T
    return ScoringDesign(Z=Z, D=D, L=L, Zw=Zw, h=h, slice_assignments=assign)
