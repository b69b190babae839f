"""Response-side basis expansion: slice indicators with a leading constant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Phenotype
from .errors import ValidationError


@dataclass
class ScoringDesign:
    """Z = [phi(y_1), ..., phi(y_n)]^T with phi = [1, slice indicators] and
    D = Z^T Z / n. Immutable after construction."""

    Z: np.ndarray
    D: np.ndarray
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


def build_design(y: Phenotype, h: int | None = None) -> ScoringDesign:
    """Slice the response and build Z (n x h) and D = Z^T Z / n."""
    n = len(y.labels)
    if y.kind in ("binary", "categorical"):
        levels = y.level_codes
        if h is None:
            h = len(levels)
        if h != len(levels):
            raise ValidationError(
                f"h={h} but the response has {len(levels)} levels")
        if h < 2:
            raise ValidationError("h must be at least 2")
        assign = np.empty(n, dtype=int)
        for s, code in enumerate(levels):
            assign[np.asarray(y.labels) == code] = s
    else:
        if h is None or h < 2:
            raise ValidationError("h must be at least 2")
        if n < h:
            raise ValidationError(f"need n >= h, got n={n}, h={h}")
        assign = _assign_continuous_slices(y.labels, h)

    for s in range(h):
        if not np.any(assign == s):
            raise ValidationError(f"slice {s + 1} of {h} is empty")

    Z = np.zeros((n, h))
    Z[:, 0] = 1.0
    for s in range(1, h):
        Z[assign == s, s] = 1.0
    D = Z.T @ Z / n
    return ScoringDesign(Z=Z, D=D, h=h, slice_assignments=assign)
