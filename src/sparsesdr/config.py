"""Line-oriented `key = value` run configuration with dotted section keys."""

from __future__ import annotations

from dataclasses import dataclass, field

from .admm import PenaltyParams
from .errors import ValidationError
from .optimal_scoring import SolverConfig
from .screening import ScreeningPlan, Stage


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _get(raw: dict, key: str, cast, default):
    """Pop `key` from `raw` and cast its value; keys never popped are
    unknown to the loader."""
    if key not in raw:
        return default
    value = raw.pop(key)
    try:
        return cast(value)
    except ValueError:
        raise ValidationError(f"config key {key!r}: bad value {value!r}")


def _parse_stages(text: str) -> list[Stage]:
    """Stage list as `n_partitions:keep` pairs, comma separated,
    e.g. `20:2000, 4:1500`."""
    stages = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n, keep = part.split(":")
            stages.append(Stage(int(n), int(keep)))
        except ValueError:
            raise ValidationError(f"bad stage spec {part!r} (want n:keep)")
    if not stages:
        raise ValidationError("empty stage list")
    return stages


@dataclass
class RunConfig:
    solver: SolverConfig
    stages: list[Stage] = field(default_factory=list)
    cv_folds: int = 5
    cv_method: str = "sparse_sdr"
    top_m: int | None = None
    knn_k: int | None = None
    h: int | None = None
    # simulate-only knobs
    sim_n: int = 200
    sim_p: int = 100
    sim_maf_low: float = 0.05
    sim_maf_high: float = 0.5
    sim_support: int = 0
    sim_effect: float = 1.0
    sim_link: str = "logistic"

    def plan(self) -> ScreeningPlan:
        return ScreeningPlan(self.stages, self.solver)


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    penalty = PenaltyParams(
        lam=_get(raw, "penalty.lambda", float, 0.0),
        delta=_get(raw, "penalty.delta", float, 1.0),
        r=_get(raw, "penalty.r", float, 0.0),
        rho=_get(raw, "penalty.rho", float, 1.0),
    )
    solver = SolverConfig(
        d=_get(raw, "solver.d", int, 1),
        penalty=penalty,
        outer_tol=_get(raw, "solver.outer_tol", float, 1e-5),
        outer_max_iter=_get(raw, "solver.outer_max_iter", int, 100),
        inner_tol=_get(raw, "solver.inner_tol", float, 1e-6),
        inner_max_iter=_get(raw, "solver.inner_max_iter", int, 1000),
    )
    cfg = RunConfig(
        solver=solver,
        stages=_get(raw, "screen.stages", _parse_stages, []),
        cv_folds=_get(raw, "cv.folds", int, 5),
        cv_method=_get(raw, "cv.method", str, "sparse_sdr"),
        top_m=_get(raw, "cv.top_m", int, None),
        knn_k=_get(raw, "cv.knn_k", int, None),
        h=_get(raw, "design.h", int, None),
        sim_n=_get(raw, "simulate.n", int, 200),
        sim_p=_get(raw, "simulate.p", int, 100),
        sim_maf_low=_get(raw, "simulate.maf_low", float, 0.05),
        sim_maf_high=_get(raw, "simulate.maf_high", float, 0.5),
        sim_support=_get(raw, "simulate.support", int, 0),
        sim_effect=_get(raw, "simulate.effect", float, 1.0),
        sim_link=_get(raw, "simulate.link", str, "logistic"),
    )
    if raw:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(raw))}")
    return cfg
