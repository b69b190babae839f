"""Line-oriented `key = value` run configuration with dotted section keys."""

from __future__ import annotations

from dataclasses import dataclass, field

from .admm import PenaltyParams
from .dataset import _decode, _file_lines
from .errors import ValidationError
from .optimal_scoring import SolverConfig
from .screening import ScreeningPlan, Stage


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines, ended by line feeds alone; '#' starts a
    comment, blank lines ignored. A key set on two lines is refused, naming
    both."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}   # key -> line that set it
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ValidationError(f"config key {key!r} set twice, at lines "
                                  f"{seen[key]} and {lineno}")
        seen[key] = lineno
        out[key] = value
    return out


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
    solver: SolverConfig = field(default_factory=SolverConfig)
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


# Each accepted key -> (section, field, cast). Only the keys a file sets are
# passed on, so every default lives in its dataclass.
_KEYS = {
    "penalty.lambda": ("penalty", "lam", float),
    "penalty.delta": ("penalty", "delta", float),
    "penalty.r": ("penalty", "r", float),
    "penalty.rho": ("solver", "rho", float),
    "solver.d": ("solver", "d", int),
    "solver.outer_tol": ("solver", "outer_tol", float),
    "solver.outer_max_iter": ("solver", "outer_max_iter", int),
    "solver.inner_tol": ("solver", "inner_tol", float),
    "solver.inner_max_iter": ("solver", "inner_max_iter", int),
    "screen.stages": ("run", "stages", _parse_stages),
    "cv.folds": ("run", "cv_folds", int),
    "cv.method": ("run", "cv_method", str),
    "cv.top_m": ("run", "top_m", int),
    "cv.knn_k": ("run", "knn_k", int),
    "design.h": ("run", "h", int),
    "simulate.n": ("run", "sim_n", int),
    "simulate.p": ("run", "sim_p", int),
    "simulate.maf_low": ("run", "sim_maf_low", float),
    "simulate.maf_high": ("run", "sim_maf_high", float),
    "simulate.support": ("run", "sim_support", int),
    "simulate.effect": ("run", "sim_effect", float),
    "simulate.link": ("run", "sim_link", str),
}


def _take(raw: dict, section: str) -> dict:
    """Pop the keys `raw` sets for `section` and cast each to its field."""
    out = {}
    for key, (sec, name, cast) in _KEYS.items():
        if sec == section and key in raw:
            value = raw.pop(key)
            try:
                out[name] = cast(value)
            except ValueError:
                raise ValidationError(
                    f"config key {key!r}: bad value {value!r}")
    return out


def load_run_config(path) -> RunConfig:
    """The settings of the config file at `path`, whose lines end as a data
    file's do (`dataset._file_lines`). A line that is not UTF-8 is refused
    with its number."""
    with open(path, "rb") as fh:
        raw = parse_config_text("\n".join(
            _decode(path, lineno, line) for lineno, line in _file_lines(fh)))
    solver = SolverConfig(penalty=PenaltyParams(**_take(raw, "penalty")),
                          **_take(raw, "solver"))
    cfg = RunConfig(solver=solver, **_take(raw, "run"))
    if raw:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(raw))}")
    return cfg
