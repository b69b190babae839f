"""Spans around calls into the program's modules, recorded from outside.

`Tracer.install` replaces module attributes of `sparsesdr` with wrappers that
record a span per call (name, start, end, parent, thread) and a few facts
read from the call's arguments or result. Nothing under `src/` is changed;
`uninstall` puts the originals back. Spans stay in memory until the pass
ends, and `layer_metrics` turns them into one number per metric.

A span's parent is the innermost open span on its own thread. A span opened
on a thread with no open span (a screening pool worker) takes the innermost
open span of the thread that installed the tracer, which is `run_plan`.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _load_info(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)}


def _gram_info(args, kwargs, result):
    X = _arg(args, kwargs, 0, "X")
    return {"shape": X.shape, "mode": getattr(result, "mode", None)}


def _step_a_info(args, kwargs, result):
    X = _arg(args, kwargs, 0, "X")
    Ztheta = _arg(args, kwargs, 1, "Ztheta")
    n, p = X.shape
    return {"shape": (n, p, Ztheta.shape[1]),
            "mode": getattr(kwargs.get("gram"), "mode", None),
            "n_iter": int(getattr(result, "n_iter", 0)),
            "converged": bool(getattr(result, "converged", True))}


def _fit_info(args, kwargs, result):
    return {"outer_iters": int(getattr(result, "outer_iters", 0)),
            "converged": bool(getattr(result, "converged", True))}


def _run_plan_info(args, kwargs, result):
    return {"n_workers": int(kwargs.get("n_workers", 1))}


# (module, attribute, span name, info reader). A function reached through
# two modules is wrapped in both; each call passes through one of them.
WRAPS = [
    ("cli", "load_predictors", "dataset.load_predictors", _load_info),
    ("cli", "center", "dataset.center", None),
    ("screening", "center", "dataset.center", None),
    ("evaluation", "center", "dataset.center", None),
    ("cli", "build_design", "scoring.build_design", None),
    ("screening", "build_design", "scoring.build_design", None),
    ("optimal_scoring", "fit", "optimal_scoring.fit", _fit_info),
    ("optimal_scoring", "solve_step_a", "admm.step_a", _step_a_info),
    ("optimal_scoring", "GramSolver", "admm.gram", _gram_info),
    ("optimal_scoring", "theta_step", "optimal_scoring.theta_step", None),
    ("cli", "run_plan", "screening.run_plan", _run_plan_info),
    ("evaluation", "run_plan", "screening.run_plan", _run_plan_info),
    ("cli", "fit_classifier", "evaluation.fit_classifier", None),
    ("evaluation", "fit_classifier", "evaluation.fit_classifier", None),
    ("cli", "predict", "evaluation.predict", None),
    ("evaluation", "predict", "evaluation.predict", None),
    ("cli", "chi2_rank", "evaluation.chi2_rank", None),
    ("evaluation", "chi2_rank", "evaluation.chi2_rank", None),
    ("evaluation", "knn_predict", "evaluation.knn_predict", None),
    ("cli", "cross_validate", "evaluation.cross_validate", None),
    ("evaluation", "cross_validate", "evaluation.cross_validate", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._root = threading.get_ident()
        self._saved = []

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            source = stack or self._stacks.get(self._root, [])
            parent = source[-1] if source else None
            self.spans.append(Span(name, time.perf_counter(), parent=parent,
                                   thread=tid))
            idx = len(self.spans) - 1
            stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[idx].end = end
            self._stacks[threading.get_ident()].pop()

    def call(self, name, fn, *args, info=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if info is not None:
            self.spans[idx].info = info(args, kwargs, result)
        return result

    def install(self) -> None:
        self.missing = []
        for mod_name, attr, name, info in WRAPS:
            module = importlib.import_module(f"sparsesdr.{mod_name}")
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue

            def wrapper(*args, _orig=orig, _name=name, _info=info, **kwargs):
                return self.call(_name, _orig, *args, info=_info, **kwargs)

            setattr(module, attr, wrapper)
            self._saved.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


# ------------------------------------------------------------ metrics

def _union_len(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def admm_kernel(n: int, p: int, d: int, mode: str) -> tuple[float, float]:
    """Floating-point operations and bytes of one ADMM iteration's Gram
    solve, computed from the shapes (not measured).

    Woodbury: X r, an n x n triangular solve pair and X^T y, so 4npd + 2n^2d
    operations over X twice and the n x n factor. Direct: a p x p triangular
    solve pair, 2p^2d operations over the p x p factor. Bytes count float64
    matrices streamed once per use; vectors and cache reuse are ignored.
    """
    if mode == "woodbury":
        return 4.0 * n * p * d + 2.0 * n * n * d, 8.0 * (2 * n * p + n * n)
    return 2.0 * p * p * d, 8.0 * p * p


# name -> unit, in the order they are reported
UNITS = {
    "dataset.load_predictors.s": "s",
    "dataset.load_predictors.mb_per_s": "MB/s",
    "dataset.center.s": "s",
    "scoring.build_design.s": "s",
    "admm.step_a.calls": "count",
    "admm.step_a.s": "s",
    "admm.inner_iters": "count",
    "admm.us_per_iter": "us",
    "admm.cap_hit_frac": "ratio",
    "admm.gram.calls": "count",
    "admm.gram.s": "s",
    "admm.gram.woodbury_frac": "ratio",
    "admm.flop_per_iter_computed": "flop",
    "admm.bytes_per_iter_computed": "B",
    "admm.flop_per_byte_computed": "flop/B",
    "optimal_scoring.fit.calls": "count",
    "optimal_scoring.fit.s": "s",
    "optimal_scoring.fit.self_s": "s",
    "optimal_scoring.outer_iters": "count",
    "optimal_scoring.outer_cap_hit_frac": "ratio",
    "optimal_scoring.theta_step.s": "s",
    "screening.run_plan.s": "s",
    "screening.partition_fit.s_p50": "s",
    "screening.partition_fit.s_max": "s",
    "screening.final_fit.s": "s",
    "screening.worker_busy_frac": "ratio",
    "evaluation.chi2_rank.s": "s",
    "evaluation.knn_predict.calls": "count",
    "evaluation.knn_predict.s": "s",
    "evaluation.cross_validate.self_s": "s",
    "evaluation.fit_classifier.s": "s",
    "evaluation.predict.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], untraced_s: float) -> dict:
    """One value per name in UNITS for a traced pass whose root spans are
    `cli.main`. `untraced_s` is the paired untraced pass's wall time less
    the process start-up (interpreter and imports) of its commands, so that
    `trace.overhead_s` compares like with like; it is small next to the
    pass-to-pass noise and can come out negative."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.dur for s in named(name))

    def self_total(name):
        out = 0.0
        for i, s in enumerate(spans):
            if s.name == name:
                kids = [(max(c.start, s.start), min(c.end, s.end))
                        for c in children.get(i, [])]
                out += s.dur - _union_len(kids)
        return out

    m = {}
    load_s = total("dataset.load_predictors")
    load_mb = sum(s.info.get("bytes", 0)
                  for s in named("dataset.load_predictors"))
    m["dataset.load_predictors.s"] = load_s
    m["dataset.load_predictors.mb_per_s"] = _ratio(load_mb / 1e6, load_s)
    m["dataset.center.s"] = total("dataset.center")
    m["scoring.build_design.s"] = total("scoring.build_design")

    # a call that raised has no info; it counts as a call without iterations
    steps = named("admm.step_a")
    iters = sum(s.info.get("n_iter", 0) for s in steps)
    flop = byte = 0.0
    for s in steps:
        if not s.info:
            continue
        f, b = admm_kernel(*s.info["shape"], s.info["mode"])
        flop += f * s.info["n_iter"]
        byte += b * s.info["n_iter"]
    m["admm.step_a.calls"] = len(steps)
    m["admm.step_a.s"] = total("admm.step_a")
    m["admm.inner_iters"] = iters
    m["admm.us_per_iter"] = _ratio(1e6 * m["admm.step_a.s"], iters)
    m["admm.cap_hit_frac"] = _ratio(
        sum(not s.info.get("converged", False) for s in steps), len(steps))
    grams = named("admm.gram")
    m["admm.gram.calls"] = len(grams)
    m["admm.gram.s"] = total("admm.gram")
    m["admm.gram.woodbury_frac"] = _ratio(
        sum(s.info.get("mode") == "woodbury" for s in grams), len(grams))
    m["admm.flop_per_iter_computed"] = _ratio(flop, iters)
    m["admm.bytes_per_iter_computed"] = _ratio(byte, iters)
    m["admm.flop_per_byte_computed"] = _ratio(flop, byte)

    fits = named("optimal_scoring.fit")
    m["optimal_scoring.fit.calls"] = len(fits)
    m["optimal_scoring.fit.s"] = total("optimal_scoring.fit")
    m["optimal_scoring.fit.self_s"] = self_total("optimal_scoring.fit")
    m["optimal_scoring.outer_iters"] = sum(s.info.get("outer_iters", 0)
                                           for s in fits)
    m["optimal_scoring.outer_cap_hit_frac"] = _ratio(
        sum(not s.info.get("converged", False) for s in fits), len(fits))
    m["optimal_scoring.theta_step.s"] = total("optimal_scoring.theta_step")

    # Within one run_plan call every partition fit ends before the final
    # fit starts, so the last fit child by start time is the final fit.
    partition_s, final_s, capacity = [], 0.0, 0.0
    for i, s in enumerate(spans):
        if s.name != "screening.run_plan":
            continue
        kids = sorted((c for c in children.get(i, [])
                       if c.name == "optimal_scoring.fit"),
                      key=lambda c: c.start)
        if kids:
            final_s += kids[-1].dur
            partition_s += [c.dur for c in kids[:-1]]
        capacity += s.info.get("n_workers", 1) * s.dur
    m["screening.run_plan.s"] = total("screening.run_plan")
    m["screening.partition_fit.s_p50"] = (float(np.median(partition_s))
                                          if partition_s else 0.0)
    m["screening.partition_fit.s_max"] = max(partition_s, default=0.0)
    m["screening.final_fit.s"] = final_s
    m["screening.worker_busy_frac"] = _ratio(sum(partition_s), capacity)

    m["evaluation.chi2_rank.s"] = total("evaluation.chi2_rank")
    m["evaluation.knn_predict.calls"] = len(named("evaluation.knn_predict"))
    m["evaluation.knn_predict.s"] = total("evaluation.knn_predict")
    m["evaluation.cross_validate.self_s"] = self_total(
        "evaluation.cross_validate")
    m["evaluation.fit_classifier.s"] = total("evaluation.fit_classifier")
    m["evaluation.predict.s"] = total("evaluation.predict")

    m["cli.main.s"] = total("cli.main")
    m["cli.main.self_s"] = self_total("cli.main")
    m["trace.overhead_s"] = m["cli.main.s"] - untraced_s
    assert list(m) == list(UNITS)
    return m
