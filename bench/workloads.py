"""Benchmark workloads: synthetic inputs made from a seed, the `sparsesdr`
commands each workload runs, and the checks applied to their outputs.

Inputs are generated here with numpy alone, so a change to the program's own
simulator cannot change what the benchmark feeds it. The program only ever
sees the TSV and config files written by `prepare`.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FULL = "full"
SMOKE = "smoke"


class CheckError(Exception):
    """A command's output is missing, does not parse or is wrong."""


@dataclass
class Inputs:
    """Files written for one workload, and what the checks need to know
    about them (the planted support, held-out labels, training data)."""

    files: dict[str, Path]
    feature_ids: list[str]
    truth: dict = field(default_factory=dict)


@dataclass
class Command:
    """One CLI invocation: its arguments after `sparsesdr`, the output
    directory it writes (appended as `--out`), and the check run on that
    directory."""

    args: list[str]
    out: Path
    check: Callable[[Path], dict]  # returns the answer fields it read

    def __post_init__(self):
        self.args = self.args + ["--out", str(self.out)]


# ---------------------------------------------------------------- inputs

def _dosages(rng, n: int, p: int, maf_range=(0.1, 0.4)):
    """Binomial(2, q_j) dosages with per-feature frequency q_j ~ U(maf_range)."""
    maf = rng.uniform(*maf_range, size=p)
    return rng.binomial(2, maf, size=(n, p)).astype(np.int8), maf


def _score(x, maf, planted, effect):
    return (x[:, planted] - 2.0 * maf[planted]) @ np.full(len(planted), effect)


def write_predictors(path: Path, x: np.ndarray, sample_ids, feature_ids):
    """Write 0/1/2 dosages as TSV: header `id` + feature ids, one row per
    sample. Each row is built as one byte string of digits and tabs."""
    n, p = x.shape
    cells = np.empty((n, 2 * p), dtype=np.uint8)
    cells[:, 0::2] = ord("\t")
    cells[:, 1::2] = x.astype(np.uint8) + ord("0")
    with open(path, "wb") as fh:
        fh.write(("\t".join(["id"] + list(feature_ids)) + "\n").encode())
        for sid, row in zip(sample_ids, cells):
            fh.write(sid.encode() + row.tobytes() + b"\n")


def write_labels(path: Path, sample_ids, labels):
    path.write_text("".join(f"{s}\t{int(v)}\n"
                            for s, v in zip(sample_ids, labels)))


def write_config(path: Path, settings: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))


def _binary_inputs(rng, workdir: Path, n: int, p: int, n_planted: int,
                   settings: dict):
    """Write a case/control cohort (x.tsv, y.tsv) whose logistic labels are
    driven by `n_planted` random features at effect 1.8, and the run config.
    Returns (Inputs, dosages, labels)."""
    x, maf = _dosages(rng, n, p)
    planted = np.sort(rng.choice(p, size=n_planted, replace=False))
    prob = 1.0 / (1.0 + np.exp(-_score(x, maf, planted, 1.8)))
    labels = (rng.uniform(size=n) < prob).astype(int)
    samples = [f"s{i}" for i in range(n)]
    features = [f"f{j}" for j in range(p)]
    files = {"x": workdir / "x.tsv", "y": workdir / "y.tsv",
             "cfg": workdir / "run.cfg"}
    write_predictors(files["x"], x, samples, features)
    write_labels(files["y"], samples, labels)
    write_config(files["cfg"], settings)
    truth = {"planted": [features[j] for j in planted]}
    return Inputs(files, features, truth), x, labels


# ---------------------------------------------------------------- parsing

def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _read_tsv(path: Path):
    """(header cells, list of row cells); every row must have the header's
    width."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if not lines:
        raise CheckError(f"{path.name}: empty")
    head = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:] if ln]
    for i, row in enumerate(rows):
        if len(row) != len(head):
            raise CheckError(f"{path.name}: row {i + 1} has {len(row)} cells, "
                             f"header has {len(head)}")
    return head, rows


def _floats(path: Path, rows, cols) -> np.ndarray:
    try:
        return np.array([[float(r[c]) for c in cols] for r in rows])
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _digest(ids) -> str:
    return hashlib.sha256("\n".join(ids).encode()).hexdigest()[:16]


def _fingerprint(ids) -> dict:
    """Ids, their count and a short digest, to see at a glance whether the
    answer changed. Order is kept: callers sort ids that form a set."""
    return {"ids": list(ids), "count": len(ids), "digest": _digest(ids)}


def _cv_report(outdir: Path, folds: int) -> dict:
    report = _read_json(outdir / "cv_report.json")
    got = len(report.get("folds", []))
    if got != folds:
        raise CheckError(f"cv_report.json has {got} folds, want {folds}")
    for f in report["folds"]:
        for key in ("accuracy", "auc", "sensitivity", "specificity"):
            v = f["test"][key]
            if not 0.0 <= v <= 1.0:
                raise CheckError(f"fold {f['fold']}: test {key} {v} "
                                 f"outside [0, 1]")
    _, rows = _read_tsv(outdir / "cv_report.tsv")
    if len(rows) != folds + 1:
        raise CheckError(f"cv_report.tsv has {len(rows)} rows, want "
                         f"{folds + 1}")
    avg = report["averages"]
    # The reports name no selected ids, so the fingerprint digests every
    # fold's figures instead: any change in a fold's answer shows there.
    return {"test_auc": avg["test_auc"],
            "test_accuracy": avg["test_accuracy"],
            "fold_n_selected": [f["n_selected"] for f in report["folds"]],
            "fold_rows_digest": _digest("\t".join(r) for r in rows)}


# ---------------------------------------------------------------- oracles

def chi2_stats(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Pearson chi-square of each feature's 2 x 3 case/control-by-dosage
    table, empty dosage columns dropped (0 when one column remains)."""
    case = labels == labels.max()
    n, n_case = len(labels), int(case.sum())
    stat = np.zeros(x.shape[1])
    nonempty = np.zeros(x.shape[1], dtype=int)
    for g in range(3):
        hit = x == g
        col = hit.sum(axis=0).astype(float)
        obs_case = hit[case].sum(axis=0)
        used = col > 0
        nonempty += used
        for obs, share in ((obs_case, n_case / n),
                           (col - obs_case, (n - n_case) / n)):
            exp = col * share
            stat[used] += (obs[used] - exp[used]) ** 2 / exp[used]
    stat[nonempty < 2] = 0.0
    return stat


def kkt_max_rel(x: np.ndarray, labels: np.ndarray, B: np.ndarray,
                Theta: np.ndarray, lam: float) -> float:
    """Largest relative violation of the step-A optimality conditions at
    (B, Theta) for the group-lasso penalty (delta = 1, r = 0).

    With g_l = 2 X_l^T (Z Theta - X B): a zero row needs ||g_l|| <= lam and
    contributes max(||g_l|| - lam, 0) / lam; a nonzero row needs
    g_l = lam b_l / ||b_l|| and contributes ||g_l - lam b_l / ||b_l|| || / lam.
    """
    X = x - x.mean(axis=0)
    levels = np.unique(labels)
    Z = np.zeros((len(labels), len(levels)))
    Z[:, 0] = 1.0
    for s, level in enumerate(levels[1:], start=1):
        Z[labels == level, s] = 1.0
    G = 2.0 * X.T @ (Z @ Theta - X @ B)
    norms = np.linalg.norm(B, axis=1)
    nz = norms > 0
    viol = np.maximum(np.linalg.norm(G, axis=1) - lam, 0.0) / lam
    viol[nz] = np.linalg.norm(
        G[nz] - lam * B[nz] / norms[nz, None], axis=1) / lam
    return float(viol.max())


# ---------------------------------------------------------------- workloads

class Workload:
    """A named set of inputs and the commands run on them."""

    name = ""

    def __init__(self, scale: str = FULL):
        self.scale = scale

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        raise NotImplementedError

    def commands(self, inputs: Inputs, seed: int,
                 outroot: Path) -> list[Command]:
        """The commands of one pass, writing under `outroot`."""
        raise NotImplementedError


class ScreenWide(Workload):
    """The README screen: 400 x 5000 dosages, 10 planted features, stages
    10:50 then 2:100 on 2 workers. ADMM dominates it; its 500-column stage-1
    partitions take the Woodbury Gram path, and it is the only workload that
    uses the worker pool."""

    name = "screen_wide"
    SIZES = {FULL: dict(n=400, p=5000, planted=10, stages="10:50, 2:100"),
             SMOKE: dict(n=60, p=300, planted=3, stages="4:10, 2:5")}

    def prepare(self, seed, workdir):
        s = self.SIZES[self.scale]
        inputs, _, _ = _binary_inputs(
            np.random.default_rng([seed, 1]), workdir, s["n"], s["p"],
            s["planted"], {"penalty.lambda": 70, "penalty.rho": 2,
                           "solver.d": 1, "screen.stages": s["stages"]})
        return inputs

    def commands(self, inputs, seed, outroot):
        f = inputs.files

        def check(outdir):
            sel = _read_json(outdir / "selection.json")
            selected = sel.get("selected")
            if not isinstance(selected, list) or not isinstance(
                    sel.get("converged"), bool):
                raise CheckError("selection.json lacks selected/converged")
            unknown = set(selected) - set(inputs.feature_ids)
            if unknown:
                raise CheckError(f"unknown selected ids {sorted(unknown)[:5]}")
            _, rows = _read_tsv(outdir / "selection.tsv")
            final = sorted(r[0] for r in rows if r[2] == "final")
            if final != sorted(selected):
                raise CheckError("selection.tsv final rows differ from "
                                 "selection.json")
            planted = inputs.truth["planted"]
            return {"selected": _fingerprint(sorted(selected)),
                    "converged_reported": sel["converged"],
                    "support_recall":
                        len(set(selected) & set(planted)) / len(planted)}

        return [Command(["screen", "--x", str(f["x"]), "--y", str(f["y"]),
                         "--config", str(f["cfg"]), "--seed", str(seed),
                         "--threads", "2"], outroot / "screen", check)]


class CvBinary(Workload):
    """5-fold CV of sparse_sdr on 500 x 1200, stage 4:75 on 1 worker: the same
    ADMM layer through the direct Gram path (300 columns, 400 rows), plus
    per-fold centering, fit_classifier and predict. A change to the worker
    pool should leave it unchanged."""

    name = "cv_binary"
    SIZES = {FULL: dict(n=500, p=1200, stages="4:75"),
             SMOKE: dict(n=80, p=200, stages="2:10")}
    FOLDS = 5

    def prepare(self, seed, workdir):
        s = self.SIZES[self.scale]
        inputs, _, _ = _binary_inputs(
            np.random.default_rng([seed, 2]), workdir, s["n"], s["p"], 10,
            {"penalty.lambda": 40, "penalty.rho": 2, "solver.d": 1,
             "screen.stages": s["stages"], "cv.folds": self.FOLDS,
             "cv.method": "sparse_sdr"})
        return inputs

    def commands(self, inputs, seed, outroot):
        f = inputs.files
        return [Command(["cv", "--x", str(f["x"]), "--y", str(f["y"]),
                         "--config", str(f["cfg"]), "--seed", str(seed),
                         "--threads", "1"], outroot / "cv",
                        lambda outdir: _cv_report(outdir, self.FOLDS))]


class BaselineWide(Workload):
    """`assoc`, then 5-fold CV of pvalue_rank, on 400 x 10000: ingest, the
    chi-square ranking and k-NN with no ADMM call, so solver changes should
    not move it and ingest or baseline changes should."""

    name = "baseline_wide"
    SIZES = {FULL: dict(n=400, p=10000), SMOKE: dict(n=60, p=300)}
    FOLDS = 5
    TOP_M = 10

    def prepare(self, seed, workdir):
        s = self.SIZES[self.scale]
        inputs, x, labels = _binary_inputs(
            np.random.default_rng([seed, 3]), workdir, s["n"], s["p"], 10,
            {"cv.folds": self.FOLDS, "cv.method": "pvalue_rank"})
        inputs.truth.update(x=x, labels=labels)
        return inputs

    def commands(self, inputs, seed, outroot):
        f = inputs.files

        def check_assoc(outdir):
            path = outdir / "assoc.tsv"
            head, rows = _read_tsv(path)
            if head != ["feature_id", "chi2", "p"]:
                raise CheckError(f"assoc.tsv header {head}")
            ids = [r[0] for r in rows]
            if sorted(ids) != sorted(inputs.feature_ids):
                raise CheckError("assoc.tsv does not list every feature once")
            vals = _floats(path, rows, (1, 2))
            if np.any(np.diff(vals[:, 1]) < 0):
                raise CheckError("assoc.tsv is not sorted by p")
            stats = dict(zip(inputs.feature_ids, chi2_stats(
                inputs.truth["x"], inputs.truth["labels"])))
            want = np.array([stats[i] for i in ids])
            if not np.allclose(vals[:, 0], want, rtol=1e-6, atol=1e-9):
                bad = int(np.argmax(np.abs(vals[:, 0] - want)))
                raise CheckError(f"chi2 of {ids[bad]} is {vals[bad, 0]}, "
                                 f"want {want[bad]}")
            return {"top_m": _fingerprint(ids[:self.TOP_M])}

        return [
            Command(["assoc", "--x", str(f["x"]), "--y", str(f["y"]),
                     "--seed", str(seed)], outroot / "assoc", check_assoc),
            Command(["cv", "--x", str(f["x"]), "--y", str(f["y"]),
                     "--config", str(f["cfg"]), "--seed", str(seed)],
                    outroot / "cv", lambda outdir: _cv_report(outdir,
                                                              self.FOLDS)),
        ]


class FitMulticlass(Workload):
    """A 3-class fit with d=2 on 600 of 800 rows, then predict on the 200
    held out: the only workload whose outer loop runs past 2 iterations, the
    only one with K > 2 and d > 1, and the only fit -> model.json -> predict
    round trip."""

    name = "fit_multiclass"
    SIZES = {FULL: dict(n=800, n_test=200, p=200),
             SMOKE: dict(n=120, n_test=30, p=40)}
    LAMBDA = 40.0
    # The fit's cost is its outer-iteration count, which at fixed shape
    # ranged 16-45 over cohorts and moved ~15% with the initial scores. So
    # the cohort and the CLI seed are fixed, and `--seed` only permutes the
    # rows and columns of the files: the problem, and the work, stay the
    # same while the bytes the program reads change.
    COHORT_SEED = 0
    CLI_SEED = 0

    def prepare(self, seed, workdir):
        s = self.SIZES[self.scale]
        rng = np.random.default_rng([self.COHORT_SEED, 4])
        n, p = s["n"], s["p"]
        x, maf = _dosages(rng, n, p)
        # two planted groups of 5 features, one per non-reference class
        planted = rng.choice(p, size=10, replace=False)
        logits = np.column_stack([
            np.zeros(n),
            _score(x, maf, planted[:5], 1.2),
            _score(x, maf, planted[5:], 1.2)])
        prob = np.exp(logits - logits.max(axis=1, keepdims=True))
        prob /= prob.sum(axis=1, keepdims=True)
        labels = (rng.uniform(size=(n, 1)) > np.cumsum(prob, axis=1)).sum(1)
        n_train = n - s["n_test"]
        perm = np.random.default_rng([seed, 4])
        rows = np.concatenate([perm.permutation(n_train),
                               n_train + perm.permutation(s["n_test"])])
        cols = perm.permutation(p)
        x, labels = x[rows][:, cols], labels[rows]
        samples = [f"s{i}" for i in rows]
        features = [f"f{j}" for j in cols]
        files = {k: workdir / f for k, f in
                 (("x", "x_train.tsv"), ("y", "y_train.tsv"),
                  ("x_test", "x_test.tsv"), ("cfg", "run.cfg"))}
        write_predictors(files["x"], x[:n_train], samples[:n_train], features)
        write_labels(files["y"], samples[:n_train], labels[:n_train])
        write_predictors(files["x_test"], x[n_train:], samples[n_train:],
                         features)
        write_config(files["cfg"], {"penalty.lambda": self.LAMBDA,
                                    "penalty.rho": 2, "solver.d": 2})
        return Inputs(files, features, {
            "x_train": x[:n_train].astype(float),
            "y_train": labels[:n_train],
            "test_ids": samples[n_train:],
            "y_test": labels[n_train:]})

    def commands(self, inputs, seed, outroot):
        f, truth = inputs.files, inputs.truth

        def check_fit(outdir):
            path = outdir / "directions.tsv"
            head, rows = _read_tsv(path)
            if [r[0] for r in rows] != inputs.feature_ids or len(head) != 3:
                raise CheckError("directions.tsv is not p rows x 2 directions")
            B = _floats(path, rows, (1, 2))
            tpath = outdir / "theta.tsv"
            _, trows = _read_tsv(tpath)
            Theta = _floats(tpath, trows, (0, 1))
            if Theta.shape != (3, 2):
                raise CheckError(f"theta.tsv is {Theta.shape}, want (3, 2)")
            fit = _read_json(outdir / "fit.json")
            _read_json(outdir / "model.json")
            selected = sorted(i for i, b in zip(inputs.feature_ids, B)
                              if b.any())
            return {"selected": _fingerprint(selected),
                    "converged_reported": bool(fit["converged"]),
                    "inner_converged_reported": bool(fit["inner_converged"]),
                    "outer_iters_reported": fit["outer_iters"],
                    "kkt_max_rel": kkt_max_rel(truth["x_train"],
                                               truth["y_train"], B, Theta,
                                               self.LAMBDA)}

        def check_predict(outdir):
            path = outdir / "predictions.tsv"
            head, rows = _read_tsv(path)
            if head != ["id", "label", "score"]:
                raise CheckError(f"predictions.tsv header {head}")
            if [r[0] for r in rows] != truth["test_ids"]:
                raise CheckError("predictions.tsv does not have exactly one "
                                 "row per held-out sample")
            pred = _floats(path, rows, (1,))[:, 0]
            if not np.all(np.isin(pred, (0, 1, 2))):
                raise CheckError("predicted label outside {0, 1, 2}")
            return {"test_accuracy": float(np.mean(pred == truth["y_test"])),
                    "predicted": _digest(sorted(f"{r[0]}:{r[1]}"
                                                for r in rows))}

        return [
            Command(["fit", "--x", str(f["x"]), "--y", str(f["y"]),
                     "--config", str(f["cfg"]), "--seed", str(self.CLI_SEED)],
                    outroot / "fit", check_fit),
            Command(["predict", "--x", str(f["x_test"]),
                     "--model", str(outroot / "fit"),
                     "--seed", str(self.CLI_SEED)],
                    outroot / "predict", check_predict),
        ]


WORKLOADS = {w.name: w for w in (ScreenWide, CvBinary, BaselineWide,
                                 FitMulticlass)}
