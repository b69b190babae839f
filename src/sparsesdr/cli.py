"""Subcommand front end: fit, screen, cv, assoc, simulate, predict.

Exit codes: 0 ok, 2 usage/validation, 3 numeric failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, blas
from .config import RunConfig, load_run_config
from .dataset import (Phenotype, PredictorMatrix, SyntheticSpec,
                      align_phenotype, center, load_phenotype, load_predictors,
                      make_phenotype, simulate)
from .errors import ParseError, SparseSdrError, ValidationError
from .evaluation import (check_cv_settings, chi2_rank, cross_validate,
                         cv_report_to_json, cv_report_to_tsv, fit_classifier,
                         fit_model, load_model, model_to_json, predict)
# bench/tracer.py hooks `build_design`, `center` and `fit_classifier` here
# by name
from .scoring import build_design
from .screening import report_summary, report_to_tsv, run_plan

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _blas_build() -> dict | None:
    """Name and version of the BLAS numpy was built against."""
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no `mode`
        return None
    return {"name": dep.get("name"), "version": dep.get("version")}


def _manifest(args, inputs: list) -> dict:
    return {
        "version": __version__,
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": blas.get_threads(),   # None for a non-OpenBLAS
        "seed": args.seed,
        "threads": args.threads,
        "command": args.command,
        "config_hash": _sha256(args.config) if getattr(args, "config", None)
        else None,
        "input_digests": {str(p): _sha256(p) for p in inputs},
    }


def _write_outputs(args, inputs: list, files: dict) -> None:
    """Make the output directory and write `files` (name -> bytes, text, or
    a dict written as JSON) and manifest.json, which digests `inputs`."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {**files, "manifest.json": _manifest(args, inputs)}
    for name, content in files.items():
        if isinstance(content, dict):
            content = json.dumps(content, indent=2, sort_keys=True) + "\n"
        if isinstance(content, str):
            content = content.encode()
        (outdir / name).write_bytes(content)


def _load_x(path) -> PredictorMatrix:
    """The predictors at `path`: CSV if it ends in `.csv`, else TSV."""
    fmt = "csv" if str(path).endswith(".csv") else "tsv"
    return load_predictors(path, fmt)


def _load_inputs(args) -> tuple[PredictorMatrix, Phenotype]:
    x = _load_x(args.x)
    sample_ids, labels = load_phenotype(args.y)
    return x, make_phenotype(align_phenotype(x, sample_ids, labels))


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_run_config(args.config)
    return RunConfig()


def _matrix_tsv(M, ids=None) -> str:
    """Rows of M under a dir1..dirD header, each led by its id if given."""
    rows = [[f"dir{i + 1}" for i in range(M.shape[1])]]
    rows += [[f"{v:.12g}" for v in row] for row in M]
    if ids is not None:
        rows = [[i] + row for i, row in zip(["feature_id", *ids], rows)]
    return "\n".join("\t".join(row) for row in rows) + "\n"


def cmd_fit(args) -> None:
    cfg = _load_config(args)
    plan = cfg.plan()
    x, y = _load_inputs(args)
    report, clf = fit_model(x, y, plan, h=cfg.h)
    ds, summary = report.final_directions, report_summary(report)
    B = np.zeros((x.n_features, ds.B.shape[1]))
    B[report.survivors] = ds.B
    _write_outputs(args, [args.x, args.y], {
        "directions.tsv": _matrix_tsv(B, x.feature_ids),
        "theta.tsv": _matrix_tsv(ds.Theta),
        "fit.json": {
            "converged": summary["converged"],
            "outer_iters": ds.outer_iters,
            "inner_converged": summary["inner_converged"],
            "kkt_max_rel": summary["kkt_max_rel"],
            "working_set_size": summary["working_set_size"],
            "inner_iters": summary["inner_iters"],
            "objective": ds.objective_history,
            "nonzero_rows": len(report.selected_indices),
        },
        "model.json": model_to_json(clf),
    })


def cmd_screen(args) -> None:
    cfg = _load_config(args)
    plan = cfg.plan()
    x, y = _load_inputs(args)
    report = run_plan(x, y, plan, h=cfg.h)
    _write_outputs(args, [args.x, args.y], {
        "selection.tsv": report_to_tsv(report),
        "selection.json": report_summary(report),
    })


def cmd_cv(args) -> None:
    cfg = _load_config(args)
    check_cv_settings(cfg.cv_method, cfg.cv_folds, cfg.top_m, cfg.knn_k)
    plan = cfg.plan() if cfg.cv_method == "sparse_sdr" else None
    x, y = _load_inputs(args)
    report = cross_validate(
        x, y, folds=cfg.cv_folds, method=cfg.cv_method, seed=args.seed,
        plan=plan, h=cfg.h, top_m=cfg.top_m, knn_k=cfg.knn_k)
    _write_outputs(args, [args.x, args.y], {
        "cv_report.tsv": cv_report_to_tsv(report),
        "cv_report.json": cv_report_to_json(report),
    })


def cmd_assoc(args) -> None:
    x, y = _load_inputs(args)
    lines = ["feature_id\tchi2\tp"]
    for j, stat, p, _flagged in chi2_rank(x, y):
        lines.append(f"{x.feature_ids[j]}\t{stat:.12g}\t{p:.12g}")
    _write_outputs(args, [args.x, args.y],
                   {"assoc.tsv": "\n".join(lines) + "\n"})


def cmd_simulate(args) -> None:
    cfg = _load_config(args)
    if not 0 <= cfg.sim_support <= cfg.sim_p:
        raise ValidationError(f"simulate.support must be in [0, simulate.p = "
                              f"{cfg.sim_p}], got {cfg.sim_support}")
    rng = np.random.default_rng(args.seed)
    support_idx = sorted(rng.choice(cfg.sim_p, size=cfg.sim_support,
                                    replace=False).tolist())
    spec = SyntheticSpec(
        n_samples=cfg.sim_n, n_features=cfg.sim_p,
        maf_range=(cfg.sim_maf_low, cfg.sim_maf_high),
        support=[(int(j), cfg.sim_effect) for j in support_idx],
        link=cfg.sim_link, seed=args.seed)
    x, y, truth = simulate(spec)
    rows = ["\t".join(["id"] + x.feature_ids).encode()]
    cells = np.full(2 * x.n_features, ord("\t"), np.uint8)
    for sid, dosages in zip(x.sample_ids, x.dosages()):
        cells[1::2] = dosages + ord("0")   # one digit byte after each tab
        rows.append(sid.encode() + cells.tobytes())
    pheno = "".join(f"{s}\t{int(v)}\n" for s, v in zip(x.sample_ids, y.labels))
    _write_outputs(args, [], {
        "predictors.tsv": b"\n".join(rows) + b"\n",
        "phenotype.tsv": pheno,
        "truth.json": {"support": sorted(truth)},
    })


def cmd_predict(args) -> None:
    model = Path(args.model) / "model.json"
    clf = load_model(model)
    x = _load_x(args.x)
    labels, scores = predict(clf, x)
    lines = ["id\tlabel\tscore"]
    for sid, lab, sc in zip(x.sample_ids, labels, scores):
        # exactly as model.json holds it: an integral label as an integer
        lab = float(lab)
        lab = str(int(lab)) if lab.is_integer() else repr(lab)
        lines.append(f"{sid}\t{lab}\t{sc:.12g}")
    _write_outputs(args, [args.x, model],
                   {"predictions.tsv": "\n".join(lines) + "\n"})


def _int_at_least(low: int):
    """argparse type: an integer >= `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsesdr",
        description="Sparse sufficient dimension reduction for wide "
                    "predictor matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, x=True, y=True, config=False, model=False):
        if x:
            p.add_argument("--x", required=True, help="predictor TSV/CSV")
        if y:
            p.add_argument("--y", required=True, help="phenotype TSV")
        if config:
            p.add_argument("--config", default=None, help="key = value config")
        if model:
            p.add_argument("--model", required=True,
                           help="directory holding model.json from `fit`")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--threads", type=_int_at_least(1), default=1,
                       help="recorded in manifest.json; does not change "
                            "the run")

    add_common(sub.add_parser("fit"), config=True)
    add_common(sub.add_parser("screen"), config=True)
    add_common(sub.add_parser("cv"), config=True)
    add_common(sub.add_parser("assoc"))
    add_common(sub.add_parser("simulate"), x=False, y=False, config=True)
    add_common(sub.add_parser("predict"), y=False, model=True)
    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "screen": cmd_screen,
    "cv": cmd_cv,
    "assoc": cmd_assoc,
    "simulate": cmd_simulate,
    "predict": cmd_predict,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _HANDLERS[args.command](args)
        return EXIT_OK
    except (ValidationError, ParseError) as exc:
        print(f"sparsesdr {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SparseSdrError as exc:
        print(f"sparsesdr {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"sparsesdr {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """The `sparsesdr` command: `main` in a process that ends after it.

    Every object the imports made is frozen first, so no collection, the
    interpreter's last one at exit included, walks them again. `main` itself
    leaves the collector alone, since it also runs inside other programs.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
