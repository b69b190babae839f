"""Subcommand front end: fit, screen, cv, assoc, simulate, predict.

Exit codes: 0 ok, 2 usage/validation, 3 numeric failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, optimal_scoring
from .config import RunConfig, load_run_config
from .dataset import (PredictorMatrix, SyntheticSpec, align_phenotype, center,
                      load_phenotype, load_predictors, make_phenotype,
                      simulate)
from .errors import ParseError, SparseSdrError, ValidationError
from .evaluation import (chi2_rank, cross_validate, cv_report_to_json,
                         cv_report_to_tsv, fit_classifier, load_model, predict,
                         save_model)
from .scoring import build_design
from .screening import _NONZERO_ROW, report_summary, report_to_tsv, run_plan

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


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_manifest(outdir: Path, args, inputs: list[str]) -> None:
    manifest = {
        "version": __version__,
        "numpy": np.__version__,
        "seed": args.seed,
        "threads": args.threads,
        "command": args.command,
        "config_hash": _sha256(args.config) if getattr(args, "config", None)
        else None,
        "input_digests": {str(p): _sha256(p) for p in inputs},
    }
    _write_json(outdir / "manifest.json", manifest)


def _load_inputs(args) -> tuple[PredictorMatrix, np.ndarray]:
    fmt = "csv" if str(args.x).endswith(".csv") else "tsv"
    x = load_predictors(args.x, fmt)
    sample_ids, labels = load_phenotype(args.y)
    return x, align_phenotype(x, sample_ids, labels)


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_run_config(args.config)
    return RunConfig(solver=optimal_scoring.SolverConfig())


def _directions_tsv(feature_ids, B) -> str:
    d = B.shape[1]
    lines = ["\t".join(["feature_id"] + [f"dir{i + 1}" for i in range(d)])]
    for f, row in zip(feature_ids, B):
        lines.append("\t".join([f] + [f"{v:.12g}" for v in row]))
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    x, labels = _load_inputs(args)
    cfg = _load_config(args)
    y = make_phenotype(labels)
    xc = center(x)
    design = build_design(y, cfg.h)
    solver = cfg.solver
    solver.seed = args.seed
    ds = optimal_scoring.fit(xc, design, solver)
    nonzero = np.flatnonzero(ds.row_norms() > _NONZERO_ROW)
    # model bundle for `predict`, built before any output is written
    kept = nonzero if len(nonzero) else np.arange(x.n_features)
    clf = fit_classifier(xc.restrict(kept), y, ds.B[kept])

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "directions.tsv").write_text(
        _directions_tsv(x.feature_ids, ds.B), encoding="utf-8")
    theta_lines = ["\t".join([f"dir{i + 1}" for i in range(ds.Theta.shape[1])])]
    for row in ds.Theta:
        theta_lines.append("\t".join(f"{v:.12g}" for v in row))
    (outdir / "theta.tsv").write_text("\n".join(theta_lines) + "\n",
                                      encoding="utf-8")
    _write_json(outdir / "fit.json", {
        "converged": bool(ds.converged),
        "outer_iters": ds.outer_iters,
        "inner_converged": bool(ds.inner_converged),
        "objective": ds.objective_history,
        "nonzero_rows": len(nonzero),
    })
    save_model(clf, outdir / "model.json")
    _write_manifest(outdir, args, [args.x, args.y])
    return EXIT_OK


def cmd_screen(args) -> int:
    x, labels = _load_inputs(args)
    cfg = _load_config(args)
    y = make_phenotype(labels)
    report = run_plan(x, y, cfg.plan(), seed=args.seed,
                      n_workers=args.threads, h=cfg.h)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "selection.tsv").write_text(report_to_tsv(report),
                                          encoding="utf-8")
    _write_json(outdir / "selection.json", report_summary(report))
    _write_manifest(outdir, args, [args.x, args.y])
    return EXIT_OK


def cmd_cv(args) -> int:
    x, labels = _load_inputs(args)
    cfg = _load_config(args)
    y = make_phenotype(labels)
    report = cross_validate(
        x, y, folds=cfg.cv_folds, method=cfg.cv_method, seed=args.seed,
        plan=cfg.plan() if cfg.cv_method == "sparse_sdr" else None,
        top_m=cfg.top_m, knn_k=cfg.knn_k, n_workers=args.threads)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "cv_report.tsv").write_text(cv_report_to_tsv(report),
                                          encoding="utf-8")
    _write_json(outdir / "cv_report.json", cv_report_to_json(report))
    _write_manifest(outdir, args, [args.x, args.y])
    return EXIT_OK


def cmd_assoc(args) -> int:
    x, labels = _load_inputs(args)
    y = make_phenotype(labels)
    results = chi2_rank(x, y)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["feature_id\tchi2\tp"]
    for j, stat, p, _flagged in results:
        lines.append(f"{x.feature_ids[j]}\t{stat:.12g}\t{p:.12g}")
    (outdir / "assoc.tsv").write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")
    _write_manifest(outdir, args, [args.x, args.y])
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(args.seed)
    support_idx = sorted(rng.choice(cfg.sim_p, size=cfg.sim_support,
                                    replace=False).tolist())
    spec = SyntheticSpec(
        n_samples=cfg.sim_n, n_features=cfg.sim_p,
        maf_range=(cfg.sim_maf_low, cfg.sim_maf_high),
        support=[(int(j), cfg.sim_effect) for j in support_idx],
        link=cfg.sim_link, seed=args.seed)
    x, y, truth = simulate(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(["id"] + x.feature_ids)]
    for sid, row in zip(x.sample_ids, x.values):
        lines.append("\t".join([sid] + [f"{v:g}" for v in row]))
    (outdir / "predictors.tsv").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    pheno = "\n".join(f"{s}\t{int(v)}" for s, v in zip(x.sample_ids, y.labels))
    (outdir / "phenotype.tsv").write_text(pheno + "\n", encoding="utf-8")
    _write_json(outdir / "truth.json", {"support": sorted(truth)})
    _write_manifest(outdir, args, [])
    return EXIT_OK


def cmd_predict(args) -> int:
    fmt = "csv" if str(args.x).endswith(".csv") else "tsv"
    x = load_predictors(args.x, fmt)
    model = Path(args.model) / "model.json"
    clf = load_model(model)
    labels, scores = predict(clf, x)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["id\tlabel\tscore"]
    for sid, lab, sc in zip(x.sample_ids, labels, scores):
        lines.append(f"{sid}\t{lab:g}\t{sc:.12g}")
    (outdir / "predictions.tsv").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
    _write_manifest(outdir, args, [args.x, model])
    return EXIT_OK


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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)

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
        return _HANDLERS[args.command](args)
    except (ValidationError, ParseError) as exc:
        print(f"sparsesdr {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SparseSdrError as exc:
        print(f"sparsesdr {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"sparsesdr {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
