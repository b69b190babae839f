import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsesdr
from sparsesdr import blas
from sparsesdr.cli import main
from sparsesdr.config import parse_config_text, load_run_config
from sparsesdr.dataset import SyntheticSpec, simulate
from sparsesdr.errors import ValidationError
from sparsesdr.evaluation import MetricBundle


def write_dataset(tmp_path, seed=42, n=120, p=30, effect=2.0, support=5):
    spec = SyntheticSpec(n_samples=n, n_features=p, maf_range=(0.1, 0.4),
                         support=[(j, effect) for j in range(support)],
                         link="logistic", seed=seed)
    x, y, truth = simulate(spec)
    xp = tmp_path / "x.tsv"
    yp = tmp_path / "y.tsv"
    lines = ["\t".join(["id"] + x.feature_ids)]
    for sid, row in zip(x.sample_ids, x.values):
        lines.append("\t".join([sid] + [f"{v:g}" for v in row]))
    xp.write_text("\n".join(lines) + "\n")
    yp.write_text("".join(f"{s}\t{int(v)}\n"
                          for s, v in zip(x.sample_ids, y.labels)))
    return xp, yp, truth


def write_continuous_phenotype(yp, seed=0):
    """Replace the labels in `yp` with a continuous response."""
    ids = [line.split("\t")[0] for line in yp.read_text().splitlines()]
    values = np.random.default_rng(seed).standard_normal(len(ids))
    yp.write_text("".join(f"{s}\t{v:.6f}\n" for s, v in zip(ids, values)))


def assert_parser_refuses(capsys, out, argv, message):
    """The parser refuses `argv` with exit 2 and `message` on stderr, and
    writes nothing to `out`."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def assert_threads_refused(capsys, out, argv):
    """The parser refuses `argv`, which sets --threads below 1."""
    assert_parser_refuses(capsys, out, argv,
                          "argument --threads: must be >= 1")


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


FIT_CFG = """
# row-sparse fit settings
penalty.lambda = 8
penalty.rho = 2
solver.d = 1
"""

SCREEN_CFG = """
penalty.lambda = 8
penalty.rho = 2
solver.d = 1
screen.stages = 2:10
"""

CV_CFG = SCREEN_CFG + """
cv.folds = 3
cv.method = sparse_sdr
"""


class TestConfig:
    def test_parse_comments_and_blanks(self):
        raw = parse_config_text("a = 1\n\n# comment\nb = two # trailing\n")
        assert raw == {"a": "1", "b": "two"}

    def test_missing_equals(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config_text("justakey\n")

    def test_load_run_config(self, tmp_path):
        p = write_config(tmp_path, CV_CFG)
        cfg = load_run_config(p)
        assert cfg.solver.penalty.lam == 8
        assert cfg.cv_folds == 3
        assert [(s.n_partitions, s.keep_per_partition)
                for s in cfg.stages] == [(2, 10)]

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone_cr"])
    def test_line_ends(self, tmp_path, end):
        want = load_run_config(write_config(tmp_path, CV_CFG, name="lf.cfg"))
        p = tmp_path / "run.cfg"
        p.write_bytes(CV_CFG.replace("\n", end).encode())
        assert load_run_config(p) == want
        p.write_bytes(end.join(["penalty.lambda = 8", "", "# comment",
                                "penalty.lambda = 9"]).encode())
        with pytest.raises(ValidationError, match="at lines 1 and 4$"):
            load_run_config(p)

    def test_form_feed_does_not_end_a_line(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path,
                           "penalty.lambda = 8\x0cpenalty.delta = 0.5\n")
        out = tmp_path / "out"
        assert main(["fit", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config key 'penalty.lambda': bad value"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_stage_spec(self, tmp_path):
        p = write_config(tmp_path, "screen.stages = 2-10\n")
        with pytest.raises(ValidationError, match="stage"):
            load_run_config(p)

    @pytest.mark.parametrize("line", ["penalty.lamda = 8",
                                      "solver.theta_mode = newton"])
    def test_unknown_key_refused(self, tmp_path, capsys, line):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG + line + "\n")
        out = tmp_path / "out"
        rc = main(["fit", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert line.split(" ")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_key_set_twice_refused(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, "penalty.lambda = -3\n"
                                     "penalty.rho = 2\npenalty.lambda = 8\n")
        out = tmp_path / "out"
        assert main(["fit", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "sparsesdr fit: config key 'penalty.lambda' set twice, at lines "
            "1 and 3\n")
        assert not out.exists()


class TestFit:
    def test_writes_outputs(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG)
        out = tmp_path / "out"
        rc = main(["fit", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out), "--seed", "1"])
        assert rc == 0
        for name in ("directions.tsv", "theta.tsv", "fit.json",
                     "model.json", "manifest.json"):
            assert (out / name).exists()
        fit_info = json.loads((out / "fit.json").read_text())
        assert fit_info["converged"] is True
        assert 0 <= fit_info["kkt_max_rel"] <= fit_info["kkt_slack"] + 1e-12
        assert (fit_info["nonzero_rows"] <= fit_info["working_set_size"]
                <= 30)
        header = (out / "directions.tsv").read_text().splitlines()[0]
        assert header == "feature_id\tdir1"

    def test_r_positive_reports_no_kkt_figure(self, tmp_path):
        # at r > 0 the zero-row test certifies nothing: every column is in
        # the working set and no KKT figure is reported
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG + "penalty.r = 0.5\n"
                                               "solver.outer_max_iter = 3\n")
        out = tmp_path / "out"
        assert main(["fit", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 0
        fit_info = json.loads((out / "fit.json").read_text())
        assert fit_info["kkt_max_rel"] is None
        assert fit_info["kkt_slack"] is None
        assert fit_info["working_set_size"] == 30

    def test_two_directions_one_nonzero_row(self, tmp_path):
        # a d = 2 fit whose B keeps one row has rank 1: the score step keeps
        # the scores, and the fit writes its outputs
        rng = np.random.default_rng(0)
        X = rng.standard_normal((300, 6))
        labels = np.zeros(300, dtype=int)
        labels[X[:, 0] > 0.4] = 1
        labels[X[:, 1] > 0.4] = 2
        xp, yp = tmp_path / "x.tsv", tmp_path / "y.tsv"
        ids = [f"s{i}" for i in range(300)]
        xp.write_text("\t".join(["id"] + [f"f{j}" for j in range(6)]) + "\n"
                      + "".join("\t".join([i] + [repr(v) for v in row]) + "\n"
                                for i, row in zip(ids, X.tolist())))
        yp.write_text("".join(f"{i}\t{v}\n" for i, v in zip(ids, labels)))
        cfg = write_config(tmp_path, "penalty.lambda = 410\n"
                                     "penalty.rho = 2\nsolver.d = 2\n")
        out = tmp_path / "out"
        assert main(["fit", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "directions.tsv").read_text().splitlines()[1:]
        assert sum(any(float(v) != 0 for v in r.split("\t")[1:])
                   for r in rows) == 1

    def test_missing_y_usage_error(self, tmp_path, capsys):
        xp, _, _ = write_dataset(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--x", str(xp), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_nonexistent_input_io_error(self, tmp_path, capsys):
        rc = main(["fit", "--x", str(tmp_path / "absent.tsv"),
                   "--y", str(tmp_path / "absent2.tsv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "fit" in capsys.readouterr().err

    def test_mismatched_ids_usage_error(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        yp.write_text("other\t0\nids\t1\n")
        rc = main(["fit", "--x", str(xp), "--y", str(yp),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_convergence_reported_not_fatal(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG + "solver.outer_max_iter = 1\n"
                                               "solver.outer_tol = 1e-14\n")
        out = tmp_path / "out"
        rc = main(["fit", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "fit.json").read_text())["converged"] is False

    def test_continuous_response_leaves_no_output(self, tmp_path):
        # the nearest-centroid model needs classes: refused before any write
        xp, yp, _ = write_dataset(tmp_path)
        write_continuous_phenotype(yp)
        cfg = write_config(tmp_path, FIT_CFG + "design.h = 4\n")
        out = tmp_path / "out"
        rc = main(["fit", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists() or not any(out.iterdir())


    @pytest.mark.parametrize("command", ["fit", "screen"])
    def test_continuous_response_needs_design_h(self, tmp_path, capsys,
                                                command):
        xp, yp, _ = write_dataset(tmp_path)
        write_continuous_phenotype(yp)
        cfg = write_config(tmp_path, SCREEN_CFG)
        out = tmp_path / "out"
        assert main([command, "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert ("a continuous response needs design.h >= 2"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_integer_ages_are_continuous(self, tmp_path, capsys):
        # 60 distinct integer labels are a continuous response, not 60
        # classes: `screen` needs design.h, and slices by it when given
        xp, yp, _ = write_dataset(tmp_path)
        ids = [line.split("\t")[0] for line in yp.read_text().splitlines()]
        yp.write_text("".join(f"{s}\t{20 + i % 60}\n"
                              for i, s in enumerate(ids)))
        out = tmp_path / "out"
        argv = ["screen", "--x", str(xp), "--y", str(yp), "--config"]
        assert main(argv + [str(write_config(tmp_path, SCREEN_CFG)),
                            "--out", str(out)]) == 2
        assert ("a continuous response needs design.h >= 2"
                in capsys.readouterr().err)
        assert not out.exists()
        cfg = write_config(tmp_path, SCREEN_CFG + "design.h = 4\n", "h.cfg")
        assert main(argv + [str(cfg), "--out", str(out)]) == 0

    def test_staged_fit_selects_what_screen_selects(self, tmp_path):
        # `fit` runs the configured plan: every feature keeps its row, in
        # input order, rows outside the final survivors are zero, and the
        # nonzero rows are `screen`'s selection at the same seed and config
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, SCREEN_CFG)
        for cmd in ("fit", "screen"):
            assert main([cmd, "--x", str(xp), "--y", str(yp), "--config",
                         str(cfg), "--out", str(tmp_path / cmd),
                         "--seed", "4"]) == 0
        rows = [r.split("\t") for r in
                (tmp_path / "fit" / "directions.tsv").read_text()
                .splitlines()[1:]]
        assert [r[0] for r in rows] == [f"f{j}" for j in range(30)]
        screen_tsv = (tmp_path / "screen" / "selection.tsv").read_text()
        survivors = {r.split("\t")[0] for r in screen_tsv.splitlines()[1:]
                     if r.split("\t")[2] == "1"}
        assert len(survivors) == 20
        assert all(r[1] == "0" for r in rows if r[0] not in survivors)
        kept = [r[0] for r in rows if float(r[1]) != 0]
        summary = json.loads(
            (tmp_path / "screen" / "selection.json").read_text())
        assert kept == summary["selected"]
        fit_info = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit_info["nonzero_rows"] == len(kept)

    def test_unconverged_inner_solve_not_reported_converged(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG + "solver.inner_max_iter = 1\n")
        out = tmp_path / "out"
        assert main(["fit", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 0
        fit_info = json.loads((out / "fit.json").read_text())
        assert fit_info["inner_converged"] is False
        assert fit_info["converged"] is False

    @pytest.mark.parametrize("line, message", [
        ("penalty.lambda = nan", "lambda must be finite and >= 0"),
        ("penalty.lambda = inf", "lambda must be finite and >= 0"),
        ("penalty.rho = inf", "rho must be finite and > 0"),
        ("penalty.rho = nan", "rho must be finite and > 0"),
        ("solver.outer_tol = nan", "tolerances must be finite and > 0"),
        ("solver.inner_tol = inf", "tolerances must be finite and > 0"),
        ("solver.outer_max_iter = 0", "iteration caps must be >= 1"),
        ("solver.inner_max_iter = -2", "iteration caps must be >= 1"),
    ], ids=["lambda_nan", "lambda_inf", "rho_inf", "rho_nan", "outer_tol_nan",
            "inner_tol_inf", "outer_max_iter_0", "inner_max_iter_-2"])
    def test_bad_solver_setting_refused(self, tmp_path, capsys, line,
                                        message):
        xp, yp, _ = write_dataset(tmp_path)
        key = line.split(" ")[0]   # replaces FIT_CFG's line for `key`
        kept = [l for l in FIT_CFG.splitlines() if not l.startswith(key)]
        cfg = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
        out = tmp_path / "out"
        assert main(["fit", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestScreen:
    def test_selection_outputs(self, tmp_path):
        xp, yp, truth = write_dataset(tmp_path, effect=2.5)
        cfg = write_config(tmp_path, SCREEN_CFG)
        out = tmp_path / "out"
        rc = main(["screen", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out), "--seed", "3"])
        assert rc == 0
        summary = json.loads((out / "selection.json").read_text())
        assert summary["survivors"] == 20
        assert summary["converged"] is True
        assert 0 <= summary["kkt_max_rel"] <= summary["kkt_slack"] + 1e-12
        assert len(summary["selected"]) <= summary["working_set_size"] <= 20
        tsv = (out / "selection.tsv").read_text()
        assert tsv.splitlines()[0] == "feature_id\trow_norm\tstage\tpartition"

    def test_reruns_byte_identical_across_threads(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, SCREEN_CFG)
        outs = []
        for name, threads in [("o1", "1"), ("o2", "1"), ("o4", "4")]:
            out = tmp_path / name
            rc = main(["screen", "--x", str(xp), "--y", str(yp),
                       "--config", str(cfg), "--out", str(out),
                       "--seed", "3", "--threads", threads])
            assert rc == 0
            outs.append((out / "selection.tsv").read_bytes()
                        + (out / "selection.json").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_no_stages_selects_what_fit_keeps(self, tmp_path):
        # unset screen.stages: one fit on every feature. `fit` and `screen`
        # run the same plan at the same seed, so they agree by construction.
        xp, yp, _ = write_dataset(tmp_path, n=200, p=60)
        cfg = write_config(tmp_path, FIT_CFG)
        for cmd in ("fit", "screen"):
            assert main([cmd, "--x", str(xp), "--y", str(yp), "--config",
                         str(cfg), "--out", str(tmp_path / cmd)]) == 0
        rows = (tmp_path / "fit" / "directions.tsv").read_text().splitlines()
        kept = [r.split("\t")[0] for r in rows[1:]
                if abs(float(r.split("\t")[1])) > 1e-10]
        summary = json.loads(
            (tmp_path / "screen" / "selection.json").read_text())
        assert summary["n_stages"] == 0
        assert summary["survivors"] == 60
        assert len(kept) > 1
        assert summary["selected"] == kept

    def test_zero_threads_refused(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, SCREEN_CFG)
        assert_threads_refused(capsys, tmp_path / "out", [
            "screen", "--x", str(xp), "--y", str(yp), "--config", str(cfg),
            "--threads", "0"])

    def test_continuous_response_uses_design_h(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        write_continuous_phenotype(yp)
        cfg = write_config(tmp_path, SCREEN_CFG + "design.h = 4\n")
        out = tmp_path / "out"
        rc = main(["screen", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "selection.json").read_text())["survivors"] == 20


class TestCv:
    def test_report_files(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path, n=150)
        cfg = write_config(tmp_path, CV_CFG)
        out = tmp_path / "out"
        rc = main(["cv", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out), "--seed", "2"])
        assert rc == 0
        rep = json.loads((out / "cv_report.json").read_text())
        assert len(rep["folds"]) == 3
        for fold in rep["folds"]:
            # the stored confusion counts reproduce the stored rates
            MetricBundle(**fold["test"])
        tsv = (out / "cv_report.tsv").read_text().splitlines()
        assert tsv[-1].startswith("Average\t")

    def test_no_stages_fits_every_feature(self, tmp_path):
        # each fold's fit sees every feature: the same report as one stage
        # that keeps all p = 30 features
        xp, yp, _ = write_dataset(tmp_path, n=150)
        reports = []
        for name, stages in [("none", ""), ("all", "screen.stages = 1:30\n")]:
            cfg = write_config(tmp_path, FIT_CFG + stages + "cv.folds = 3\n",
                               name=f"{name}.cfg")
            out = tmp_path / name
            assert main(["cv", "--x", str(xp), "--y", str(yp), "--config",
                         str(cfg), "--out", str(out), "--seed", "2"]) == 0
            reports.append((out / "cv_report.tsv").read_text())
        assert reports[0] == reports[1]
        folds = json.loads((tmp_path / "none" / "cv_report.json").read_text())
        assert all(f["n_selected"] > 1 for f in folds["folds"])

    @pytest.mark.parametrize("method", ["sparse_sdr", "pvalue_rank"])
    @pytest.mark.parametrize("kind", ["continuous", "categorical"])
    def test_non_binary_response_refused(self, tmp_path, capsys, method,
                                         kind):
        xp, yp, _ = write_dataset(tmp_path, n=150)
        if kind == "continuous":
            write_continuous_phenotype(yp)
        else:
            ids = [line.split("\t")[0] for line in yp.read_text().splitlines()]
            yp.write_text("".join(f"{s}\t{i % 3}\n"
                                  for i, s in enumerate(ids)))
        cfg = write_config(tmp_path, SCREEN_CFG
                           + f"cv.folds = 3\ncv.method = {method}\n")
        out = tmp_path / "out"
        rc = main(["cv", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"binary response, got a {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("cv.folds = 0", "folds >= 2, got 0"),
        ("cv.folds = 1", "folds >= 2, got 1"),
        ("cv.top_m = 0", "top_m must be >= 1, got 0"),
        ("cv.knn_k = 0", "knn_k must be >= 1, got 0"),
    ])
    def test_bad_cv_setting_refused(self, tmp_path, capsys, setting,
                                    message):
        xp, yp, _ = write_dataset(tmp_path, n=150)
        cfg = write_config(tmp_path, f"cv.method = pvalue_rank\n{setting}\n")
        out = tmp_path / "out"
        rc = main(["cv", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_threads_refused_for_pvalue_rank(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path, n=150)
        cfg = write_config(tmp_path, "cv.folds = 3\ncv.method = pvalue_rank\n")
        assert_threads_refused(capsys, tmp_path / "out", [
            "cv", "--x", str(xp), "--y", str(yp), "--config", str(cfg),
            "--threads", "0"])


    @pytest.mark.parametrize("method", ["sparse_sdr", "pvalue_rank"])
    def test_json_lists_each_folds_selected_ids(self, tmp_path, method):
        xp, yp, _ = write_dataset(tmp_path, n=150)
        cfg = write_config(tmp_path, SCREEN_CFG
                           + f"cv.folds = 3\ncv.method = {method}\n")
        out = tmp_path / "out"
        assert main(["cv", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 0
        feature_ids = xp.read_text().splitlines()[0].split("\t")[1:]
        folds = json.loads((out / "cv_report.json").read_text())["folds"]
        assert len(folds) == 3
        for fold in folds:
            ids = fold["selected_ids"]
            assert len(ids) == fold["n_selected"] > 0
            assert len(set(ids)) == len(ids)
            assert set(ids) <= set(feature_ids)
        tsv = (out / "cv_report.tsv").read_text().splitlines()
        assert tsv[0].split("\t") == [
            "fold", "train_sens", "train_spec", "train_acc", "test_sens",
            "test_spec", "test_acc", "n_selected"]
        assert [line.split("\t")[-1] for line in tsv[1:4]] == [
            str(f["n_selected"]) for f in folds]

    @pytest.mark.parametrize("line", [1, 75, 150])
    def test_pvalue_rank_non_dosage_refused(self, tmp_path, capsys, line):
        xp, yp, _ = write_dataset(tmp_path, n=150)
        rows = xp.read_text().splitlines()
        cells = rows[line].split("\t")
        cells[4] = "0.5"
        rows[line] = "\t".join(cells)
        xp.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "cv.folds = 5\ncv.method = pvalue_rank\n")
        out = tmp_path / "out"
        rc = main(["cv", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "requires dosages in {0, 1, 2}, got 0.5 at sample" in err
        assert not out.exists()


class TestAssoc:
    def test_matches_library_ranking(self, tmp_path):
        from sparsesdr.dataset import load_predictors, make_phenotype
        from sparsesdr.evaluation import chi2_rank
        xp, yp, _ = write_dataset(tmp_path)
        out = tmp_path / "out"
        rc = main(["assoc", "--x", str(xp), "--y", str(yp),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "assoc.tsv").read_text().strip().splitlines()
        assert lines[0] == "feature_id\tchi2\tp"
        x = load_predictors(xp, "tsv")
        labels = np.array([int(l.split("\t")[1])
                           for l in yp.read_text().strip().splitlines()])
        expected = chi2_rank(x, make_phenotype(labels))
        got_ids = [l.split("\t")[0] for l in lines[1:]]
        assert got_ids == [x.feature_ids[j] for j, *_ in expected]

    def test_negative_threads_refused(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        assert_threads_refused(capsys, tmp_path / "out", [
            "assoc", "--x", str(xp), "--y", str(yp), "--threads", "-3"])


    def test_repeated_predictor_sample_refused(self, tmp_path, capsys):
        # s1 twice and no s2: the sample counts match the phenotype's
        xp, yp, _ = write_dataset(tmp_path)
        lines = xp.read_text().splitlines()
        assert lines[3].startswith("s2\t")
        lines[3] = "s1" + lines[3][len("s2"):]
        xp.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["assoc", "--x", str(xp), "--y", str(yp),
                     "--out", str(out)]) == 2
        assert "duplicate sample id: 's1'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_phenotype_sample_refused(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        yp.write_text(yp.read_text() + "s3\t1\n")
        out = tmp_path / "out"
        assert main(["assoc", "--x", str(xp), "--y", str(yp),
                     "--out", str(out)]) == 2
        assert "phenotype repeats sample id: 's3'" in capsys.readouterr().err
        assert not out.exists()


class TestUndecodableInput:
    """A file that is not UTF-8 is refused with exit 2, naming the file and
    the line, before anything is written."""

    def run(self, capsys, tmp_path, command, xp, yp, cfg=None):
        out = tmp_path / "out"
        argv = [command, "--x", str(xp), "--y", str(yp), "--out", str(out)]
        if cfg is not None:
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_predictor_sample_id(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        data = xp.read_bytes().split(b"\n")
        data[4] = data[4].replace(b"s3", b"s\xe9")
        xp.write_bytes(b"\n".join(data))
        err = self.run(capsys, tmp_path, "assoc", xp, yp)
        assert f"{xp}: invalid UTF-8 at line 5" in err

    def test_phenotype_label(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        yp.write_bytes(yp.read_bytes().replace(b"s7\t", b"s7\t\xff", 1))
        err = self.run(capsys, tmp_path, "screen", xp, yp,
                       write_config(tmp_path, SCREEN_CFG))
        assert f"{yp}: invalid UTF-8 at line 8" in err

    def test_config_comment(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(SCREEN_CFG.encode() + b"# caf\xe9\n")
        err = self.run(capsys, tmp_path, "screen", xp, yp, cfg)
        assert f"{cfg}: invalid UTF-8 at line 6" in err

    def test_config_line_after_form_feed(self, tmp_path, capsys):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"penalty.lambda = 8\n# a\x0cb\n# caf\xe9\n")
        err = self.run(capsys, tmp_path, "screen", xp, yp, cfg)
        assert f"{cfg}: invalid UTF-8 at line 3" in err


@pytest.mark.parametrize("command", ["fit", "screen", "cv", "assoc",
                                     "simulate", "predict"])
def test_negative_seed_refused(tmp_path, capsys, command):
    xp, yp, _ = write_dataset(tmp_path)
    inputs = {"simulate": [],
              "predict": ["--x", str(xp), "--model", str(tmp_path)]}
    argv = [command, *inputs.get(command, ["--x", str(xp), "--y", str(yp)]),
            "--seed", "-1"]
    assert_parser_refuses(capsys, tmp_path / "out", argv,
                          "argument --seed: must be >= 0, got -1")


class TestSimulate:
    @pytest.mark.parametrize("lines, message", [
        ("simulate.p = 10\nsimulate.support = 11\n",
         "simulate.support must be in [0, simulate.p = 10], got 11"),
        ("simulate.support = -1\n",
         "simulate.support must be in [0, simulate.p = 100], got -1"),
        ("simulate.n = 0\n", "got 0 x 100"),
        ("simulate.n = -3\n", "got -3 x 100"),
        ("simulate.p = 0\n", "got 200 x 0"),
    ], ids=["support_above_p", "support_negative", "n_zero", "n_negative",
            "p_zero"])
    def test_impossible_size_refused(self, tmp_path, capsys, lines, message):
        cfg = write_config(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestStorage:
    """A cohort of digit cells is held as uint8, the same cohort spelled
    `1.0` as float64; every command answers the same, byte for byte."""

    def write_spelling(self, src, dst, spell):
        lines = src.read_text().splitlines()
        rows = [lines[0]] + ["\t".join([c[0]] + [spell(v) for v in c[1:]])
                             for c in (ln.split("\t") for ln in lines[1:])]
        dst.write_text("\n".join(rows) + "\n")

    def test_every_command_answers_alike(self, tmp_path):
        digits, yp, _ = write_dataset(tmp_path, n=90, p=24)
        decimals = tmp_path / "x_decimal.tsv"
        self.write_spelling(digits, decimals, lambda v: f"{v}.0")
        cv_rank = write_config(tmp_path, "cv.folds = 3\n"
                               "cv.method = pvalue_rank\n", name="rank.cfg")
        runs = [
            ("screen", write_config(tmp_path, SCREEN_CFG, name="s.cfg")),
            ("fit", write_config(tmp_path, SCREEN_CFG, name="f.cfg")),
            ("fit", write_config(tmp_path, FIT_CFG, name="unstaged.cfg")),
            ("cv", write_config(tmp_path, CV_CFG, name="cv.cfg")),
            ("cv", cv_rank),
            ("assoc", None),
        ]
        for i, (command, cfg) in enumerate(runs):
            outs = []
            for xp in (digits, decimals):
                out = tmp_path / f"{i}_{command}_{xp.stem}"
                argv = [command, "--x", str(xp), "--y", str(yp), "--out",
                        str(out), "--seed", "4"]
                assert main(argv + (["--config", str(cfg)] if cfg else [])) \
                    == 0
                if command == "fit":
                    assert main(["predict", "--x", str(xp), "--model",
                                 str(out), "--out", str(out / "pred")]) == 0
                outs.append({f.relative_to(out): f.read_bytes()
                             for f in sorted(out.rglob("*"))
                             if f.is_file() and f.name != "manifest.json"})
            assert outs[0] and outs[0] == outs[1], (command, cfg)


class TestPipeline:
    def test_simulate_fit_predict(self, tmp_path):
        sim_cfg = write_config(tmp_path, """
simulate.n = 120
simulate.p = 25
simulate.support = 4
simulate.effect = 2.5
simulate.maf_low = 0.1
simulate.maf_high = 0.4
""", name="sim.cfg")
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", str(sim_cfg),
                     "--out", str(sim_out), "--seed", "9"]) == 0
        truth = json.loads((sim_out / "truth.json").read_text())
        assert len(truth["support"]) == 4

        fit_cfg = write_config(tmp_path, FIT_CFG, name="fit.cfg")
        fit_out = tmp_path / "fitdir"
        assert main(["fit", "--x", str(sim_out / "predictors.tsv"),
                     "--y", str(sim_out / "phenotype.tsv"),
                     "--config", str(fit_cfg), "--out", str(fit_out)]) == 0

        pred_out = tmp_path / "pred"
        assert main(["predict", "--x", str(sim_out / "predictors.tsv"),
                     "--model", str(fit_out), "--out", str(pred_out)]) == 0
        lines = (pred_out / "predictions.tsv").read_text().strip().splitlines()
        assert lines[0] == "id\tlabel\tscore"
        assert len(lines) == 121
        # training-set predictions beat chance
        pheno = dict(l.split("\t") for l in
                     (sim_out / "phenotype.tsv").read_text().strip()
                     .splitlines())
        correct = sum(
            1 for l in lines[1:]
            if float(l.split("\t")[1]) == float(pheno[l.split("\t")[0]]))
        assert correct / 120 > 0.6

    def test_manifest_contents(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["assoc", "--x", str(xp), "--y", str(yp),
                     "--out", str(out), "--seed", "5"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["seed"] == 5
        assert man["command"] == "assoc"
        assert str(xp) in man["input_digests"]

        cfg = write_config(tmp_path, FIT_CFG)
        fit_out, pred_out = tmp_path / "fit", tmp_path / "pred"
        assert main(["fit", "--x", str(xp), "--y", str(yp), "--config",
                     str(cfg), "--out", str(fit_out)]) == 0
        assert main(["predict", "--x", str(xp), "--model", str(fit_out),
                     "--out", str(pred_out)]) == 0
        man = json.loads((pred_out / "manifest.json").read_text())
        model = fit_out / "model.json"
        assert man["input_digests"] == {
            str(xp): hashlib.sha256(xp.read_bytes()).hexdigest(),
            str(model): hashlib.sha256(model.read_bytes()).hexdigest()}

    def test_manifest_records_blas(self, tmp_path, monkeypatch):
        xp, yp, _ = write_dataset(tmp_path)
        argv = ["assoc", "--x", str(xp), "--y", str(yp), "--threads", "2"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        man = json.loads((tmp_path / "a" / "manifest.json").read_text())
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert man["blas"] == {"name": dep["name"], "version": dep["version"]}
        assert man["blas_threads"] == blas.get_threads()
        # a BLAS without the OpenBLAS thread-count call records null
        monkeypatch.setattr(blas, "_get_threads", None)
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        man = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert man["blas_threads"] is None


# A hand-written two-feature binary model, valid as it stands.
TWO_FEATURE_MODEL = {
    "feature_ids": ["f0", "f1"], "column_means": [0.5, 0.25],
    "B_kept": [[1.0], [0.0]], "class_labels": [0.0, 1.0],
    "class_centroids": [[-1.0], [1.0]], "class_priors": [0.5, 0.5],
    "degenerate": False,
}


class TestPredict:
    def run_predict(self, tmp_path, model_text):
        xp, _, _ = write_dataset(tmp_path, p=2, support=1)
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        (model_dir / "model.json").write_text(model_text)
        out = tmp_path / "out"
        rc = main(["predict", "--x", str(xp), "--model", str(model_dir),
                   "--out", str(out)])
        return rc, out

    def test_valid_hand_written_model(self, tmp_path):
        rc, out = self.run_predict(tmp_path, json.dumps(TWO_FEATURE_MODEL))
        assert rc == 0
        assert (out / "predictions.tsv").exists()

    @pytest.mark.parametrize("model_text, message", [
        ("{not json", "not a JSON model"),
        ('{"feature_ids": []}', "a model holds exactly the keys"),
        (json.dumps({**TWO_FEATURE_MODEL, "column_means": [0.5]}),
         "column_means must have one entry per feature id"),
        (json.dumps({**TWO_FEATURE_MODEL, "B_kept": [[1.0]]}),
         "B_kept must be a matrix with one row per feature id"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_labels": [1.0],
                     "class_centroids": [[1.0]], "class_priors": [1.0]}),
         "class_labels must name at least two classes"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_centroids": [[-1.0, 0.0],
                                                             [1.0, 0.0]]}),
         "class_centroids must be 2 x 1"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_priors": [1.0]}),
         "class_priors must have 2 entries"),
        (json.dumps({**TWO_FEATURE_MODEL, "feature_ids": "ab"}),
         "feature_ids must be a list of strings"),
        (json.dumps({**TWO_FEATURE_MODEL, "degenerate": "false"}),
         "degenerate must be true or false"),
    ], ids=["not_json", "missing_keys", "short_column_means", "short_B_kept",
            "one_class", "wide_centroids", "short_priors", "string_ids",
            "string_degenerate"])
    def test_malformed_model_refused(self, tmp_path, capsys, model_text,
                                     message):
        rc, out = self.run_predict(tmp_path, model_text)
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "model.json: " + message in err
        assert not out.exists()


def modules_after(package, code, *args):
    """Run `code` in a fresh interpreter (argv[1:] = args) that imports
    sparsesdr from this checkout; return the modules of `package` (e.g.
    "scipy" or "numpy.ma") it loaded."""
    src = str(Path(sparsesdr.__file__).resolve().parent.parent)
    report = ("\nimport json\nprint(json.dumps(sorted(m for m in sys.modules"
              f" if m == {package!r} or m.startswith({package + '.'!r}))))")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
         + code + report, *map(str, args)],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestStartup:
    """Every command starts and runs on numpy alone: scipy is imported only
    inside the SIR oracle."""

    def test_cli_import_loads_no_scipy(self):
        assert modules_after("scipy", "import sparsesdr.cli") == []

    def test_import_and_staged_screen_load_no_concurrent(self, tmp_path):
        # the screening stages fit their partitions on the calling thread
        assert modules_after("concurrent", "import sparsesdr.cli") == []
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, SCREEN_CFG)
        code = """
from sparsesdr.cli import main
x, y, cfg, out = sys.argv[1:]
assert main(["screen", "--x", x, "--y", y, "--config", cfg,
             "--out", out]) == 0"""
        assert modules_after("concurrent", code, xp, yp, cfg, tmp_path) == []
        assert (tmp_path / "selection.tsv").exists()

    def test_fit_then_predict_load_no_scipy(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG)
        code = """
from sparsesdr.cli import main
x, y, cfg, out = sys.argv[1:]
assert main(["fit", "--x", x, "--y", y, "--config", cfg,
             "--out", out + "/fit"]) == 0
assert main(["predict", "--x", x, "--model", out + "/fit",
             "--out", out + "/pred"]) == 0"""
        assert modules_after("scipy", code, xp, yp, cfg, tmp_path) == []
        assert (tmp_path / "pred" / "predictions.tsv").exists()

    def test_assoc_and_pvalue_rank_cv_load_no_scipy(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, "cv.folds = 3\ncv.method = pvalue_rank\n")
        code = """
from sparsesdr.cli import main
x, y, cfg, out = sys.argv[1:]
assert main(["assoc", "--x", x, "--y", y, "--out", out + "/assoc"]) == 0
assert main(["cv", "--x", x, "--y", y, "--config", cfg,
             "--out", out + "/cv"]) == 0"""
        assert modules_after("scipy", code, xp, yp, cfg, tmp_path) == []
        assert (tmp_path / "assoc" / "assoc.tsv").exists()
        assert (tmp_path / "cv" / "cv_report.tsv").exists()

    def test_pvalue_rank_cv_loads_no_numpy_ma(self, tmp_path):
        # np.unique's first call imports numpy.ma, ~10-20 ms per process
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, "cv.folds = 3\ncv.method = pvalue_rank\n")
        code = """
from sparsesdr.cli import main
x, y, cfg, out = sys.argv[1:]
assert main(["cv", "--x", x, "--y", y, "--config", cfg, "--out", out]) == 0"""
        assert modules_after("numpy.ma", code, xp, yp, cfg, tmp_path) == []
        assert (tmp_path / "cv_report.tsv").exists()
