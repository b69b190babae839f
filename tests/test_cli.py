import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsesdr
from sparsesdr import blas, cli, optimal_scoring
from sparsesdr.cli import main
from sparsesdr.config import parse_config_text, load_run_config
from sparsesdr.dataset import SyntheticSpec, load_predictors, simulate
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
    for sid, row in zip(x.sample_ids, x.raw):
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

    @pytest.mark.parametrize("command", ["fit", "screen", "cv"])
    @pytest.mark.parametrize("line, message", [
        ("penalty.lamda = 8", "penalty.lamda"),
        ("screen.stages = 4:10, 2:30", "stage 2: keep=30 exceeds")])
    def test_config_refused_before_the_data_is_read(
            self, tmp_path, capsys, monkeypatch, command, line, message):
        def no_load(*args):
            raise AssertionError("predictors read before the config")
        monkeypatch.setattr(cli, "load_predictors", no_load)
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG + line + "\n")
        out = tmp_path / "out"
        assert main([command, "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["pvalue_rank"])
    def test_even_knn_k_refused_before_the_data_is_read(
            self, tmp_path, capsys, monkeypatch, method):
        # cv's response is binary, where an even k can tie
        def no_load(*args):
            raise AssertionError("predictors read before the config")
        monkeypatch.setattr(cli, "load_predictors", no_load)
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG + f"cv.method = {method}\n"
                                              "cv.knn_k = 2\n")
        out = tmp_path / "out"
        assert main(["cv", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "sparsesdr cv: knn_k must be odd, got 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["cv.knn_k = 2", "cv.knn_k = 0",
                                         "cv.top_m = 31"])
    def test_sparse_sdr_cv_ignores_pvalue_rank_settings(self, tmp_path,
                                                        setting):
        # top_m and knn_k are read by pvalue_rank only, so sparse_sdr
        # neither checks them nor answers differently for them
        xp, yp, _ = write_dataset(tmp_path)
        reports = []
        for name, extra in (("plain", ""), ("set", setting + "\n")):
            cfg = write_config(tmp_path, CV_CFG + extra, name=name + ".cfg")
            out = tmp_path / name
            assert main(["cv", "--x", str(xp), "--y", str(yp),
                         "--config", str(cfg), "--out", str(out)]) == 0
            reports.append([(out / f).read_bytes()
                            for f in ("cv_report.tsv", "cv_report.json")])
        assert reports[0] == reports[1]

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
        assert 0 <= fit_info["kkt_max_rel"] < 1e-5
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
        # three classes at d = 1 < h - 1: the score step turns the score
        # within the plane of the two non-constant scores, so one outer
        # iteration cannot show convergence (a binary fit converges at 1)
        xp, yp, _ = write_dataset(tmp_path)
        rows = [line.split("\t") for line in yp.read_text().splitlines()]
        yp.write_text("".join(f"{s}\t{int(v) + (v == '1' and i % 2)}\n"
                              for i, (s, v) in enumerate(rows)))
        cfg = write_config(tmp_path, FIT_CFG + "solver.outer_max_iter = 1\n"
                                               "solver.outer_tol = 1e-14\n")
        out = tmp_path / "out"
        rc = main(["fit", "--x", str(xp), "--y", str(yp),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        fit_info = json.loads((out / "fit.json").read_text())
        assert fit_info["converged"] is False and fit_info["outer_iters"] == 1
        assert fit_info["inner_converged"] is True

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


    def test_continuous_response_refused_before_the_screen(
            self, tmp_path, capsys, monkeypatch):
        from sparsesdr import evaluation

        def no_screen(*args, **kwargs):
            raise AssertionError("screen run for a continuous response")
        monkeypatch.setattr(evaluation, "run_plan", no_screen)
        xp, yp, _ = write_dataset(tmp_path)
        write_continuous_phenotype(yp)
        cfg = write_config(tmp_path, SCREEN_CFG + "design.h = 4\n")
        out = tmp_path / "out"
        assert main(["fit", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "continuous response" in err and "`screen`" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "screen"])
    def test_d_above_h_minus_one_refused_before_any_fit(
            self, tmp_path, capsys, monkeypatch, command):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit run with d > h - 1")
        monkeypatch.setattr(optimal_scoring, "fit", no_fit)
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, SCREEN_CFG.replace("solver.d = 1",
                                                        "solver.d = 2"))
        out = tmp_path / "out"
        assert main([command, "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"sparsesdr {command}: d=2 must be <= h-1=1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "screen"])
    def test_continuous_response_needs_design_h(self, tmp_path, capsys,
                                                command):
        # `screen` asks for design.h; `fit` refuses the response kind
        # first, with or without design.h, so one run names the real issue
        xp, yp, _ = write_dataset(tmp_path)
        write_continuous_phenotype(yp)
        out = tmp_path / "out"
        argv = [command, "--x", str(xp), "--y", str(yp), "--out", str(out)]
        cfg = write_config(tmp_path, SCREEN_CFG)
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert not out.exists()
        if command == "screen":
            assert "a continuous response needs design.h >= 2" in err
            return
        assert "a continuous response has no classes" in err
        cfg = write_config(tmp_path, SCREEN_CFG + "design.h = 4\n", "h.cfg")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "a continuous response has no classes" in (
            capsys.readouterr().err)
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


@pytest.mark.parametrize("command, name", [("fit", "fit.json"),
                                           ("screen", "selection.json")])
def test_inner_iters_reported(tmp_path, monkeypatch, command, name):
    # with no stage the final fit is the run's only fit
    n_iters = []
    solve_step_a = optimal_scoring.solve_step_a

    def recorded(*args, **kwargs):
        res = solve_step_a(*args, **kwargs)
        n_iters.append(res.n_iter)
        return res
    monkeypatch.setattr(optimal_scoring, "solve_step_a", recorded)
    xp, yp, _ = write_dataset(tmp_path)
    cfg = write_config(tmp_path, FIT_CFG)
    out = tmp_path / "out"
    assert main([command, "--x", str(xp), "--y", str(yp),
                 "--config", str(cfg), "--out", str(out)]) == 0
    info = json.loads((out / name).read_text())
    assert len(n_iters) > 1 and info["inner_iters"] == sum(n_iters)


def test_output_key_sets(tmp_path):
    # the exact keys of fit.json and selection.json: a key change is a
    # deliberate edit of this test
    xp, yp, _ = write_dataset(tmp_path)
    cfg = write_config(tmp_path, SCREEN_CFG)
    for command in ("fit", "screen"):
        assert main([command, "--x", str(xp), "--y", str(yp), "--config",
                     str(cfg), "--out", str(tmp_path / command)]) == 0
    fit_info = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert sorted(fit_info) == [
        "converged", "inner_converged", "inner_iters", "kkt_max_rel",
        "nonzero_rows", "objective", "outer_iters", "working_set_size"]
    summary = json.loads(
        (tmp_path / "screen" / "selection.json").read_text())
    assert sorted(summary) == [
        "converged", "inner_converged", "inner_iters", "kkt_max_rel",
        "n_stages", "selected", "stage_kept", "survivors",
        "working_set_size"]


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
        assert 0 <= summary["kkt_max_rel"] < 1e-5
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

    @pytest.mark.parametrize("stages, message", [
        ("4:8", "stage 1: keep=8 exceeds the 7 features"),
        ("2:10, 3:7", "stage 2: keep=7 exceeds the 6 features"),
    ])
    def test_impossible_plan_refused_before_any_fit(self, tmp_path, capsys,
                                                    monkeypatch, stages,
                                                    message):
        def no_fit(*args):
            raise AssertionError("fit called")
        monkeypatch.setattr(sparsesdr.optimal_scoring, "fit", no_fit)
        xp, yp, _ = write_dataset(tmp_path)   # 30 features
        cfg = write_config(tmp_path, FIT_CFG + f"screen.stages = {stages}\n")
        out = tmp_path / "out"
        assert main(["screen", "--x", str(xp), "--y", str(yp), "--config",
                     str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_design_h_refused_as_fit_refuses_it(self, tmp_path, capsys):
        # `cv` checks design.h against the response as `fit` does, for
        # either method: five slices of a two-level response are refused
        # before any write
        xp, yp, _ = write_dataset(tmp_path, n=150)
        for command, method in (("fit", "sparse_sdr"), ("cv", "sparse_sdr"),
                                ("cv", "pvalue_rank")):
            cfg = write_config(tmp_path, CV_CFG.replace(
                "sparse_sdr", method) + "design.h = 5\n")
            out = tmp_path / f"{command}-{method}"
            assert main([command, "--x", str(xp), "--y", str(yp),
                         "--config", str(cfg), "--out", str(out)]) == 2
            assert ("h=5 but the response has 2 levels"
                    in capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("cv.folds = 0", "folds >= 2, got 0"),
        ("cv.folds = 1", "folds >= 2, got 1"),
        ("cv.top_m = 0", "top_m must be >= 1, got 0"),
        ("cv.knn_k = 0", "knn_k must be >= 1, got 0"),
        ("cv.top_m = 31", "top_m = 31 exceeds the 30 features"),
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

    @pytest.mark.parametrize("setting, message", [
        ("cv.method = pvalue", "unknown cv method 'pvalue'"),
        ("cv.folds = 1", "folds >= 2, got 1"),
        ("cv.method = pvalue_rank\ncv.top_m = 0", "top_m must be >= 1, got 0"),
        ("cv.method = pvalue_rank\ncv.knn_k = 0", "knn_k must be >= 1, got 0"),
    ], ids=["method", "folds", "top_m", "knn_k"])
    def test_bad_cv_setting_refused_before_the_data_is_read(
            self, tmp_path, capsys, monkeypatch, setting, message):
        def no_load(*args):
            raise AssertionError("predictors read before the cv settings")
        monkeypatch.setattr(cli, "load_predictors", no_load)
        xp, yp, _ = write_dataset(tmp_path, n=150)
        cfg = write_config(tmp_path, setting + "\n")
        out = tmp_path / "out"
        assert main(["cv", "--x", str(xp), "--y", str(yp),
                     "--config", str(cfg), "--out", str(out)]) == 2
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
    @pytest.mark.parametrize("command, config, files", [
        ("assoc", None, ["assoc.tsv"]),
        ("cv", "cv.folds = 4\ncv.method = pvalue_rank\n",
         ["cv_report.tsv", "cv_report.json"])])
    def test_float_spelled_dosages_answer_alike(self, tmp_path, command,
                                                config, files):
        # "1.0" makes the matrix float64; chi-square ranking reads its
        # exact uint8 copy, so the reports are the all-digit file's bytes
        xp, yp, _ = write_dataset(tmp_path, n=150)
        header, body = xp.read_text().split("\n", 1)
        spelled = tmp_path / "x_float.tsv"
        spelled.write_text(header + "\n" + body.replace("\t1", "\t1.0"))
        assert load_predictors(spelled).raw.dtype == np.float64
        extra = ([] if config is None
                 else ["--config", str(write_config(tmp_path, config))])
        reports = []
        for name, path in (("digits", xp), ("spelled", spelled)):
            out = tmp_path / name
            assert main([command, "--x", str(path), "--y", str(yp),
                         "--out", str(out)] + extra) == 0
            reports.append([(out / f).read_bytes() for f in files])
        assert reports[0] == reports[1]

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

    @pytest.mark.parametrize("which", ["feature", "sample"])
    def test_csv_id_with_a_tab_refused(self, tmp_path, capsys, which):
        # a CSV id may hold a tab, which would split its row of every TSV
        # output; the id is refused with its line before anything is written
        xp, yp, _ = write_dataset(tmp_path, n=20, p=3, support=2)
        lines = xp.read_text().replace("\t", ",").splitlines()
        if which == "feature":
            lines[0] = lines[0].replace("f1", "f\t1")
            bad, lineno = "'f\\t1'", 1
        else:
            lines[3] = lines[3].replace("s2", "s\t2")
            bad, lineno = "'s\\t2'", 4
        csv = tmp_path / "x.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["assoc", "--x", str(csv), "--y", str(yp),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{csv}: {which} id {bad} at line {lineno} holds a tab" in err
        assert not out.exists()


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


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is dropped:
    the run writes the same outputs as without it."""

    def test_same_predictions_from_marked_model(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path, n=60)
        fit = tmp_path / "fit"
        assert main(["fit", "--x", str(xp), "--y", str(yp), "--config",
                     str(write_config(tmp_path, FIT_CFG)),
                     "--out", str(fit)]) == 0
        marked = tmp_path / "marked"
        marked.mkdir()
        (marked / "model.json").write_bytes(
            b"\xef\xbb\xbf" + (fit / "model.json").read_bytes())
        runs = []
        for model in (fit, marked):
            out = tmp_path / f"out_{model.name}"
            assert main(["predict", "--x", str(xp), "--model", str(model),
                         "--out", str(out)]) == 0
            runs.append((out / "predictions.tsv").read_bytes())
        assert runs[0] and runs[0] == runs[1]

    def outputs(self, out, files):
        assert main(["screen", "--x", str(files["x"]), "--y", str(files["y"]),
                     "--config", str(files["config"]), "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())
                if f.name != "manifest.json"}

    # a mark before the predictor header would end up in its ignored first
    # cell, so that file starts with a blank line, which the mark shares
    @pytest.mark.parametrize("which, lead", [("x", b"\n"), ("y", b""),
                                             ("config", b"")])
    def test_same_outputs(self, tmp_path, which, lead):
        xp, yp, _ = write_dataset(tmp_path, n=60)
        files = {"x": xp, "y": yp,
                 "config": write_config(tmp_path, SCREEN_CFG.lstrip())}
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        name = files[which].name
        (plain / name).write_bytes(lead + files[which].read_bytes())
        (marked / name).write_bytes(b"\xef\xbb\xbf" + lead
                                    + files[which].read_bytes())
        runs = [self.outputs(tmp_path / f"out_{d.name}",
                             {**files, which: d / name})
                for d in (plain, marked)]
        assert runs[0] and runs[0] == runs[1]


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

    @pytest.mark.parametrize("effect", ["nan", "inf"])
    def test_non_finite_effect_refused(self, tmp_path, capsys, effect):
        cfg = write_config(tmp_path, "simulate.n = 50\nsimulate.p = 10\n"
                           "simulate.support = 3\n"
                           f"simulate.effect = {effect}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert (f"support effect must be finite, got {effect}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_predictors_match_per_cell_text(self, tmp_path):
        cfg = write_config(tmp_path, "simulate.n = 30\nsimulate.p = 12\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        x, _, _ = simulate(SyntheticSpec(n_samples=30, n_features=12, seed=5))
        lines = ["\t".join(["id"] + x.feature_ids)]
        for sid, row in zip(x.sample_ids, x.raw):
            lines.append("\t".join([sid] + [f"{v:g}" for v in row]))
        path = out / "predictors.tsv"
        assert path.read_text() == "\n".join(lines) + "\n"
        back = load_predictors(path)
        assert back.raw.dtype == np.uint8
        assert np.array_equal(back.raw, x.raw)
        assert (back.feature_ids, back.sample_ids) == (x.feature_ids,
                                                       x.sample_ids)


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

    def predicted_labels(self, out):
        rows = (out / "predictions.tsv").read_text().splitlines()[1:]
        return [row.split("\t")[1] for row in rows]

    @pytest.mark.parametrize("labels, text", [
        ([0.0, 1.0], ["0", "1"]),
        ([1234567.0, 7654321.0], ["1234567", "7654321"]),
        ([-2.0, 0.1], ["-2", "0.1"]),
        ([1.0 / 3, 2.5], [repr(1.0 / 3), "2.5"])],
        ids=["zero_one", "seven_digits", "negative_and_fraction", "third"])
    def test_labels_written_exactly(self, tmp_path, labels, text):
        # an integral label as an integer, any other as its shortest
        # round-trip repr: never rounded to 6 significant digits
        rc, out = self.run_predict(tmp_path, json.dumps(
            {**TWO_FEATURE_MODEL, "class_labels": labels}))
        assert rc == 0
        got = self.predicted_labels(out)
        assert set(got) == set(text)
        assert [float(v) for v in got] == [
            labels[v == text[1]] for v in got]

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
        (json.dumps({**TWO_FEATURE_MODEL, "class_labels": [0, 0]}),
         "class_labels must name at least two classes, each once"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_centroids": [[-1.0, 0.0],
                                                             [1.0, 0.0]]}),
         "class_centroids must be 2 x 1"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_priors": [1.0]}),
         "class_priors must have 2 entries"),
        (json.dumps({**TWO_FEATURE_MODEL, "feature_ids": "ab"}),
         "feature_ids must be a list of strings"),
        (json.dumps({**TWO_FEATURE_MODEL, "feature_ids": ["f0", "f0"]}),
         "feature_ids must be a list of strings, each once"),
        (json.dumps({**TWO_FEATURE_MODEL, "degenerate": "false"}),
         "degenerate must be true or false"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_labels": "01"}),
         "class_labels must be a list"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_labels": [True, False]}),
         "class_labels must hold only numbers"),
        (json.dumps({**TWO_FEATURE_MODEL, "B_kept": [["1"], ["0.5"]]}),
         "B_kept must hold only numbers"),
        (json.dumps({**TWO_FEATURE_MODEL, "column_means": [True, 0.5]}),
         "column_means must hold only numbers"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_priors": ["0.5", 0.5]}),
         "class_priors must hold only numbers"),
        (json.dumps({**TWO_FEATURE_MODEL, "column_means": [10 ** 400, 0.5]}),
         "malformed model"),
        # Python's json reads NaN, Infinity and an overflowing float as floats
        (json.dumps({**TWO_FEATURE_MODEL, "column_means": [np.nan, 0.5]}),
         "column_means must hold only numbers, all finite"),
        (json.dumps({**TWO_FEATURE_MODEL, "B_kept": [[np.inf], [0.0]]}),
         "B_kept must hold only numbers, all finite"),
        (json.dumps({**TWO_FEATURE_MODEL,
                     "class_centroids": [[-np.inf], [1.0]]}),
         "class_centroids must hold only numbers, all finite"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_priors": [np.nan, 0.5]}),
         "class_priors must hold only numbers, all finite"),
        (json.dumps({**TWO_FEATURE_MODEL, "class_labels": [0.0, np.inf]}),
         "class_labels must hold only numbers, all finite"),
        (json.dumps(TWO_FEATURE_MODEL).replace("0.25", "1e400"),
         "column_means must hold only numbers, all finite"),
    ], ids=["not_json", "missing_keys", "short_column_means", "short_B_kept",
            "one_class", "repeated_label", "wide_centroids", "short_priors",
            "string_ids", "repeated_ids", "string_degenerate", "string_labels",
            "bool_labels",
            "string_B_kept", "bool_column_means", "string_priors",
            "huge_column_mean", "nan_column_mean", "infinite_B_kept",
            "minus_infinite_centroid", "nan_prior", "infinite_label",
            "overflowing_column_mean"])
    def test_malformed_model_refused(self, tmp_path, capsys, model_text,
                                     message):
        rc, out = self.run_predict(tmp_path, model_text)
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "model.json: " + message in err
        assert not out.exists()

    def test_model_refused_before_the_predictors_are_read(
            self, tmp_path, capsys, monkeypatch):
        def no_load(*args):
            raise AssertionError("predictors read before the model")
        monkeypatch.setattr(cli, "load_predictors", no_load)
        rc, out = self.run_predict(tmp_path, "{not json")
        assert rc == 2
        assert "model.json: not a JSON model" in capsys.readouterr().err
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
    """Every command starts and runs on numpy alone, the one runtime
    dependency: scipy and mpmath belong to the `test` extra."""

    def test_cli_import_loads_no_scipy(self):
        assert modules_after("scipy", "import sparsesdr.cli") == []

    @pytest.mark.parametrize("package", ["numpy.random",
                                         "concurrent.futures", "logging",
                                         "multiprocessing"])
    def test_cli_import_loads_no_unneeded_module(self, package):
        # start-up is most of a short command's wall time
        assert modules_after(package, "import sparsesdr.cli") == []

    @pytest.mark.parametrize("package", ["scipy", "mpmath"])
    def test_import_and_help_load_no_test_extra(self, package):
        as_main = """
import runpy
try:
    runpy.run_module("sparsesdr.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0"""
        assert modules_after(package, "import sparsesdr.cli") == []
        assert modules_after(package, as_main, "--help") == []

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


def console_scripts() -> dict:
    """pyproject.toml's [project.scripts] table."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(sparsesdr.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


class TestLauncher:
    """`python -m sparsesdr.cli` and the `sparsesdr` console script both go
    through `cli.run`, which freezes the collector before `main`."""

    def children(self, tmp_path, *args):
        """(exit code, stdout, stderr, output files) of `args` run through
        `python -m sparsesdr.cli` and through pyproject's console-script
        target, each writing under its own `--out` (`OUT` in `args`)."""
        src = Path(sparsesdr.__file__).resolve().parent.parent
        module, attr = console_scripts()["sparsesdr"].split(":")
        script = (f"import importlib, sys\n"
                  f"sys.exit(importlib.import_module({module!r}).{attr}())")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        results = []
        for tag, lead in [("m", ["-m", "sparsesdr.cli"]),
                          ("script", ["-c", script])]:
            argv = [a.replace("OUT", str(tmp_path / tag)) for a in args]
            proc = subprocess.run([sys.executable, *lead, *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            out = tmp_path / tag
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} \
                if out.exists() else {}
            results.append((proc.returncode, proc.stdout, proc.stderr, files))
        return results

    def test_script_target_is_run(self):
        assert console_scripts() == {"sparsesdr": "sparsesdr.cli:run"}

    @pytest.mark.parametrize("case, code", [("help", 0), ("bad seed", 2),
                                            ("fit", 0)])
    def test_both_entry_points_alike(self, tmp_path, case, code):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG)
        args = {"help": ["--help"],
                "bad seed": ["fit", "--x", str(xp), "--y", str(yp),
                             "--out", "OUT", "--seed", "-1"],
                "fit": ["fit", "--x", str(xp), "--y", str(yp),
                        "--config", str(cfg), "--out", "OUT"]}[case]
        by_m, by_script = self.children(tmp_path, *args)
        assert by_m[0] == code
        assert by_m == by_script
        if case == "fit":
            assert "fit.json" in by_m[3]

    def test_run_freezes_then_exits_with_mains_code(self, monkeypatch):
        events = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 3 and events == ["freeze", "main"]

    def test_main_leaves_the_collector_alone(self, tmp_path):
        xp, yp, _ = write_dataset(tmp_path)
        cfg = write_config(tmp_path, FIT_CFG)
        assert gc.get_freeze_count() == 0
        assert main(["fit", "--x", str(xp), "--y", str(yp), "--config",
                     str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled()


def _json_keys(value) -> set:
    """Every key of `value`'s dicts, at any depth. The keys of
    `input_digests` (input paths) and of `stage_kept` (stage numbers) are
    data, not names, so they are not descended into."""
    if isinstance(value, dict):
        return set(value).union(*(
            _json_keys(item) for key, item in value.items()
            if key not in ("input_digests", "stage_kept")))
    if isinstance(value, list):
        return set().union(*map(_json_keys, value))
    return set()


def test_every_json_key_is_named_in_readme(tmp_path):
    # each command's JSON outputs, fold and metric keys included
    sim = tmp_path / "simulate"
    cfg = write_config(tmp_path, CV_CFG + "simulate.n = 90\n"
                       "simulate.p = 20\nsimulate.support = 3\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    x = ["--x", str(sim / "predictors.tsv")]
    y = ["--y", str(sim / "phenotype.tsv")]
    config = ["--config", str(cfg)]
    for command, argv in (("fit", [*x, *y, *config]),
                          ("screen", [*x, *y, *config]),
                          ("cv", [*x, *y, *config]),
                          ("assoc", [*x, *y]),
                          ("predict", [*x, "--model", str(tmp_path / "fit")])):
        out = ["--out", str(tmp_path / command)]
        assert main([command, *argv, *out]) == 0, command
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = sorted({(path.name, key)
                      for path in tmp_path.glob("*/*.json")
                      for key in _json_keys(json.loads(path.read_text()))
                      if f"`{key}`" not in readme})
    assert missing == []
