import hashlib
import json

import numpy as np
import pytest

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
        header = (out / "directions.tsv").read_text().splitlines()[0]
        assert header == "feature_id\tdir1"

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
        # unset screen.stages: one fit on every feature. Binary d=1 fixes
        # the score up to sign, so `fit` and `screen` agree whatever seed
        # each gives its solver.
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
        out = tmp_path / "out"
        rc = main(["screen", "--x", str(xp), "--y", str(yp), "--config",
                   str(cfg), "--out", str(out), "--threads", "0"])
        assert rc == 2
        assert "n_workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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
