import numpy as np
import pytest

from sparsesdr.dataset import (PredictorMatrix, SyntheticSpec, center,
                               load_phenotype, load_predictors, simulate)
from sparsesdr.errors import ParseError, ValidationError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadPredictors:
    def test_basic_tsv(self, tmp_path):
        p = write(tmp_path, "x.tsv",
                  "id\tf1\tf2\ns1\t0\t2\ns2\t1\t1\ns3\t2\t0\n")
        m = load_predictors(p, "tsv")
        assert m.values.tolist() == [[0, 2], [1, 1], [2, 0]]
        assert m.feature_ids == ["f1", "f2"]
        assert m.sample_ids == ["s1", "s2", "s3"]
        assert not m.centered

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf2\ns1\t0\t2\ns2\t1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_predictors(p, "tsv")

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf2\n")
        with pytest.raises(ValidationError, match="zero samples"):
            load_predictors(p, "tsv")

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\ns1\tNA\n")
        with pytest.raises(ParseError, match="line 2"):
            load_predictors(p, "tsv")

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf2\ns1\t0\t1\ns2\t1\t 1.5x \n")
        with pytest.raises(ParseError, match="'1.5x' at line 3, column 'f2'"):
            load_predictors(p, "tsv")

    def test_padding_blank_lines_and_crlf(self, tmp_path):
        cells = [" 1 ", "\t2.5", "-3e-2 ", "1_000", " +.5", "7."]
        text = ("id, a , b ,c\r\n\r\n s1 ," + ",".join(cells[:3])
                + "\r\n  \r\ns2," + ",".join(cells[3:]) + "\r\n\r\n")
        m = load_predictors(write(tmp_path, "x.csv", text), "csv")
        assert m.feature_ids == ["a", "b", "c"]
        assert m.sample_ids == ["s1", "s2"]
        assert m.values.tolist() == [[float(c) for c in cells[:3]],
                                     [float(c) for c in cells[3:]]]

    def test_nan_cell_names_sample_and_feature(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf2\ns1\t0\t1\ns2\t1\tnan\n")
        with pytest.raises(ValidationError, match="sample 's2', feature 'f2'"):
            load_predictors(p, "tsv")

    def test_wide_row_matches_float_per_cell(self, tmp_path):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
        spellings = [lambda a: repr(float(a)), lambda a: f"{a:g}",
                     lambda a: f" {a:.5e}", lambda a: f"{a:.25f} ",
                     lambda a: str(int(a % 3))]
        cells = [spellings[j % 5](a) for j, a in enumerate(v)]
        ids = [f"f{j}" for j in range(2000)]
        p = write(tmp_path, "x.tsv", "\t".join(["id"] + ids) + "\n"
                  + "\t".join(["s1"] + cells) + "\n")
        got = load_predictors(p, "tsv").values[0]
        want = np.array([float(c) for c in cells])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_duplicate_feature_id(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf1\ns1\t0\t1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_predictors(p, "tsv")

    def test_csv(self, tmp_path):
        p = write(tmp_path, "x.csv", "id,f1\ns1,3.5\n")
        assert load_predictors(p, "csv").values[0, 0] == 3.5


class TestPhenotypeFile:
    def test_roundtrip(self, tmp_path):
        p = write(tmp_path, "y.tsv", "s1\t0\ns2\t1\n")
        ids, labels = load_phenotype(p)
        assert ids == ["s1", "s2"]
        assert labels.tolist() == [0, 1]

    def test_bad_column_count(self, tmp_path):
        p = write(tmp_path, "y.tsv", "s1\t0\t9\n")
        with pytest.raises(ParseError):
            load_phenotype(p)


class TestCenter:
    def test_simple_column(self):
        m = PredictorMatrix(np.array([[0.0], [1.0], [2.0]]), ["f"], list("abc"))
        c = center(m)
        assert c.values[:, 0].tolist() == [-1, 0, 1]
        assert c.column_means[0] == 1
        assert c.centered

    def test_constant_column(self):
        m = PredictorMatrix(np.array([[3.0], [3.0], [3.0]]), ["f"], list("abc"))
        assert center(m).values[:, 0].tolist() == [0, 0, 0]

    def test_single_sample(self):
        m = PredictorMatrix(np.array([[5.0, -2.0]]), ["f1", "f2"], ["s"])
        assert np.all(center(m).values == 0)

    def test_recenter_rejected(self):
        m = center(PredictorMatrix(np.array([[1.0], [2.0]]), ["f"], ["a", "b"]))
        with pytest.raises(ValidationError):
            center(m)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((10, 3))
        m1 = center(PredictorMatrix(vals.copy(), list("abc"),
                                    [f"s{i}" for i in range(10)]))
        shifted = vals.copy()
        shifted[:, 1] += 7.25
        m2 = center(PredictorMatrix(shifted, list("abc"),
                                    [f"s{i}" for i in range(10)]))
        assert np.allclose(m1.values, m2.values, atol=1e-12)

    def test_means_are_zero(self):
        rng = np.random.default_rng(1)
        m = center(PredictorMatrix(rng.standard_normal((50, 8)),
                                   [f"f{j}" for j in range(8)],
                                   [f"s{i}" for i in range(50)]))
        assert np.abs(m.values.mean(axis=0)).max() < 1e-10 * 50


class TestValidation:
    def test_nan_rejected(self):
        vals = np.array([[1.0, np.nan]])
        with pytest.raises(ValidationError, match="non-finite"):
            PredictorMatrix(vals, ["a", "b"], ["s"])


class TestSimulate:
    def test_determinism(self):
        spec = SyntheticSpec(n_samples=50, n_features=10, seed=123,
                             support=[(0, 1.0)])
        x1, y1, t1 = simulate(spec)
        x2, y2, t2 = simulate(spec)
        assert np.array_equal(x1.values, x2.values)
        assert np.array_equal(y1.labels, y2.labels)
        assert t1 == t2

    def test_different_seeds_differ(self):
        a = simulate(SyntheticSpec(n_samples=50, n_features=10, seed=1))[0]
        b = simulate(SyntheticSpec(n_samples=50, n_features=10, seed=2))[0]
        assert not np.array_equal(a.values, b.values)

    def test_null_support_uncorrelated(self):
        spec = SyntheticSpec(n_samples=2000, n_features=20, seed=7,
                             support=[], link="logistic")
        x, y, truth = simulate(spec)
        assert truth == set()
        xc = x.values - x.values.mean(axis=0)
        yc = y.labels - y.labels.mean()
        corr = xc.T @ yc / (np.linalg.norm(xc, axis=0) * np.linalg.norm(yc))
        assert np.abs(corr).max() < 0.1

    def test_single_feature_threshold_signal(self):
        spec = SyntheticSpec(n_samples=500, n_features=50, seed=9,
                             support=[(3, 3.0)], link="threshold")
        x, y, _ = simulate(spec)
        # thresholding oracle on the true feature
        col = x.values[:, 3] - x.values[:, 3].mean()
        pred = (col > 0).astype(int)
        acc = max(np.mean(pred == y.labels), np.mean(1 - pred == y.labels))
        assert acc > 0.8

    def test_dosages(self):
        x, _, _ = simulate(SyntheticSpec(n_samples=30, n_features=5, seed=3))
        assert set(np.unique(x.values)) <= {0.0, 1.0, 2.0}

    def test_bad_maf_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_samples=10, n_features=5, maf_range=(0.4, 0.1))

    def test_support_out_of_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_samples=10, n_features=5, support=[(9, 1.0)])
