import ast
import io
from pathlib import Path

import numpy as np
import pytest

import sparsesdr.cli
import sparsesdr.dataset
from sparsesdr.cli import main
from sparsesdr.dataset import (Phenotype, PredictorMatrix, SyntheticSpec,
                               MAX_INFERRED_LEVELS, align_phenotype, center,
                               load_phenotype, load_predictors,
                               make_phenotype, simulate)
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
        assert m.raw.tolist() == [[0, 2], [1, 1], [2, 0]]
        assert m.feature_ids == ["f1", "f2"]
        assert m.sample_ids == ["s1", "s2", "s3"]

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

    @pytest.mark.parametrize("last, message", [
        ("s2\t1\tx", "non-numeric cell 'x' at line 6, column 'b'"),
        ("s2\t1", "ragged row at line 6"),
    ])
    def test_line_numbers_count_blank_lines(self, tmp_path, last, message):
        p = write(tmp_path, "x.tsv", f"id\ta\tb\n\ns1\t0\t1\n\n  \n{last}\n")
        with pytest.raises(ParseError, match=message):
            load_predictors(p, "tsv")

    def test_padding_blank_lines_and_crlf(self, tmp_path):
        cells = [" 1 ", "\t2.5", "-3e-2 ", "1_000", " +.5", "7."]
        text = ("id, a , b ,c\r\n\r\n s1 ," + ",".join(cells[:3])
                + "\r\n  \r\ns2," + ",".join(cells[3:]) + "\r\n\r\n")
        m = load_predictors(write(tmp_path, "x.csv", text), "csv")
        assert m.feature_ids == ["a", "b", "c"]
        assert m.sample_ids == ["s1", "s2"]
        assert m.raw.tolist() == [[float(c) for c in cells[:3]],
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
        got = load_predictors(p, "tsv").raw[0]
        want = np.array([float(c) for c in cells])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_duplicate_feature_id(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf1\ns1\t0\t1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_predictors(p, "tsv")

    def test_repeated_sample_id_named(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\ta\ns1\t0\ns3\t1\ns1\t2\n")
        with pytest.raises(ValidationError,
                           match="duplicate sample id: 's1'"):
            load_predictors(p, "tsv")

    def test_repeated_feature_id_refused_at_the_header(self, tmp_path):
        # refused before any row is read, so line 3's ragged row is not met
        p = write(tmp_path, "x.tsv", "id\ta\ta\ns1\t0\t1\ns2\t0\n")
        with pytest.raises(ValidationError,
                           match=r"x\.tsv: duplicate feature id: 'a' at "
                                 r"line 1$"):
            load_predictors(p, "tsv")

    def test_repeated_sample_id_refused_at_its_line(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\ta\ns1\t0\n\ns3\t0.5\ns1\t2\n")
        with pytest.raises(ValidationError,
                           match=r"x\.tsv: duplicate sample id: 's1' at "
                                 r"line 5 \(first at line 2\)$"):
            load_predictors(p, "tsv")

    def test_csv(self, tmp_path):
        p = write(tmp_path, "x.csv", "id,f1\ns1,3.5\n")
        assert load_predictors(p, "csv").raw[0, 0] == 3.5

    # every character besides \n and \r that `str.splitlines` breaks at
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d",
                                      "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_line_ends_end_a_row(self, tmp_path, char):
        p = write(tmp_path, "x.tsv", f"id\ta\tb\ns1\t1\t2{char}s2\t0\t1\n")
        with pytest.raises(ParseError, match=(
                "ragged row at line 2: expected 3 cells, got 5$")):
            load_predictors(p, "tsv")

    def test_header_and_ids_holding_other_breaks_are_one_line(self,
                                                               tmp_path):
        # the first row takes the dosage byte path, the second the text path
        p = write(tmp_path, "x.tsv", "id\ta\tb\x0cc\ns\x0c1\t1\t2\n"
                                     "s\u20282\t0.5\t1\n")
        m = load_predictors(p, "tsv")
        assert m.feature_ids == ["a", "b\x0cc"]
        assert m.sample_ids == ["s\x0c1", "s\u20282"]
        assert m.raw.tolist() == [[1.0, 2.0], [0.5, 1.0]]


def float_oracle(text, delim):
    """Per-cell `float()` parse of a predictor file's non-blank rows: the
    reference for `load_predictors`."""
    rows = [ln.split(delim) for ln in text.splitlines() if ln.strip()][1:]
    return ([r[0].strip() for r in rows],
            np.array([[float(c) for c in r[1:]] for r in rows]))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDosageRows:
    """Rows of single ASCII digits are decoded from their bytes; every other
    row goes through the `float()` cast with the same values and errors."""

    def test_dosage_file_matches_float_per_cell(self, tmp_path):
        v = np.random.default_rng(0).binomial(2, 0.3, size=(40, 500))
        text = "\n".join(["\t".join(["id"] + [f"f{j}" for j in range(500)])]
                         + ["\t".join([f"s{i}"] + [str(c) for c in row])
                            for i, row in enumerate(v)]) + "\n"
        m = load_predictors(write(tmp_path, "x.tsv", text), "tsv")
        ids, want = float_oracle(text, "\t")
        assert m.sample_ids == ids
        assert m.raw.dtype == np.uint8
        assert_same_bits(m.raw.astype(np.float64), want)
        assert np.array_equal(m.raw, v)

    @pytest.mark.parametrize("tail, fast", [
        ("\t0\t1\t2", True),
        ("\t9\t0\t5", True),
        ("\t 1\t1\t2", False),   # padded
        ("\t10\t1\t2", False),   # two digits
        ("\t-1\t1\t2", False),   # signed
        ("\t1.0\t1\t2", False),  # decimal
        ("\t1\t1\t\u0661", False),  # a non-ASCII digit float() accepts
        ("\t1\t1\t/", False),    # the byte just below '0'
        ("\t1\t1\t:", False),    # the byte just above '9'
        ("\t1,1\t2", False),      # delimiter out of place
        ("\t1\t2", False),        # p - 1 cells
    ])
    def test_byte_path_takes_only_single_digit_rows(self, tmp_path, tail,
                                                    fast):
        # a one-row file is uint8 only when the row is single ASCII digits;
        # any other row is read as `float()` reads its cells, or refused
        p = write(tmp_path, "x.tsv", "id\ta\tb\tc\ns1" + tail + "\n")
        cells = tail.split("\t")[1:]
        try:
            want = [float(c) for c in cells]
        except ValueError:
            want = None
        if want is None or len(cells) != 3:
            with pytest.raises(ParseError, match="at line 2"):
                load_predictors(p, "tsv")
            return
        m = load_predictors(p, "tsv")
        assert (m.raw.dtype == np.uint8) == fast
        assert m.raw.tolist() == [want]

    @pytest.mark.parametrize("format, delim", [("tsv", "\t"), ("csv", ",")])
    def test_mixed_rows_match_float_per_cell(self, tmp_path, format, delim):
        rows = [
            ["s1", "0", "1", "2"],
            ["s2", " 1", "0", "2"],         # padded
            ["s3", "2", "10", "1"],         # two digits
            ["s4", "1", "1", "-1"],         # signed
            ["s5", "1.0", "2", "0"],        # decimal
            ["s\u00e9", "2", "2", "1"],     # non-ASCII sample id
            ["s7", "0", "\u0661", "0"],     # non-ASCII digit
            ["s8", "9", "8", "7"],
        ]
        lines = [delim.join(["id", "a", "b", "c"])]
        lines += [delim.join(r) for r in rows]
        for i in (1, 3):  # CRLF lines among LF lines, one of them digits
            lines[i] += "\r"
        text = "\n".join(lines) + "\n"
        m = load_predictors(write(tmp_path, f"x.{format}", text), format)
        ids, want = float_oracle(text, delim)
        assert m.sample_ids == ids == [r[0] for r in rows]
        assert_same_bits(m.raw, want)

    @pytest.mark.parametrize("row, got", [("s2\t1\t0", 3),
                                          ("s2\t1\t0\t2\t1", 5)])
    def test_single_digit_ragged_row(self, tmp_path, row, got):
        p = write(tmp_path, "x.tsv", f"id\ta\tb\tc\ns1\t0\t1\t2\n{row}\n")
        with pytest.raises(ParseError, match=(
                f"ragged row at line 3: expected 4 cells, got {got}$")):
            load_predictors(p, "tsv")

    def test_empty_cell_refused(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf2\ns1\t\t1\n")
        with pytest.raises(ParseError,
                           match="non-numeric cell '' at line 2, column 'f1'"):
            load_predictors(p, "tsv")

    def test_nan_row_refused(self, tmp_path):
        p = write(tmp_path, "x.tsv", "id\tf1\tf2\ns1\t0\t1\ns2\tnan\tnan\n")
        with pytest.raises(ValidationError,
                           match="non-finite value at sample 's2', "
                                 "feature 'f1'"):
            load_predictors(p, "tsv")

    def test_simulate_output_reads_back(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", "simulate.n = 60\nsimulate.p = 40\n"
                    "simulate.maf_low = 0.1\nsimulate.maf_high = 0.4\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "4"]) == 0
        x, _, _ = simulate(SyntheticSpec(n_samples=60, n_features=40,
                                         maf_range=(0.1, 0.4), seed=4))
        m = load_predictors(out / "predictors.tsv", "tsv")
        assert m.sample_ids == x.sample_ids
        assert m.feature_ids == x.feature_ids
        assert m.raw.dtype == x.raw.dtype == np.uint8
        assert_same_bits(m.raw.astype(np.float64),
                         x.raw.astype(np.float64))


class TestBlockReader:
    """Each line is checked once, as it is read: a dosage row by its bytes,
    and a row that fails that check, or any other line, by `float()`, so
    rows and errors come in line order. (The class keeps the name it had
    when dosage rows were checked a block at a time, so its test ids
    stay.)"""

    P = 5

    def lines(self, n_rows, seed=0):
        v = np.random.default_rng(seed).binomial(2, 0.4, size=(n_rows, self.P))
        return dosage_text(v, str).splitlines()

    def test_dosage_rows_past_one_block(self, tmp_path):
        text = "\n".join(self.lines(11)) + "\n"
        m = load_predictors(write(tmp_path, "x.tsv", text), "tsv")
        ids, want = float_oracle(text, "\t")
        assert m.sample_ids == ids
        assert m.raw.dtype == np.uint8
        assert_same_bits(m.raw.astype(np.float64), want)

    # rows between dosage rows, and the last row
    @pytest.mark.parametrize("row", [2, 4, 5, 11])
    @pytest.mark.parametrize("spell", [lambda c: f" {c}", lambda c: f"{c}.0"],
                             ids=["padded", "decimal"])
    def test_other_row_inside_or_at_edge_of_block(self, tmp_path, row,
                                                  spell):
        lines = self.lines(11)
        sid, *cells = lines[row].split("\t")
        lines[row] = "\t".join([sid] + [spell(c) for c in cells])
        text = "\n".join(lines) + "\n"
        m = load_predictors(write(tmp_path, "x.tsv", text), "tsv")
        ids, want = float_oracle(text, "\t")
        assert m.sample_ids == ids
        assert m.raw.dtype == np.float64
        assert_same_bits(m.raw, want)

    @pytest.mark.parametrize("bad, message", [
        ("s9\t1\t0", "ragged row at line 12: expected 6 cells, got 3$"),
        ("s9\t1\t0\tx\t2\t1", "non-numeric cell 'x' at line 12, column 'f2'$"),
        ("s9\t1\t0\t/\t2\t1", "non-numeric cell '/' at line 12, column 'f2'$"),
    ], ids=["ragged", "non_numeric", "digit_width"])
    def test_bad_row_after_first_block(self, tmp_path, bad, message):
        # two blank lines before the bad row, which is the 9th data row; a
        # bad row after it must not be the one named
        lines = self.lines(12)
        lines[4:4] = ["", "  "]
        lines[11] = bad
        lines[13] = "s11\tx"
        p = write(tmp_path, "x.tsv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message):
            load_predictors(p, "tsv")

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["lone_cr", "crlf"])
    def test_line_ends(self, tmp_path, end):
        lines = self.lines(9)
        text = end.join(lines) + end
        p = tmp_path / "x.tsv"
        p.write_bytes(text.encode())
        m = load_predictors(p, "tsv")
        ids, want = float_oracle(text, "\t")
        assert m.sample_ids == ids and len(ids) == 9
        assert m.raw.dtype == np.uint8
        assert_same_bits(m.raw.astype(np.float64), want)
        lines[7] = lines[7] + "\t1"
        p.write_bytes((end.join(lines) + end + end).encode())
        with pytest.raises(ParseError, match="ragged row at line 8:"):
            load_predictors(p, "tsv")

    @pytest.mark.parametrize("line, at", [
        (b"s\xe9\t0\t1", 3),       # in a sample id
        (b"s2\t0\t\xe9", 3),       # in a dosage-row-wide cell
        (b"s2\t0\t1.\xff5", 3),    # in a decimal row
        (b"\xff", 3),
    ])
    def test_invalid_utf8_names_line(self, tmp_path, line, at):
        p = tmp_path / "x.tsv"
        p.write_bytes(b"id\ta\tb\ns1\t0\t1\n" + line + b"\ns3\t1\tx\n")
        with pytest.raises(ParseError,
                           match=f"x.tsv: invalid UTF-8 at line {at}$"):
            load_predictors(p, "tsv")

    # io.TextIOWrapper decodes a file this many bytes at a time (8192)
    TEXT_READ = io.TextIOWrapper(io.BytesIO())._CHUNK_SIZE

    @pytest.mark.parametrize("end, at", [("\r\n", 1), ("\r", 1),
                                         ("\n", 7)],
                             ids=["crlf", "lone_cr", "dosage_row"])
    def test_lines_across_text_reads(self, tmp_path, end, at):
        # one line end is padded to start `at` bytes before the end of the
        # first read: a "\r\n" or a lone "\r" as its last byte, or a line
        # end 7 bytes before it, so the next dosage row straddles the read
        lines = self.lines(1200)
        stop = self.TEXT_READ - at
        ends = np.cumsum([len(ln) + len(end) for ln in lines]) - len(end)
        i = int(np.searchsorted(ends, stop, side="right")) - 1
        sid, rest = lines[i].split("\t", 1)
        lines[i] = sid + "_" * (stop - int(ends[i])) + "\t" + rest
        text = end.join(lines) + end
        assert text.index(end, stop - len(lines[i])) == stop
        p = tmp_path / "x.tsv"
        p.write_bytes(text.encode())
        m = load_predictors(p, "tsv")
        ids, want = float_oracle(text, "\t")
        assert m.sample_ids == ids and len(ids) == 1200
        assert m.raw.dtype == np.uint8
        assert_same_bits(m.raw.astype(np.float64), want)
        lines[i + 1] += "\t1"
        p.write_bytes((end.join(lines) + end).encode())
        with pytest.raises(ParseError,
                           match=f"ragged row at line {i + 2}:"):
            load_predictors(p, "tsv")


@pytest.mark.parametrize("data, lines", [
    (b"\xef\xbb\xbfid\ta\n", ["id\ta"]),
    (b"\xef\xbb\xbf\r\nid\n", ["", "id"]),
    (b"\xef\xbb\xbf", []),
    # only a mark at the start of the file is dropped
    (b"id\xef\xbb\xbf\n", ["id\ufeff"]),
    (b"\n\xef\xbb\xbfid\n", ["", "\ufeffid"]),
])
def test_file_lines_drop_a_leading_byte_order_mark(tmp_path, data, lines):
    p = tmp_path / "x.tsv"
    p.write_bytes(data)
    assert [line for _, line in sparsesdr.dataset._file_lines(p)] == lines


@pytest.mark.parametrize("load, text, message", [
    (load_predictors, "id\ta\ns1\t0\ns2\t0\t1\ns3\t1\n",
     "ragged row at line 3"),
    (load_predictors, "id\ns1\ns2\n", "header needs a sample-id column"),
    (load_phenotype, "s1\t0\ns2\tx\ns3\t1\n", "non-numeric label 'x'"),
], ids=["ragged_row", "one_column_header", "non_numeric_label"])
def test_loader_that_stops_early_closes_its_file(tmp_path, monkeypatch, load,
                                                 text, message):
    # the file is closed as the loader raises, while `excinfo`'s traceback
    # still holds the loader's frame and so its reader: a generator closes
    # its file when collected, so no ResourceWarning would show a reader
    # left open until then
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sparsesdr.dataset, "open", recording_open,
                        raising=False)
    with pytest.raises(ParseError, match=message) as excinfo:
        load(write(tmp_path, "x.tsv", text))
    assert excinfo.traceback and [fh.closed for fh in opened] == [True]


def dosage_text(v, spell):
    """A predictor file of the cells of `v`, each written as `spell(c)`."""
    n, p = v.shape
    return "\n".join(["\t".join(["id"] + [f"f{j}" for j in range(p)])]
                     + ["\t".join([f"s{i}"] + [spell(c) for c in row])
                        for i, row in enumerate(v)]) + "\n"


class TestStorage:
    """Single-digit files are held as uint8, anything else as float64;
    `center` gives a float64 copy less the column means, and the means of
    a dosage restriction are the whole matrix's at its columns."""

    @pytest.fixture
    def dosages(self):
        return np.random.default_rng(5).binomial(2, 0.35, size=(37, 60))

    @pytest.mark.parametrize("decimal_rows, dtype", [
        ([], np.uint8), ([5], np.float64), (range(37), np.float64)])
    def test_any_decimal_row_makes_the_matrix_float(self, tmp_path, dosages,
                                                    decimal_rows, dtype):
        lines = dosage_text(dosages, str).splitlines()
        for i in decimal_rows:  # "2" -> "2.0" in every cell of row i
            sid, *cells = lines[i + 1].split("\t")
            lines[i + 1] = "\t".join([sid] + [c + ".0" for c in cells])
        m = load_predictors(write(tmp_path, "x.tsv", "\n".join(lines)), "tsv")
        assert m.raw.dtype == dtype
        assert np.array_equal(m.raw, dosages)

    def test_center_copies_raw_less_its_means(self, dosages):
        for cells in (dosages.astype(np.uint8), dosages.astype(float),
                      np.asfortranarray(dosages, dtype=np.uint8)):
            x = PredictorMatrix(cells, [f"f{j}" for j in range(60)],
                                [f"s{i}" for i in range(37)])
            X, means = center(x)
            want = cells.mean(axis=0)
            assert means.dtype == X.dtype == np.float64
            assert_same_bits(means, want)
            assert_same_bits(X, cells - want)
            assert X.flags.f_contiguous == cells.flags.f_contiguous
            assert not np.shares_memory(X, x.raw)
            assert np.array_equal(x.raw, dosages)

    def test_partition_means_equal_whole_means(self, dosages):
        ids = [f"f{j}" for j in range(60)], [f"s{i}" for i in range(37)]
        u8 = PredictorMatrix(dosages.astype(np.uint8), *ids)
        f64 = PredictorMatrix(dosages.astype(float), *ids)
        _, whole = center(u8)
        assert_same_bits(center(f64)[1], whole)
        for cols in (np.arange(0, 20), np.arange(20, 60), [3, 17, 59]):
            for x in (u8, f64):
                assert_same_bits(center(x.restrict(cols))[1], whole[cols])

    def test_restricted_values_match_full_values(self, dosages):
        ids = [f"f{j}" for j in range(60)], [f"s{i}" for i in range(37)]
        u8 = PredictorMatrix(dosages.astype(np.uint8), *ids)
        f64 = PredictorMatrix(dosages.astype(float), *ids)
        full, _ = center(f64)
        assert full.dtype == np.float64 and full.flags.c_contiguous
        assert_same_bits(center(u8)[0], full)
        cols = np.arange(10, 35)
        for x in (u8, f64):
            part = x.restrict(cols)
            assert part.raw.dtype == x.raw.dtype
            assert part.raw.flags.f_contiguous
            assert_same_bits(center(part)[0], full[:, cols])

    def test_take_rows_copies_cells_and_drops_centering(self, dosages):
        # a row subset is centered with its own means, not the whole's
        x = PredictorMatrix(dosages.astype(np.uint8),
                            [f"f{j}" for j in range(60)],
                            [f"s{i}" for i in range(37)])
        rows = x.take_rows([0, 4, 9])
        assert rows.raw.dtype == np.uint8
        assert np.array_equal(rows.raw, dosages[[0, 4, 9]])
        assert not np.shares_memory(rows.raw, x.raw)
        assert_same_bits(center(rows)[1], dosages[[0, 4, 9]].mean(axis=0))


class TestDosages:
    """`dosages` gives uint8 cells as they are and float cells as an exact
    uint8 copy, and names the first cell outside {0, 1, 2} it meets."""

    @staticmethod
    def matrix(cells):
        n, p = cells.shape
        return PredictorMatrix(cells, [f"f{j}" for j in range(p)],
                               [f"s{i}" for i in range(n)])

    def test_uint8_cells_returned_as_they_are(self):
        cells = np.random.default_rng(3).binomial(2, 0.3, (20, 15))
        x = self.matrix(cells.astype(np.uint8))
        assert np.shares_memory(x.dosages(), x.raw)

    def test_float_cells_copied_exactly(self):
        cells = np.random.default_rng(4).binomial(2, 0.3, (20, 15))
        x = self.matrix(cells.astype(float))
        got = x.dosages()
        assert got.dtype == np.uint8
        assert np.array_equal(got, x.raw)
        assert not np.shares_memory(got, x.raw)

    @pytest.mark.parametrize("dtype, value, text", [
        (np.uint8, 3, "3"), (float, 0.5, "0.5"), (float, -1, "-1")])
    def test_first_bad_cell_named(self, dtype, value, text):
        # (1, 4) comes first in row-major order, (3, 0) in column-major
        cells = np.ones((4, 5), dtype=dtype)
        cells[3, 0] = cells[1, 4] = value
        with pytest.raises(ValidationError) as exc:
            self.matrix(cells).dosages()
        assert str(exc.value).endswith(
            f"requires dosages in {{0, 1, 2}}, got {text} at sample 's1', "
            "feature 'f4'")


def test_only_dataset_reads_the_cells():
    # a matrix's cell format is known to dataset.py alone: every other
    # module asks it for dosages or centered cells, never for `raw`
    modules = sorted(Path(sparsesdr.dataset.__file__).parent.glob("*.py"))
    assert "evaluation.py" in [m.name for m in modules]
    readers = [f"{m.name}:{node.lineno}"
               for m in modules if m.name != "dataset.py"
               for node in ast.walk(ast.parse(m.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "raw"]
    assert readers == []


def _reads_a_file(call: ast.Call) -> bool:
    """Whether `call` is `read_text`, `read_bytes` or an `open` (builtin or
    `Path.open`) whose mode is not a constant holding "w", "a" or "x"."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    args = call.args[isinstance(func, ast.Name):]   # builtin: path first
    mode = args[0] if args else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) & set("wax"))


def test_only_dataset_reads_input_files():
    # every parsed input is read by dataset._file_lines, so one line rule
    # (line ends, byte-order mark, UTF-8) holds for all of them; the
    # manifest's digest alone reads a file's bytes as they are
    modules = sorted(Path(sparsesdr.dataset.__file__).parent.glob("*.py"))
    readers = [(m.name, getattr(top, "name", None))
               for m in modules if m.name != "dataset.py"
               for top in ast.parse(m.read_text(encoding="utf-8")).body
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and _reads_a_file(node)]
    assert readers == [("cli.py", "_sha256")]


class TestPhenotypeFile:
    def test_roundtrip(self, tmp_path):
        p = write(tmp_path, "y.tsv", "s1\t0\ns2\t1\n")
        ids, labels = load_phenotype(p)
        assert ids == ["s1", "s2"]
        assert labels.tolist() == [0, 1]

    def test_align_refuses_repeated_id(self):
        x = PredictorMatrix(np.zeros((2, 1)), ["a"], ["s1", "s2"])
        with pytest.raises(ValidationError,
                           match="phenotype repeats sample id: 's2'"):
            align_phenotype(x, ["s2", "s1", "s2"], np.array([0, 1, 1]))

    def test_align_reorders_by_id(self):
        x = PredictorMatrix(np.zeros((3, 1)), ["a"], ["s1", "s2", "s3"])
        got = align_phenotype(x, ["s3", "s1", "s2"], np.array([3, 1, 2]))
        assert got.tolist() == [1, 2, 3]

    def test_bad_column_count(self, tmp_path):
        p = write(tmp_path, "y.tsv", "s1\t0\t9\n")
        with pytest.raises(ParseError):
            load_phenotype(p)

    @pytest.mark.parametrize("label", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_label_refused_without_warning(self, tmp_path, label):
        # pytest turns numpy's cast warning into an error
        p = write(tmp_path, "y.tsv", f"s1\t0\n\ns2\t{label}\ns3\t1\n")
        with pytest.raises(ParseError,
                           match=f"non-finite label '{label}' at line 3$"):
            load_phenotype(p)

    def test_labels_past_int64_stay_float(self, tmp_path):
        p = write(tmp_path, "y.tsv", "s1\t0\ns2\t1e300\n")
        ids, labels = load_phenotype(p)
        assert labels.dtype == np.float64
        assert labels.tolist() == [0.0, 1e300]

    def test_invalid_utf8_names_line(self, tmp_path):
        p = tmp_path / "y.tsv"
        p.write_bytes(b"s1\t0\r\ns2\t1\rs\xff\t1\n")
        with pytest.raises(ParseError,
                           match="y.tsv: invalid UTF-8 at line 3$"):
            load_phenotype(p)


class TestCenter:
    def test_simple_column(self):
        m = PredictorMatrix(np.array([[0.0], [1.0], [2.0]]), ["f"], list("abc"))
        X, means = center(m)
        assert X[:, 0].tolist() == [-1, 0, 1]
        assert means.tolist() == [1]

    def test_constant_column(self):
        m = PredictorMatrix(np.array([[3.0], [3.0], [3.0]]), ["f"], list("abc"))
        assert center(m)[0][:, 0].tolist() == [0, 0, 0]

    def test_single_sample(self):
        m = PredictorMatrix(np.array([[5.0, -2.0]]), ["f1", "f2"], ["s"])
        assert np.all(center(m)[0] == 0)

    def test_recenter_keeps_means(self):
        # the means are read from the raw cells, which centering leaves as
        # they were, so a second call gives the same bits
        x, _, _ = simulate(SyntheticSpec(40, 12, seed=3))
        raw = x.raw.copy()
        X, means = center(x)
        again, again_means = center(x)
        assert np.array_equal(x.raw, raw) and x.raw.dtype == np.uint8
        assert_same_bits(again_means, means)
        assert_same_bits(again, X)

    def test_given_means_subtracted(self):
        # `predict` centers test rows by the training means, not their own
        x, _, _ = simulate(SyntheticSpec(40, 12, seed=3))
        means = np.linspace(0.0, 2.0, 12)
        X, got = center(x, means)
        assert got is means
        assert_same_bits(X, x.raw - means)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((10, 3))
        X1, _ = center(PredictorMatrix(vals.copy(), list("abc"),
                                       [f"s{i}" for i in range(10)]))
        shifted = vals.copy()
        shifted[:, 1] += 7.25
        X2, _ = center(PredictorMatrix(shifted, list("abc"),
                                       [f"s{i}" for i in range(10)]))
        assert np.allclose(X1, X2, atol=1e-12)

    def test_means_are_zero(self):
        rng = np.random.default_rng(1)
        X, _ = center(PredictorMatrix(rng.standard_normal((50, 8)),
                                      [f"f{j}" for j in range(8)],
                                      [f"s{i}" for i in range(50)]))
        assert np.abs(X.mean(axis=0)).max() < 1e-10 * 50


class TestMakePhenotype:
    @pytest.mark.parametrize("dtype", [int, float])
    def test_integer_levels_capped(self, dtype):
        # up to the cap, distinct integers are classes; past it (ages, say)
        # the response is continuous
        at_cap = np.arange(2 * MAX_INFERRED_LEVELS, dtype=dtype) % 10
        y = make_phenotype(at_cap)
        assert MAX_INFERRED_LEVELS == 10
        assert y.kind == "categorical" and y.n_levels == 10
        over = np.arange(2 * MAX_INFERRED_LEVELS + 2, dtype=dtype) % 11
        assert make_phenotype(over).kind == "continuous"
        assert make_phenotype(over, "categorical").n_levels == 11


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
        assert np.array_equal(x1.raw, x2.raw)
        assert np.array_equal(y1.labels, y2.labels)
        assert t1 == t2

    def test_different_seeds_differ(self):
        a = simulate(SyntheticSpec(n_samples=50, n_features=10, seed=1))[0]
        b = simulate(SyntheticSpec(n_samples=50, n_features=10, seed=2))[0]
        assert not np.array_equal(a.raw, b.raw)

    def test_null_support_uncorrelated(self):
        spec = SyntheticSpec(n_samples=2000, n_features=20, seed=7,
                             support=[], link="logistic")
        x, y, truth = simulate(spec)
        assert truth == set()
        xc = x.raw - x.raw.mean(axis=0)
        yc = y.labels - y.labels.mean()
        corr = xc.T @ yc / (np.linalg.norm(xc, axis=0) * np.linalg.norm(yc))
        assert np.abs(corr).max() < 0.1

    def test_single_feature_threshold_signal(self):
        spec = SyntheticSpec(n_samples=500, n_features=50, seed=9,
                             support=[(3, 3.0)], link="threshold")
        x, y, _ = simulate(spec)
        # thresholding oracle on the true feature
        col = x.raw[:, 3] - x.raw[:, 3].mean()
        pred = (col > 0).astype(int)
        acc = max(np.mean(pred == y.labels), np.mean(1 - pred == y.labels))
        assert acc > 0.8

    def test_dosages(self):
        x, _, _ = simulate(SyntheticSpec(n_samples=30, n_features=5, seed=3))
        assert set(np.unique(x.raw)) <= {0.0, 1.0, 2.0}

    @staticmethod
    def one_shot(spec):
        """`simulate` as a single (n, p) draw converted to float64: the
        reference for the blocked uint8 draw."""
        rng = np.random.default_rng(spec.seed)
        n, p = spec.n_samples, spec.n_features
        maf = rng.uniform(*spec.maf_range, size=p)
        values = rng.binomial(2, maf, size=(n, p)).astype(float)
        score = np.zeros(n)
        for j, eff in spec.support:
            score += eff * (values[:, j] - 2 * maf[j])
        if spec.link == "logistic":
            prob = 1.0 / (1.0 + np.exp(-score))
            labels = (rng.uniform(size=n) < prob).astype(int)
        else:
            labels = (score + rng.standard_normal(n) > 0).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        x = PredictorMatrix(values, [f"f{j}" for j in range(p)],
                            [f"s{i}" for i in range(n)])
        truth = {j for j, _ in spec.support}
        return x, Phenotype(labels, "binary", [0, 1]), truth

    @pytest.mark.parametrize("block", [7, 40, 1 << 20])
    @pytest.mark.parametrize("link", ["logistic", "threshold"])
    def test_blocked_draw_matches_one_shot(self, monkeypatch, block, link):
        monkeypatch.setattr(sparsesdr.dataset, "_SIM_BLOCK_CELLS", block)
        spec = SyntheticSpec(n_samples=53, n_features=13, seed=8, link=link,
                             support=[(2, 1.5), (11, -2.0)])
        x, y, truth = simulate(spec)
        ref_x, ref_y, ref_truth = self.one_shot(spec)
        assert x.raw.dtype == np.uint8
        assert np.array_equal(x.raw, ref_x.raw)
        assert np.array_equal(y.labels, ref_y.labels)
        assert truth == ref_truth

    def test_command_writes_the_one_shot_files(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, "sim.cfg", "simulate.n = 41\nsimulate.p = 9\n"
                    "simulate.support = 3\nsimulate.effect = 2.0\n")
        argv = ["simulate", "--config", str(cfg), "--seed", "6", "--out"]
        monkeypatch.setattr(sparsesdr.dataset, "_SIM_BLOCK_CELLS", 20)
        assert main(argv + [str(tmp_path / "blocked")]) == 0
        monkeypatch.setattr(sparsesdr.cli, "simulate", self.one_shot)
        assert main(argv + [str(tmp_path / "one_shot")]) == 0
        for name in ("predictors.tsv", "phenotype.tsv", "truth.json"):
            assert ((tmp_path / "blocked" / name).read_bytes()
                    == (tmp_path / "one_shot" / name).read_bytes())

    def test_bad_maf_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_samples=10, n_features=5, maf_range=(0.4, 0.1))

    @pytest.mark.parametrize("n, p", [(0, 5), (-3, 5), (1, 5), (10, 0)])
    def test_impossible_size_refused(self, n, p):
        with pytest.raises(ValidationError, match=f"got {n} x {p}"):
            SyntheticSpec(n_samples=n, n_features=p)

    def test_support_out_of_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_samples=10, n_features=5, support=[(9, 1.0)])
