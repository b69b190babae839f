"""Predictor/phenotype containers, file ingestion, centering and synthetic cohorts."""

from __future__ import annotations

import math
import re
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError


def _refuse_repeats(ids: list[str], message: str, where: str = "") -> None:
    """Refuse `ids` if some id occurs twice, naming the first such id."""
    if len(set(ids)) != len(ids):
        dup = next(i for i, c in Counter(ids).items() if c > 1)
        raise ValidationError(f"{message}: {dup!r}{where}")


@dataclass
class PredictorMatrix:
    """Dense n_samples x n_features predictor matrix with feature identity.

    `raw` holds the cells as given: uint8 (`load_predictors` gives uint8
    for a file whose cells are all single digits, and `simulate` draws
    uint8 dosages), any other array as float64. No module but this one
    reads `raw`: a reader asks for the cells as uint8 dosages (`dosages`,
    for `chi2_rank`, `cross_validate`'s pvalue_rank path and the file the
    `simulate` command writes) or centered in float64 (`center`, for each
    fit and `predict`), so no uint8 sum or product, which would wrap
    around, is made elsewhere. `restrict` copies only its own columns, so
    fitting one partition never makes a float copy of the whole matrix.

    Instances are treated as immutable after construction; downstream code
    (partition fits, CV folds) shares them freely.
    """

    raw: np.ndarray
    feature_ids: list[str]
    sample_ids: list[str]

    def __post_init__(self):
        self.raw = np.asarray(self.raw)
        if self.raw.dtype != np.uint8:
            self.raw = self.raw.astype(float, copy=False)
        if self.raw.ndim != 2:
            raise ValidationError("predictor matrix must be 2-dimensional")
        n, p = self.raw.shape
        if len(self.feature_ids) != p:
            raise ValidationError(
                f"{len(self.feature_ids)} feature ids for {p} columns")
        if len(self.sample_ids) != n:
            raise ValidationError(
                f"{len(self.sample_ids)} sample ids for {n} rows")
        _refuse_repeats(self.feature_ids, "duplicate feature id")
        _refuse_repeats(self.sample_ids, "duplicate sample id")
        if self.raw.dtype != np.uint8 and not np.all(np.isfinite(self.raw)):
            i, j = np.argwhere(~np.isfinite(self.raw))[0]
            raise ValidationError(
                f"non-finite value at sample {self.sample_ids[i]!r}, "
                f"feature {self.feature_ids[j]!r}")

    @property
    def n_samples(self) -> int:
        return self.raw.shape[0]

    @property
    def n_features(self) -> int:
        return self.raw.shape[1]

    def dosages(self) -> np.ndarray:
        """The cells as uint8 dosages in {0, 1, 2}: `raw` itself when it is
        uint8 (decided by its maximum), an exact uint8 copy of float cells.
        Any other cell is refused, the first in row-major order named."""
        values = self.raw
        if values.dtype == np.uint8 and values.max(initial=0) <= 2:
            return values
        bad = ~np.isin(values, (0, 1, 2))
        if not bad.any():
            return values.astype(np.uint8)
        i, j = np.argwhere(bad)[0]
        raise ValidationError(
            f"chi-square ranking requires dosages in {{0, 1, 2}}, got "
            f"{values[i, j]:g} at sample {self.sample_ids[i]!r}, feature "
            f"{self.feature_ids[j]!r}")

    def restrict(self, columns) -> "PredictorMatrix":
        """Column-restricted copy of `raw`, Fortran-ordered."""
        columns = np.asarray(columns, dtype=int)
        return PredictorMatrix(
            raw=self.raw[:, columns],
            feature_ids=[self.feature_ids[j] for j in columns],
            sample_ids=list(self.sample_ids),
        )

    def take_rows(self, rows) -> "PredictorMatrix":
        """Row-restricted copy of `raw`."""
        rows = np.asarray(rows, dtype=int)
        return PredictorMatrix(
            raw=self.raw[rows],
            feature_ids=list(self.feature_ids),
            sample_ids=[self.sample_ids[i] for i in rows],
        )


@dataclass
class Phenotype:
    """Univariate response: binary, categorical or continuous."""

    labels: np.ndarray
    kind: str  # "binary" | "categorical" | "continuous"
    level_codes: list = field(default_factory=list)

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.kind not in ("binary", "categorical", "continuous"):
            raise ValidationError(f"unknown phenotype kind {self.kind!r}")
        if self.kind == "continuous":
            vals = self.labels.astype(float)
            if not np.all(np.isfinite(vals)):
                raise ValidationError("non-finite continuous label")
            self.labels = vals
        else:
            if not self.level_codes:
                self.level_codes = sorted(set(self.labels.tolist()))
            codes = set(self.level_codes)
            for v in self.labels.tolist():
                if v not in codes:
                    raise ValidationError(f"label {v!r} not among level codes")
            for c in self.level_codes:
                if not np.any(self.labels == c):
                    raise ValidationError(f"level {c!r} has no samples")
            if self.kind == "binary" and len(self.level_codes) != 2:
                raise ValidationError("binary phenotype needs exactly 2 levels")

    @property
    def n_levels(self) -> int:
        return len(self.level_codes)

    def take(self, rows) -> "Phenotype":
        rows = np.asarray(rows, dtype=int)
        return Phenotype(self.labels[rows], self.kind, list(self.level_codes))


MAX_INFERRED_LEVELS = 10   # more distinct integers (ages, say): continuous


def make_phenotype(labels, kind: str | None = None) -> Phenotype:
    """Build a Phenotype, inferring the kind when not given: 2 distinct
    values -> binary, at most `MAX_INFERRED_LEVELS` distinct integers ->
    categorical, else continuous."""
    labels = np.asarray(labels)
    if kind is None:
        distinct = set(labels.tolist())
        if len(distinct) == 2:
            kind = "binary"
        elif len(distinct) <= MAX_INFERRED_LEVELS and all(
                float(v).is_integer() for v in distinct):
            kind = "categorical"
        else:
            kind = "continuous"
    return Phenotype(labels, kind)


def _split_line(line: str, delim: str) -> list[str]:
    return [c.strip() for c in line.split(delim)]


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")   # a non-UTF-8 byte, escaped


def _file_lines(path):
    """(line number, text) for each line of the UTF-8 file at `path`,
    without its line end. Text mode ends lines at "\n", "\r\n" or a lone
    "\r" and nowhere else, and "utf-8-sig" drops a byte-order mark at the
    start of the file; lines are numbered from 1, blank ones included.
    Every input file is read here, and a line holding a byte sequence that
    is not UTF-8 is refused with its number."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and _ESCAPED_BYTE.search(line):
                raise ParseError(f"{path}: invalid UTF-8 at line {lineno}")
            yield lineno, line.removesuffix("\n")


def _refuse_tab(path, lineno: int, kind: str, ids) -> None:
    if "\t" in "".join(ids):   # every TSV output would split the id
        bad = next(i for i in ids if "\t" in i)
        raise ParseError(f"{path}: {kind} id {bad!r} at line {lineno} "
                         "holds a tab")


def _text_row(path, lineno: int, line: str, delim: str, header: list[str]):
    """One line below the header: None if it holds only whitespace, else
    (sample id, float64 row) with the cells converted by numpy's
    string-to-float cast."""
    if line.strip() == "":
        return None
    cells = line.split(delim)
    if len(cells) != len(header):
        raise ParseError(
            f"{path}: ragged row at line {lineno}: expected "
            f"{len(header)} cells, got {len(cells)}")
    try:
        return cells[0].strip(), np.array(cells[1:], dtype=float)
    except ValueError:
        for j, cell in enumerate(cells[1:], start=1):
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {cell.strip()!r} at "
                    f"line {lineno}, column {header[j]!r}") from None
        raise


def load_predictors(path, format: str = "tsv") -> PredictorMatrix:
    """Load a predictor file: header row of feature ids, first column sample id.

    The file is read a line at a time, so it is never held whole as text,
    and each line is checked once, as it is read. Lines end where
    `_file_lines` ends them, and no other character ends one. The header is
    the first line that holds more than whitespace, and each later such
    line is one row. A line whose text from the first delimiter on is 2p
    ASCII characters may be a dosage row: as big-endian uint16, each
    (delimiter, cell) byte pair less (delimiter, '0') is at most 9 exactly
    when the cell is one ASCII digit, and if all are, the row is those
    values as uint8. Any other line is converted by numpy's string-to-float
    cast, which accepts and rejects the same cells (surrounding whitespace
    included) as `float()`. The matrix is uint8 when every row is a dosage
    row, else float64. Single digits are exact, so both give the values
    `float()` gives. Line numbers in errors count every line of the file
    from 1, blank lines included, and a line that is not UTF-8, has an id
    holding a tab (a CSV can) or repeats an id is refused with its number,
    as it is read.
    """
    if format not in ("tsv", "csv"):
        raise ValidationError(f"unknown format {format!r}")
    delim = "\t" if format == "tsv" else ","
    with closing(_file_lines(path)) as lines:
        for lineno, line in lines:
            if line.strip() != "":
                break
        else:
            raise ParseError(f"{path}: empty file")
        header = _split_line(line, delim)
        if len(header) < 2:
            raise ParseError(
                f"{path}: header needs a sample-id column plus features")
        _refuse_tab(path, lineno, "feature", header[1:])
        _refuse_repeats(header[1:], f"{path}: duplicate feature id",
                        f" at line {lineno}")
        width = 2 * (len(header) - 1)
        base = np.uint16(ord(delim) << 8 | ord("0"))
        rows, first_line = [], {}   # uint8/float64 rows; sample id -> line
        for lineno, line in lines:
            cut, row = line.find(delim), None
            tail = line[cut:]
            if 0 <= cut and len(tail) == width and tail.isascii():
                cells = np.frombuffer(tail.encode(), ">u2") - base
                if cells.max() <= 9:
                    row = line[:cut].strip(), cells.astype(np.uint8)
            if row is None:
                row = _text_row(path, lineno, line, delim, header)
            if row is not None:
                sid, values = row
                _refuse_tab(path, lineno, "sample", [sid])
                if sid in first_line:
                    raise ValidationError(
                        f"{path}: duplicate sample id: {sid!r} at line "
                        f"{lineno} (first at line {first_line[sid]})")
                first_line[sid] = lineno
                rows.append(values)
    if not rows:
        raise ValidationError(f"{path}: zero samples (header only)")
    return PredictorMatrix(np.stack(rows), header[1:], list(first_line))


def load_phenotype(path) -> tuple[list[str], np.ndarray]:
    """Load a two-column (sample id, label) tab-separated file, no header.
    A label that `float()` rejects or gives as nan or +-inf is refused with
    its line number, and so are a line that is not UTF-8 and the second use
    of a sample id."""
    labels, first_line = [], {}   # sample id -> line
    with closing(_file_lines(path)) as lines:
        for lineno, line in lines:
            if line.strip() == "":
                continue
            cells = _split_line(line, "\t")
            if len(cells) != 2:
                raise ParseError(
                    f"{path}: expected 2 columns at line {lineno}, "
                    f"got {len(cells)}")
            sid = cells[0]
            if sid in first_line:
                raise ValidationError(
                    f"{path}: phenotype repeats sample id: {sid!r} at line "
                    f"{lineno} (first at line {first_line[sid]})")
            first_line[sid] = lineno
            try:
                label = float(cells[1])
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric label {cells[1]!r} at line "
                    f"{lineno}") from None
            if not math.isfinite(label):
                raise ParseError(
                    f"{path}: non-finite label {cells[1]!r} at line {lineno}")
            labels.append(label)
    if not labels:
        raise ValidationError(f"{path}: zero samples")
    labels_arr = np.array(labels)
    # whole labels within int64 become ints; the range test keeps the cast
    # from overflowing
    if np.all((labels_arr == np.floor(labels_arr))
              & (np.abs(labels_arr) < 2.0 ** 63)):
        labels_arr = labels_arr.astype(int)
    return list(first_line), labels_arr


def align_phenotype(x: PredictorMatrix, sample_ids: list[str],
                    labels: np.ndarray) -> np.ndarray:
    """Reorder phenotype labels to the predictor sample order, by id."""
    _refuse_repeats(sample_ids, "phenotype repeats sample id")
    pos = {s: i for i, s in enumerate(sample_ids)}
    missing = [s for s in x.sample_ids if s not in pos]
    if missing:
        raise ValidationError(
            f"phenotype is missing samples: {missing[:5]}"
            + (" ..." if len(missing) > 5 else ""))
    if len(sample_ids) != len(x.sample_ids):
        extra = set(sample_ids) - set(x.sample_ids)
        raise ValidationError(
            f"phenotype has samples absent from predictors: "
            f"{sorted(extra)[:5]}")
    return np.asarray(labels)[[pos[s] for s in x.sample_ids]]


def center(m: PredictorMatrix, means=None) -> tuple[np.ndarray, np.ndarray]:
    """(`m.raw - means`, `means`) in float64, `means` being `m.raw`'s own
    column means unless given (a fit centers by its own, `predict` by the
    training means); the centered cells keep `raw`'s memory order. The
    means of uint8 dosages are exact sums divided by n, so those of any
    column subset equal the whole matrix's bit for bit."""
    means = m.raw.mean(axis=0) if means is None else means
    return m.raw - means, means


@dataclass
class SyntheticSpec:
    """Recipe for a synthetic cohort with known causal support."""

    n_samples: int
    n_features: int
    maf_range: tuple[float, float] = (0.05, 0.5)
    support: list[tuple[int, float]] = field(default_factory=list)
    link: str = "logistic"
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2 or self.n_features < 1:
            raise ValidationError(
                f"a cohort needs >= 2 samples and >= 1 feature, got "
                f"{self.n_samples} x {self.n_features}")
        lo, hi = self.maf_range
        if not (0 < lo <= hi <= 0.5):
            raise ValidationError("maf_range must be ordered within (0, 0.5]")
        if self.link not in ("logistic", "threshold"):
            raise ValidationError(f"unknown link {self.link!r}")
        for j, effect in self.support:
            if not (0 <= j < self.n_features):
                raise ValidationError(f"support index {j} out of range")
            if not math.isfinite(effect):
                raise ValidationError(
                    f"support effect must be finite, got {effect}")


_SIM_BLOCK_CELLS = 1 << 20  # cells per `simulate` draw (8 MB as int64)


def simulate(spec: SyntheticSpec):
    """Draw a genotype-like cohort: dosage ~ Binomial(2, q_j) per feature,
    labels from the requested link on the centered causal score.

    Returns (PredictorMatrix, Phenotype, support index set).
    """
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n_samples, spec.n_features
    lo, hi = spec.maf_range
    maf = rng.uniform(lo, hi, size=p)
    # Drawn in row blocks straight into uint8: one Generator's blocks are
    # the one-shot (n, p) draw, without its int64 copy.
    values = np.empty((n, p), dtype=np.uint8)
    step = max(1, _SIM_BLOCK_CELLS // p)
    for start in range(0, n, step):
        block = values[start:start + step]
        block[:] = rng.binomial(2, maf, size=block.shape)

    score = np.zeros(n)
    for j, eff in spec.support:
        score += eff * (values[:, j].astype(float) - 2 * maf[j])
    if spec.link == "logistic":
        prob = 1.0 / (1.0 + np.exp(-score))
        labels = (rng.uniform(size=n) < prob).astype(int)
    else:
        labels = (score + rng.standard_normal(n) > 0).astype(int)
    # degenerate single-class draws only happen at tiny n; flip one label so
    # the Phenotype invariant (every level occurs) holds
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]

    x = PredictorMatrix(
        raw=values,
        feature_ids=[f"f{j}" for j in range(p)],
        sample_ids=[f"s{i}" for i in range(n)],
    )
    y = Phenotype(labels, "binary", [0, 1])
    return x, y, {j for j, _ in spec.support}
