"""Predictor/phenotype containers, file ingestion, centering and synthetic cohorts."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError


def _refuse_repeats(ids: list[str], message: str) -> None:
    """Refuse `ids` if some id occurs twice, naming the first such id."""
    if len(set(ids)) != len(ids):
        dup = next(i for i, c in Counter(ids).items() if c > 1)
        raise ValidationError(f"{message}: {dup!r}")


@dataclass
class PredictorMatrix:
    """Dense n_samples x n_features predictor matrix with feature identity.

    `raw` holds the uncentered cells: uint8 as given (`load_predictors`
    gives uint8 for a file whose cells are all single digits, and `simulate`
    draws uint8 dosages), any other array as float64. `center` shares `raw`
    and stores the column means; a centered matrix's `values` are then
    `raw - column_means` in float64, computed on each read, and `restrict`
    copies only its own raw columns, so fitting one partition never makes a
    float copy of the whole matrix. Arithmetic on the values of an
    uncentered matrix must convert them to float64 first: uint8 products
    and sums wrap around.

    Instances are treated as immutable after construction; downstream code
    (partition workers, CV folds) shares them freely.
    """

    raw: np.ndarray
    feature_ids: list[str]
    sample_ids: list[str]
    column_means: np.ndarray | None = None  # set by `center`

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
    def centered(self) -> bool:
        return self.column_means is not None

    @property
    def values(self) -> np.ndarray:
        """The cells: `raw` itself, or a new float64 `raw - column_means`
        (same memory order as `raw`) when centered."""
        if self.column_means is None:
            return self.raw
        return self.raw - self.column_means

    @property
    def n_samples(self) -> int:
        return self.raw.shape[0]

    @property
    def n_features(self) -> int:
        return self.raw.shape[1]

    def restrict(self, columns) -> "PredictorMatrix":
        """Column-restricted copy of `raw`, with those columns' stored means.
        Its `values` equal this matrix's `values[:, columns]` bit for bit,
        and are Fortran-ordered like them."""
        columns = np.asarray(columns, dtype=int)
        return PredictorMatrix(
            raw=self.raw[:, columns],
            feature_ids=[self.feature_ids[j] for j in columns],
            sample_ids=list(self.sample_ids),
            column_means=None if self.column_means is None
            else self.column_means[columns],
        )

    def take_rows(self, rows) -> "PredictorMatrix":
        """Row-restricted copy of `raw`. Centering is dropped: a row subset
        of a centered matrix is in general no longer centered."""
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


_READ_BYTES = 1 << 20   # bytes per read of an input file
_BLOCK_BYTES = 1 << 20  # dosage-row bytes checked at once


def _file_lines(fh):
    """(line number, bytes) for each line of the binary file `fh`, without
    its line end. Lines end at b"\n", b"\r\n" or a lone b"\r", as in text
    mode, and are numbered from 1, blank ones included; every input file is
    split here, so no other character ends a line. The file is read
    `_READ_BYTES` at a time; only a line that spans reads is carried over."""
    lineno, rest = 0, b""
    for chunk in iter(lambda: fh.read(_READ_BYTES), b""):
        if b"\r" in chunk or rest.endswith(b"\r"):
            # each line end as b"\n", but a last b"\r", which may be the
            # first half of a b"\r\n", is carried over as it is
            chunk, rest = rest + chunk, b""
            last = chunk.endswith(b"\r")
            chunk = (chunk[:len(chunk) - last].replace(b"\r\n", b"\n")
                     .replace(b"\r", b"\n") + b"\r" * last)
        # `find` scans with memchr; `split` tests byte by byte, 25x slower
        start, end = 0, chunk.find(b"\n")
        while end >= 0:
            lineno += 1
            yield lineno, rest + chunk[start:end]
            rest, start, end = b"", end + 1, chunk.find(b"\n", end + 1)
        rest += chunk[start:]
    if rest:
        yield lineno + 1, rest.rstrip(b"\r")


def _decode(path, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: invalid UTF-8 at line {lineno}") from None


class _PredictorRows:
    """The rows of a predictor file below its header, in file order.

    A line that may be a dosage row (its bytes from the first delimiter on
    are 2p long, and the sample id before them is UTF-8) is copied into a
    block of rows, with a delimiter after its last cell. A full block is
    checked at once: as little-endian uint16, each (cell, delimiter) byte
    pair less (delimiter, '0') is the cell's value when it is one ASCII
    digit, and above 9 otherwise. A row that fails, and every other line,
    is decoded and read as text: skipped if it holds only whitespace, else
    one row whose cells are converted by numpy's string-to-float cast. The
    block is checked before any line after it is read as text, so errors
    come in line order."""

    def __init__(self, path, delim: str, header: list[str]):
        self.path, self.delim, self.header = path, delim, header
        self.sep = delim.encode()
        self.p = len(header) - 1
        self.sample_ids: list[str] = []
        self.rows: list[np.ndarray] = []  # uint8 dosage and float64 rows
        self.block = np.empty((max(1, _BLOCK_BYTES // (2 * self.p)),
                               2 * self.p), dtype=np.uint8)
        self.block[:, -1] = ord(delim)
        self.queued: list[tuple[int, str, bytes]] = []  # line, id, bytes
        self.base = ord(delim) << 8 | ord("0")

    def add(self, lineno: int, raw: bytes) -> None:
        """Take one line of the file, without its line end."""
        if not self._queue(lineno, raw):
            self._check_block()
            self._text(lineno, raw)

    def _queue(self, lineno: int, raw: bytes) -> bool:
        cut = raw.find(self.sep)
        if cut < 0 or len(raw) - cut != 2 * self.p:
            return False
        try:
            sid = raw[:cut].decode("utf-8")
        except UnicodeDecodeError:
            return False
        self.block[len(self.queued), :-1] = np.frombuffer(
            raw, dtype=np.uint8, offset=cut + 1)
        self.queued.append((lineno, sid, raw))
        if len(self.queued) == len(self.block):
            self._check_block()
        return True

    def _check_block(self) -> None:
        queued, self.queued = self.queued, []
        if not queued:
            return
        cells = self.block[:len(queued)].view("<u2") - self.base
        failed = np.flatnonzero(cells.max(axis=1) > 9).tolist()
        start = 0
        for i in failed + [len(queued)]:
            if start < i:
                self.rows.append(cells[start:i].astype(np.uint8))
                self.sample_ids.extend(sid.strip()
                                       for _, sid, _ in queued[start:i])
            if i < len(queued):
                lineno, _, raw = queued[i]
                self._text(lineno, raw)
            start = i + 1

    def _text(self, lineno: int, raw: bytes) -> None:
        """Read one line that was not queued, or failed its block, as text."""
        line = _decode(self.path, lineno, raw)
        if line.strip() == "":
            return
        cells = line.split(self.delim)
        if len(cells) != self.p + 1:
            raise ParseError(
                f"{self.path}: ragged row at line {lineno}: expected "
                f"{self.p + 1} cells, got {len(cells)}")
        try:
            self.rows.append(np.array(cells[1:], dtype=float)[None])
        except ValueError:
            for j, cell in enumerate(cells[1:], start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{self.path}: non-numeric cell {cell.strip()!r} at "
                        f"line {lineno}, column {self.header[j]!r}") from None
            raise
        self.sample_ids.append(cells[0].strip())

    def matrix(self) -> PredictorMatrix:
        self._check_block()
        if not self.rows:
            raise ValidationError(f"{self.path}: zero samples (header only)")
        return PredictorMatrix(np.concatenate(self.rows), self.header[1:],
                               self.sample_ids)


def load_predictors(path, format: str = "tsv") -> PredictorMatrix:
    """Load a predictor file: header row of feature ids, first column sample id.

    The file is read in binary, a line at a time. Lines end where
    `_file_lines` ends them, and no other character ends one. The header is
    the first line that holds more than whitespace, and each later such
    line is one row. A row whose cells are all single ASCII digits (a
    dosage row) is decoded from its bytes as uint8, a block of rows at
    once. Any other row is decoded as UTF-8 and converted by numpy's
    string-to-float cast, which accepts and rejects the same cells
    (surrounding whitespace included) as `float()`. The matrix is uint8
    when every row is a dosage row, else float64. Single digits are exact,
    so both give the values `float()` gives. Line numbers in errors count
    every line of the file from 1, blank lines included, and a line that is
    not UTF-8 is refused with its number.
    """
    if format not in ("tsv", "csv"):
        raise ValidationError(f"unknown format {format!r}")
    delim = "\t" if format == "tsv" else ","
    with open(path, "rb") as fh:
        lines = _file_lines(fh)
        for lineno, raw in lines:
            line = _decode(path, lineno, raw)
            if line.strip() != "":
                break
        else:
            raise ParseError(f"{path}: empty file")
        header = _split_line(line, delim)
        if len(header) < 2:
            raise ParseError(
                f"{path}: header needs a sample-id column plus features")
        rows = _PredictorRows(path, delim, header)
        for lineno, raw in lines:
            rows.add(lineno, raw)
    return rows.matrix()


def load_phenotype(path) -> tuple[list[str], np.ndarray]:
    """Load a two-column (sample id, label) tab-separated file, no header.
    A label that `float()` rejects or gives as nan or +-inf is refused with
    its line number, and so is a line that is not UTF-8."""
    sample_ids, labels = [], []
    with open(path, "rb") as fh:
        for lineno, raw in _file_lines(fh):
            line = _decode(path, lineno, raw)
            if line.strip() == "":
                continue
            cells = _split_line(line, "\t")
            if len(cells) != 2:
                raise ParseError(
                    f"{path}: expected 2 columns at line {lineno}, "
                    f"got {len(cells)}")
            sample_ids.append(cells[0])
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
    if not sample_ids:
        raise ValidationError(f"{path}: zero samples")
    labels_arr = np.array(labels)
    # whole labels within int64 become ints; the range test keeps the cast
    # from overflowing
    if np.all((labels_arr == np.floor(labels_arr))
              & (np.abs(labels_arr) < 2.0 ** 63)):
        labels_arr = labels_arr.astype(int)
    return sample_ids, labels_arr


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


def center(m: PredictorMatrix) -> PredictorMatrix:
    """`m` centered: its column means are computed once and stored for later
    use on held-out data, and its raw cells are shared, not copied. The
    means of uint8 dosages are exact sums divided by n, so they equal the
    means of the same cells held as float64, and those of any column
    subset."""
    if m.centered:
        raise ValidationError("matrix is already centered")
    return PredictorMatrix(
        raw=m.raw,
        feature_ids=list(m.feature_ids),
        sample_ids=list(m.sample_ids),
        column_means=m.raw.mean(axis=0),
    )


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
        for j, _ in self.support:
            if not (0 <= j < self.n_features):
                raise ValidationError(f"support index {j} out of range")


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
