"""Predictor/phenotype containers, file ingestion, centering and synthetic cohorts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError


@dataclass
class PredictorMatrix:
    """Dense n_samples x n_features predictor matrix with feature identity.

    Instances are treated as immutable after construction; downstream code
    (partition workers, CV folds) shares them freely.
    """

    values: np.ndarray
    feature_ids: list[str]
    sample_ids: list[str]
    centered: bool = False
    column_means: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("predictor matrix must be 2-dimensional")
        n, p = self.values.shape
        if len(self.feature_ids) != p:
            raise ValidationError(
                f"{len(self.feature_ids)} feature ids for {p} columns")
        if len(self.sample_ids) != n:
            raise ValidationError(
                f"{len(self.sample_ids)} sample ids for {n} rows")
        if len(set(self.feature_ids)) != p:
            seen, dup = set(), None
            for f in self.feature_ids:
                if f in seen:
                    dup = f
                    break
                seen.add(f)
            raise ValidationError(f"duplicate feature id: {dup!r}")
        if not np.all(np.isfinite(self.values)):
            i, j = np.argwhere(~np.isfinite(self.values))[0]
            raise ValidationError(
                f"non-finite value at sample {self.sample_ids[i]!r}, "
                f"feature {self.feature_ids[j]!r}")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def restrict(self, columns) -> "PredictorMatrix":
        """Column-restricted copy (keeps centering state and stored means)."""
        columns = np.asarray(columns, dtype=int)
        return PredictorMatrix(
            values=self.values[:, columns],
            feature_ids=[self.feature_ids[j] for j in columns],
            sample_ids=list(self.sample_ids),
            centered=self.centered,
            column_means=None if self.column_means is None
            else self.column_means[columns],
        )

    def take_rows(self, rows) -> "PredictorMatrix":
        """Row-restricted copy. Centering state is dropped: a row subset of a
        centered matrix is in general no longer centered."""
        rows = np.asarray(rows, dtype=int)
        return PredictorMatrix(
            values=self.values[rows],
            feature_ids=list(self.feature_ids),
            sample_ids=[self.sample_ids[i] for i in rows],
            centered=False,
            column_means=None,
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


def make_phenotype(labels, kind: str | None = None) -> Phenotype:
    """Build a Phenotype, inferring the kind when not given (2 distinct
    values -> binary, few distinct integers -> categorical, else continuous)."""
    labels = np.asarray(labels)
    if kind is None:
        distinct = set(labels.tolist())
        if len(distinct) == 2:
            kind = "binary"
        elif labels.dtype.kind in "iub" or all(
                float(v).is_integer() for v in distinct):
            kind = "categorical"
        else:
            kind = "continuous"
    return Phenotype(labels, kind)


def _split_line(line: str, delim: str) -> list[str]:
    return [c.strip() for c in line.rstrip("\n").split(delim)]


def load_predictors(path, format: str = "tsv") -> PredictorMatrix:
    """Load a predictor file: header row of feature ids, first column sample id.

    Each row is converted by numpy's string-to-float cast, which accepts and
    rejects the same cells (surrounding whitespace included) as `float()`.
    """
    if format not in ("tsv", "csv"):
        raise ValidationError(f"unknown format {format!r}")
    delim = "\t" if format == "tsv" else ","
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip() != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = _split_line(lines[0], delim)
    if len(header) < 2:
        raise ParseError(f"{path}: header needs a sample-id column plus features")
    feature_ids = header[1:]
    p = len(feature_ids)
    if len(lines) == 1:
        raise ValidationError(f"{path}: zero samples (header only)")
    values = np.empty((len(lines) - 1, p))
    sample_ids: list[str] = []
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        cells = line.split(delim)
        if len(cells) != p + 1:
            raise ParseError(
                f"{path}: ragged row at line {lineno}: expected {p + 1} "
                f"cells, got {len(cells)}")
        sample_ids.append(cells[0].strip())
        try:
            values[i] = np.array(cells[1:], dtype=float)
        except ValueError:
            for j, cell in enumerate(cells[1:], start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell {cell.strip()!r} at line "
                        f"{lineno}, column {header[j]!r}") from None
            raise
    return PredictorMatrix(
        values=values,
        feature_ids=feature_ids,
        sample_ids=sample_ids,
        centered=False,
    )


def load_phenotype(path) -> tuple[list[str], np.ndarray]:
    """Load a two-column (sample id, label) tab-separated file, no header."""
    sample_ids, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            cells = _split_line(line, "\t")
            if len(cells) != 2:
                raise ParseError(
                    f"{path}: expected 2 columns at line {lineno}, "
                    f"got {len(cells)}")
            sample_ids.append(cells[0])
            try:
                labels.append(float(cells[1]))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric label {cells[1]!r} at line "
                    f"{lineno}") from None
    if not sample_ids:
        raise ValidationError(f"{path}: zero samples")
    labels_arr = np.array(labels)
    if np.all(labels_arr == labels_arr.astype(int)):
        labels_arr = labels_arr.astype(int)
    return sample_ids, labels_arr


def align_phenotype(x: PredictorMatrix, sample_ids: list[str],
                    labels: np.ndarray) -> np.ndarray:
    """Reorder phenotype labels to the predictor sample order, by id."""
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
    """Subtract column means; stores them for later use on held-out data."""
    if m.centered:
        raise ValidationError("matrix is already centered")
    means = m.values.mean(axis=0)
    return PredictorMatrix(
        values=m.values - means,
        feature_ids=list(m.feature_ids),
        sample_ids=list(m.sample_ids),
        centered=True,
        column_means=means,
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
        lo, hi = self.maf_range
        if not (0 < lo <= hi <= 0.5):
            raise ValidationError("maf_range must be ordered within (0, 0.5]")
        if self.link not in ("logistic", "threshold"):
            raise ValidationError(f"unknown link {self.link!r}")
        for j, _ in self.support:
            if not (0 <= j < self.n_features):
                raise ValidationError(f"support index {j} out of range")


def simulate(spec: SyntheticSpec):
    """Draw a genotype-like cohort: dosage ~ Binomial(2, q_j) per feature,
    labels from the requested link on the centered causal score.

    Returns (PredictorMatrix, Phenotype, support index set).
    """
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n_samples, spec.n_features
    lo, hi = spec.maf_range
    maf = rng.uniform(lo, hi, size=p)
    values = rng.binomial(2, maf, size=(n, p)).astype(float)

    score = np.zeros(n)
    for j, eff in spec.support:
        score += eff * (values[:, j] - 2 * maf[j])
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
        values=values,
        feature_ids=[f"f{j}" for j in range(p)],
        sample_ids=[f"s{i}" for i in range(n)],
        centered=False,
    )
    y = Phenotype(labels, "binary", [0, 1])
    return x, y, {j for j, _ in spec.support}
