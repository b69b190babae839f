"""Classification on the projected data, case/control metrics, the
chi-square P-value-ranking baseline and k-fold cross-validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import Phenotype, PredictorMatrix, center
from .errors import NumericError, ParseError, ValidationError
from .screening import ScreeningPlan, SelectionReport, run_plan


@dataclass
class ProjectionClassifier:
    """Nearest-centroid classifier in the reduced space spanned by B_kept."""

    B_kept: np.ndarray             # p_kept x d
    feature_ids: list[str]
    column_means: np.ndarray       # training means for the kept columns
    class_labels: list             # [negative, positive] for binary
    class_centroids: np.ndarray    # n_classes x d
    class_priors: np.ndarray
    degenerate: bool = False       # all projections identical at fit time


def fit_classifier(x_train: PredictorMatrix, y: Phenotype,
                   B_kept: np.ndarray) -> ProjectionClassifier:
    """Project training rows onto B_kept and store per-class centroids."""
    if not x_train.centered:
        raise ValidationError("training predictors must be centered")
    if B_kept.shape[0] != x_train.n_features:
        raise ValidationError("B_kept rows must match kept feature count")
    if B_kept.shape[0] < 1 or B_kept.shape[1] < 1:
        raise ValidationError("need at least one kept feature and direction")
    labels = np.asarray(y.labels)
    classes = list(y.level_codes)
    if len(classes) < 2:
        raise ValidationError("need at least two classes")
    proj = x_train.values @ B_kept
    centroids, priors = [], []
    for c in classes:
        mask = labels == c
        if not np.any(mask):
            raise ValidationError(f"class {c!r} absent from training data")
        centroids.append(proj[mask].mean(axis=0))
        priors.append(mask.mean())
    centroids = np.array(centroids)
    degenerate = bool(np.allclose(proj, proj[0], atol=1e-12))
    return ProjectionClassifier(
        B_kept=B_kept,
        feature_ids=list(x_train.feature_ids),
        column_means=np.asarray(x_train.column_means),
        class_labels=classes,
        class_centroids=centroids,
        class_priors=np.array(priors),
        degenerate=degenerate,
    )


def fit_model(x_centered: PredictorMatrix, y: Phenotype, plan: ScreeningPlan,
              h: int | None = None
              ) -> tuple[SelectionReport, ProjectionClassifier]:
    """Screen with `plan` (see `run_plan`), then fit the classifier on the
    selected features, or on every survivor when none is selected."""
    report = run_plan(x_centered, y, plan, h=h)
    keep = np.isin(report.survivors, report.selected_indices)
    if not keep.any():
        keep[:] = True
    return report, fit_classifier(x_centered.restrict(report.survivors[keep]),
                                  y, report.final_directions.B[keep])


def model_to_json(clf: ProjectionClassifier) -> dict:
    """The classifier as a JSON-ready dict; `load_model` reads it back."""
    return {
        "feature_ids": clf.feature_ids,
        "column_means": clf.column_means.tolist(),
        "B_kept": clf.B_kept.tolist(),
        "class_labels": [float(c) for c in clf.class_labels],
        "class_centroids": clf.class_centroids.tolist(),
        "class_priors": clf.class_priors.tolist(),
        "degenerate": clf.degenerate,
    }


def load_model(path) -> ProjectionClassifier:
    """Read a classifier written as `model_to_json`'s dict. A file that is
    not JSON, has other keys or values of another type, or whose arrays do
    not fit `feature_ids` and `class_labels` is refused with a ParseError
    naming it."""
    try:
        m = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:   # undecodable bytes or invalid JSON
        raise ParseError(f"{path}: not a JSON model: {exc}") from None
    keys = sorted(f.name for f in fields(ProjectionClassifier))
    if not isinstance(m, dict) or sorted(m) != keys:
        raise ParseError(f"{path}: a model holds exactly the keys {keys}")
    try:
        for name in ("B_kept", "column_means", "class_centroids",
                     "class_priors"):
            m[name] = np.array(m[name], dtype=float)
        m["class_labels"] = [float(c) for c in m["class_labels"]]
        p, k = len(m["feature_ids"]), len(m["class_labels"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model: {exc}") from None
    B = m["B_kept"]
    if B.ndim != 2 or B.shape[0] != p or min(B.shape) < 1:
        raise ParseError(f"{path}: B_kept must be a matrix with one row per "
                         f"feature id")
    d = B.shape[1]
    ids = m["feature_ids"]
    for ok, what in ((isinstance(ids, list)
                      and all(isinstance(f, str) for f in ids),
                      "feature_ids must be a list of strings"),
                     (m["column_means"].shape == (p,),
                      "column_means must have one entry per feature id"),
                     (k >= 2, "class_labels must name at least two classes"),
                     (m["class_centroids"].shape == (k, d),
                      f"class_centroids must be {k} x {d}"),
                     (m["class_priors"].shape == (k,),
                      f"class_priors must have {k} entries"),
                     (isinstance(m["degenerate"], bool),
                      "degenerate must be true or false")):
        if not ok:
            raise ParseError(f"{path}: {what}")
    return ProjectionClassifier(**m)


def predict(clf: ProjectionClassifier, x_test_raw: PredictorMatrix):
    """Nearest-centroid labels on test rows centered with the *training*
    column means.

    The score is the signed projection onto the axis from the first class
    centroid c0 to the last c1 (control to case for binary phenotypes),
    measured from their midpoint: (proj - (c0 + c1)/2) . (c1 - c0)/|c1 - c0|,
    0 when the two centroids coincide. Its sign agrees with the binary
    nearest-centroid label, and it keeps distinct projections apart where a
    difference of distances saturates at +-|c1 - c0|."""
    pos = {f: j for j, f in enumerate(x_test_raw.feature_ids)}
    missing = [f for f in clf.feature_ids if f not in pos]
    if missing:
        raise ValidationError(f"test data is missing features: {missing[:10]}")
    cols = [pos[f] for f in clf.feature_ids]
    xt = np.subtract(x_test_raw.values[:, cols], clf.column_means,
                     dtype=float)
    proj = xt @ clf.B_kept
    dists = np.linalg.norm(
        proj[:, None, :] - clf.class_centroids[None, :, :], axis=2)
    if clf.degenerate:
        # equal centroids: fall back to the larger training prior
        winner = int(np.argmax(clf.class_priors))
        labels = np.array([clf.class_labels[winner]] * len(proj))
    else:
        labels = np.array([clf.class_labels[i] for i in np.argmin(dists, axis=1)])
    c0, c1 = clf.class_centroids[0], clf.class_centroids[-1]
    axis_len = np.linalg.norm(c1 - c0)
    if axis_len == 0:
        return labels, np.zeros(len(proj))
    scores = (proj - (c0 + c1) / 2) @ ((c1 - c0) / axis_len)
    return labels, scores


@dataclass
class MetricBundle:
    sensitivity: float
    specificity: float
    accuracy: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        n_case = self.tp + self.fn
        n_control = self.tn + self.fp
        n = n_case + n_control
        assert abs(self.accuracy * n - (self.tp + self.tn)) < 1e-9
        expect = (self.sensitivity * n_case + self.specificity * n_control) / n
        assert abs(self.accuracy - expect) < 1e-12


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of finite `values`, each run of equal values given the
    mean of the ranks it spans (scipy.stats.rankdata's default). The ranks
    are exact half-integers."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def auc_mann_whitney(labels_true, scores, positive) -> float:
    """AUC as the normalized Mann-Whitney statistic; ties count one half."""
    labels_true = np.asarray(labels_true)
    scores = np.asarray(scores, dtype=float)
    case = labels_true == positive
    n1 = int(case.sum())
    n0 = len(labels_true) - n1
    if n1 == 0 or n0 == 0:
        raise NumericError("AUC undefined: single-class truth")
    ranks = _average_ranks(scores)
    return float((ranks[case].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


def metrics(labels_true, labels_pred, scores,
            positive=None) -> MetricBundle:
    """Confusion counts, the three rates and the Mann-Whitney AUC for a
    binary problem. The positive ('case') label defaults to the larger one."""
    labels_true = np.asarray(labels_true)
    labels_pred = np.asarray(labels_pred)
    if len(labels_true) != len(labels_pred):
        raise ValidationError("prediction/truth length mismatch")
    classes = sorted(set(labels_true.tolist()) | set(labels_pred.tolist()))
    if len(set(labels_true.tolist())) < 2:
        raise NumericError("degenerate fold: single-class truth")
    if len(classes) != 2:
        raise ValidationError("metrics require binary labels")
    if positive is None:
        positive = classes[1]
    case = labels_true == positive
    pred_case = labels_pred == positive
    tp = int(np.sum(case & pred_case))
    fn = int(np.sum(case & ~pred_case))
    tn = int(np.sum(~case & ~pred_case))
    fp = int(np.sum(~case & pred_case))
    n = len(labels_true)
    return MetricBundle(
        sensitivity=tp / (tp + fn),
        specificity=tn / (tn + fp),
        accuracy=(tp + tn) / n,
        auc=auc_mann_whitney(labels_true, scores, positive),
        tp=tp, fp=fp, tn=tn, fn=fn,
    )


_VELTKAMP = 2.0 ** 27 + 1  # splits a double into two 26-bit halves
_TWO_OVER_SQRT_PI = 2 / math.sqrt(math.pi)


def _chi2_sf(stat: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Upper chi-square tail P(X >= stat) at df 1 or 2, in closed form.

    df 2: exp(-stat/2). df 1: erfc(z) at z = sqrt(stat/2), corrected to first
    order for the rounding of that square root: with s = stat/2 and
    d = s - z*z (Dekker's exact product over a Veltkamp split of z), the true
    root is z + d/(2z), so erfc drops by (2/sqrt(pi)) exp(-s) d/(2z). At
    z = 0 the correction is 0 and p = 1."""
    p = np.exp(-stat / 2)
    one = np.flatnonzero(df == 1)
    s = stat[one] / 2
    z = np.sqrt(s)
    c = _VELTKAMP * z
    hi = c - (c - z)
    lo = z - hi
    d = ((s - hi * hi) - 2 * hi * lo) - lo * lo
    slope = np.divide(d, 2 * z, out=np.zeros_like(d), where=z > 0)
    p[one] = (np.array([math.erfc(v) for v in z.tolist()])
              - _TWO_OVER_SQRT_PI * p[one] * slope)
    return p


def _check_dosages(x: PredictorMatrix) -> None:
    """Refuse a matrix with any cell outside {0, 1, 2}, naming the first. A
    uint8 matrix is decided by its maximum; its cells are searched only to
    name a bad one."""
    values = x.values
    if values.dtype == np.uint8:
        if values.max(initial=0) <= 2:
            return
        bad = values > 2
    else:
        bad = ~np.isin(values, (0.0, 1.0, 2.0))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValidationError(
            f"chi-square ranking requires dosages in {{0, 1, 2}}, got "
            f"{values[i, j]:g} at sample {x.sample_ids[i]!r}, feature "
            f"{x.feature_ids[j]!r}")


def _genotype_counts(X: np.ndarray, group: np.ndarray,
                     n_groups: int) -> np.ndarray:
    """counts[r, g, j]: how many rows of group r (an integer per row of X)
    hold dosage g in column j, as float64 holding exact integers."""
    counts = np.empty((n_groups, 3, X.shape[1]))
    for g in (1, 2):
        eq = X == g
        for r in range(n_groups):
            counts[r, g] = np.count_nonzero(eq[group == r], axis=0)
    sizes = np.bincount(group, minlength=n_groups)
    counts[:, 0] = sizes[:, None] - counts[:, 1] - counts[:, 2]
    return counts


def _chi2_ranking(table: np.ndarray):
    """`chi2_rank` on table[r, g, j], the samples of row r (0 control,
    1 case) with dosage g in feature j. Returns (order, stat, p, flagged):
    the features sorted by p ascending (ties by index), and the three arrays
    in feature order."""
    n_features = table.shape[2]
    genotype_totals = table.sum(axis=0)
    nonempty = genotype_totals > 0
    df = np.count_nonzero(nonempty, axis=0) - 1
    row_totals = table.sum(axis=1)
    expected = (row_totals[:, None, :] * genotype_totals[None, :, :]
                / row_totals.sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(nonempty, (table - expected) ** 2 / expected, 0.0)
    stat = np.zeros(n_features)
    for r in range(2):
        for g in range(3):
            stat += terms[r, g]
    flagged = df == 0  # its one non-empty column gives terms of exactly 0
    p = np.ones(n_features)
    p[~flagged] = _chi2_sf(stat[~flagged], df[~flagged])
    order = np.lexsort((np.arange(n_features), p))
    return order, stat, p, flagged


def chi2_rank(x_raw: PredictorMatrix, y: Phenotype):
    """Per-feature Pearson chi-square on the 2 x 3 case/control-by-genotype
    table, empty genotype columns dropped; df = non-empty columns - 1.

    All p tables are counted in one pass over X and the statistics computed
    as arrays. The statistic sums its terms in the order (control g=0..2,
    case g=0..2), with the terms of empty genotype columns exactly 0.0, so it
    equals a per-feature sum over the compacted table bit for bit.

    The p-values are closed forms: exp(-stat/2) at df 2, and at df 1
    erfc(sqrt(stat/2)) corrected for the rounding of the square root (see
    `_chi2_sf`). Against a 50-digit reference on 120 000 statistics in
    [0, 1500], their relative error is at most 5.2e-16 at df 1 and 2.2e-16
    at df 2 where p is a normal double (scipy's `chdtrc`: 1.1e-13 and
    5.7e-14), and one unit in the last place where p is subnormal or 0.

    Returns a list of (feature index, statistic, p_value, flagged) sorted by
    p ascending, ties by feature index. Features whose exact statistics tie
    fall back to index order only when their float statistics (and so their
    p) agree; a summation that rounds one of them an ulp apart orders them
    by that ulp.
    """
    _check_dosages(x_raw)
    if y.kind != "binary":
        raise ValidationError("chi2_rank requires a binary phenotype")
    case = np.asarray(y.labels) == y.level_codes[1]
    order, stat, p, flagged = _chi2_ranking(
        _genotype_counts(x_raw.values, case.astype(int), 2))
    return list(zip(order.tolist(), stat[order].tolist(), p[order].tolist(),
                    flagged[order].tolist()))


def knn_predict(x_train: np.ndarray, labels, x_test: np.ndarray, k: int):
    """Euclidean k-nearest-neighbor majority vote (ties go to the smallest
    label); also returns the case vote fraction as a ranking score (binary
    labels)."""
    labels = np.asarray(labels)
    n_train = x_train.shape[0]
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > n_train:
        raise ValidationError(f"k={k} exceeds {n_train} training samples")
    return _knn_vote(_neighbour_order(_sq_dists(x_test, x_train), k),
                     labels, k)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b, in
    float64 whatever their dtype (uint8 products would wrap around), with
    one float copy when b is a."""
    fa = np.asarray(a, dtype=float)
    fb = fa if b is a else np.asarray(b, dtype=float)
    d2 = np.sum(fa ** 2, axis=1)[:, None] + np.sum(fb ** 2, axis=1)[None, :]
    d2 -= 2 * fa @ fb.T
    return d2


def _neighbour_order(d2: np.ndarray, k: int) -> np.ndarray:
    """The k nearest columns of each row of d2 (no NaN), nearest first, ties
    in column order: the first k columns of the row's stable argsort.

    Only the cells at or below each row's k-th smallest value can be among
    them. Their flat indices, in row-major order, are sorted by (row, value)
    in one `np.lexsort`, which is stable, so tied values keep column order;
    each row's first k are then read at its offset."""
    n = d2.shape[1]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    near = d2 <= kth[:, None]
    flat = np.flatnonzero(near)
    flat = flat[np.lexsort((d2.ravel()[flat], flat // n))]
    counts = np.count_nonzero(near, axis=1)
    return flat[(np.cumsum(counts) - counts)[:, None] + np.arange(k)] % n


def _knn_vote(order: np.ndarray, labels: np.ndarray, k: int):
    """`knn_predict`'s vote over the first k columns of each row of `order`
    (from `_neighbour_order` at this k or a larger one)."""
    ordered = np.sort(labels)   # np.unique would import numpy.ma
    classes = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    if len(classes) == 2 and k % 2 == 0:
        raise ValidationError("k must be odd for binary labels")
    votes = np.searchsorted(classes, labels)[order[:, :k]]
    m, n_classes = order.shape[0], len(classes)
    counts = np.bincount(
        (votes + n_classes * np.arange(m)[:, None]).ravel(),
        minlength=m * n_classes).reshape(m, n_classes)
    return classes[np.argmax(counts, axis=1)], counts[:, -1] / k


@dataclass
class FoldResult:
    fold: int
    train: MetricBundle
    test: MetricBundle
    n_selected: int
    selected_ids: list[str] = field(default_factory=list)


@dataclass
class CvReport:
    folds: list[FoldResult]
    method: str

    def _mean(self, attr: str, side: str) -> float:
        return float(np.mean([getattr(getattr(f, side), attr)
                              for f in self.folds]))

    def averages(self) -> dict:
        out = {}
        for side in ("train", "test"):
            for attr in ("sensitivity", "specificity", "accuracy", "auc"):
                out[f"{side}_{attr}"] = self._mean(attr, side)
        out["n_selected"] = float(np.mean([f.n_selected for f in self.folds]))
        return out


def stratified_folds(labels, n_folds: int, seed: int):
    """Round-robin assignment of a per-class shuffle; every fold gets both
    classes whenever each class has at least n_folds samples."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    assign = np.empty(len(labels), dtype=int)
    for c in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == c)
        if len(idx) < n_folds:
            raise ValidationError(
                f"class {c!r} has {len(idx)} samples, fewer than "
                f"{n_folds} folds")
        rng.shuffle(idx)
        assign[idx] = np.arange(len(idx)) % n_folds
    return assign


def cross_validate(x: PredictorMatrix, y: Phenotype, folds: int,
                   method: str, seed: int = 0,
                   plan: ScreeningPlan | None = None,
                   top_m: int | None = None, knn_k: int | None = None
                   ) -> CvReport:
    """Stratified k-fold CV; selection and model fitting see training rows
    only, test rows are centered with training means at prediction time.

    method 'sparse_sdr' builds each fold's model with `fit_model` (the plan's
    screen, then nearest centroid on the projections); 'pvalue_rank' ranks features by chi-square
    P-value and classifies with k-NN (when top_m / knn_k are not given, a
    small grid search on leave-one-out k-NN accuracy over the training rows;
    the reported train metrics stay resubstitution).
    """
    if x.centered:
        raise ValidationError("pass raw (uncentered) predictors to CV; "
                              "centering happens inside each fold")
    if method not in ("sparse_sdr", "pvalue_rank"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "sparse_sdr" and plan is None:
        raise ValidationError("sparse_sdr needs a screening plan")
    if y.kind != "binary":
        levels = (f" with {y.n_levels} levels" if y.kind == "categorical"
                  else "")
        raise ValidationError(
            f"cross-validation needs a binary response, got a {y.kind} "
            f"one{levels}")
    if folds < 2:
        raise ValidationError(f"cross-validation needs folds >= 2, got {folds}")
    for name, value in (("top_m", top_m), ("knn_k", knn_k)):
        if value is not None and value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    if method == "pvalue_rank":
        _check_dosages(x)
    assign = stratified_folds(y.labels, folds, seed)
    positive = y.level_codes[1]
    if method == "pvalue_rank":
        # counts[f, r]: fold f's rows of class r, counted once. A fold's
        # training table is all rows' counts less its own: exact integers,
        # so it equals the table of its training rows bit for bit.
        case = np.asarray(y.labels) == positive
        counts = _genotype_counts(x.values, 2 * assign + case, 2 * folds)
        counts = counts.reshape(folds, 2, 3, x.n_features)
        all_rows = counts.sum(axis=0)

    results = []
    for fold in range(folds):
        test_rows = np.flatnonzero(assign == fold)
        train_rows = np.flatnonzero(assign != fold)
        y_train = y.take(train_rows)
        y_test = y.take(test_rows)
        if len(set(y_test.labels.tolist())) < 2:
            raise NumericError(f"degenerate fold {fold}: single-class test set")

        if method == "sparse_sdr":
            x_train_raw = x.take_rows(train_rows)
            _, clf = fit_model(center(x_train_raw), y_train, plan)
            tr_labels, tr_scores = predict(clf, x_train_raw)
            te_labels, te_scores = predict(clf, x.take_rows(test_rows))
            selected_ids = clf.feature_ids
        else:
            ranked, _, _, _ = _chi2_ranking(all_rows - counts[fold])
            m_grid = [top_m] if top_m is not None else [10, 25, 50]
            k_grid = [k for k in ([knn_k] if knn_k is not None else [1, 3, 5])
                      if k < len(train_rows)]
            if not k_grid:
                raise ValidationError("no valid (top_m, k) combination")
            best = None
            for m in m_grid:
                tr = x.values[np.ix_(train_rows, ranked[:m])]
                d2 = _sq_dists(tr, tr)
                np.fill_diagonal(d2, np.inf)  # a row never votes on itself
                order = _neighbour_order(d2, max(k_grid))  # serves every k
                for k in k_grid:
                    pred_tr, _ = _knn_vote(order, y_train.labels, k)
                    acc = float(np.mean(pred_tr == y_train.labels))
                    if best is None or acc > best[0]:
                        best = (acc, m, k)
            _, m, k = best
            cols = ranked[:m]
            tr = x.values[np.ix_(train_rows, cols)]
            te = x.values[np.ix_(test_rows, cols)]
            tr_labels, tr_scores = knn_predict(tr, y_train.labels, tr, k)
            te_labels, te_scores = knn_predict(tr, y_train.labels, te, k)
            selected_ids = [x.feature_ids[j] for j in cols]

        results.append(FoldResult(
            fold=fold,
            train=metrics(y_train.labels, tr_labels, tr_scores, positive),
            test=metrics(y_test.labels, te_labels, te_scores, positive),
            n_selected=len(selected_ids),
            selected_ids=selected_ids,
        ))
    return CvReport(folds=results, method=method)


def cv_report_to_tsv(report: CvReport) -> str:
    """TSV report: one row per fold plus an averages row."""
    cols = ["fold",
            "train_sens", "train_spec", "train_acc",
            "test_sens", "test_spec", "test_acc", "n_selected"]
    lines = ["\t".join(cols)]
    for f in report.folds:
        lines.append("\t".join([
            f"CV-{f.fold + 1}",
            f"{f.train.sensitivity:.6f}", f"{f.train.specificity:.6f}",
            f"{f.train.accuracy:.6f}",
            f"{f.test.sensitivity:.6f}", f"{f.test.specificity:.6f}",
            f"{f.test.accuracy:.6f}", str(f.n_selected)]))
    avg = report.averages()
    lines.append("\t".join([
        "Average",
        f"{avg['train_sensitivity']:.6f}", f"{avg['train_specificity']:.6f}",
        f"{avg['train_accuracy']:.6f}",
        f"{avg['test_sensitivity']:.6f}", f"{avg['test_specificity']:.6f}",
        f"{avg['test_accuracy']:.6f}", f"{avg['n_selected']:.1f}"]))
    return "\n".join(lines) + "\n"


def cv_report_to_json(report: CvReport) -> dict:
    avg = report.averages()
    return {
        "method": report.method,
        "folds": [
            {
                "fold": f.fold,
                "train": vars(f.train),
                "test": vars(f.test),
                "n_selected": f.n_selected,
                "selected_ids": f.selected_ids,
            }
            for f in report.folds
        ],
        "averages": avg,
    }
