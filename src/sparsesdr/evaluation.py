"""Classification on the projected data, case/control metrics, the
chi-square P-value-ranking baseline and k-fold cross-validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import chi2 as chi2_dist
from scipy.stats import rankdata

from .dataset import Phenotype, PredictorMatrix, center
from .errors import NumericError, ValidationError
from .screening import ScreeningPlan, run_plan


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


def save_model(clf: ProjectionClassifier, path) -> None:
    """Write the classifier as JSON; `load_model` reads it back."""
    model = {
        "feature_ids": clf.feature_ids,
        "column_means": clf.column_means.tolist(),
        "B_kept": clf.B_kept.tolist(),
        "class_labels": [float(c) for c in clf.class_labels],
        "class_centroids": clf.class_centroids.tolist(),
        "class_priors": clf.class_priors.tolist(),
        "degenerate": clf.degenerate,
    }
    Path(path).write_text(json.dumps(model, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_model(path) -> ProjectionClassifier:
    """Read a classifier written by `save_model`."""
    m = json.loads(Path(path).read_text(encoding="utf-8"))
    return ProjectionClassifier(
        B_kept=np.array(m["B_kept"]),
        feature_ids=m["feature_ids"],
        column_means=np.array(m["column_means"]),
        class_labels=m["class_labels"],
        class_centroids=np.array(m["class_centroids"]),
        class_priors=np.array(m["class_priors"]),
        degenerate=m["degenerate"],
    )


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
    xt = x_test_raw.values[:, cols] - clf.column_means
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


def auc_mann_whitney(labels_true, scores, positive) -> float:
    """AUC as the normalized Mann-Whitney statistic; ties count one half."""
    labels_true = np.asarray(labels_true)
    scores = np.asarray(scores, dtype=float)
    case = labels_true == positive
    n1 = int(case.sum())
    n0 = len(labels_true) - n1
    if n1 == 0 or n0 == 0:
        raise NumericError("AUC undefined: single-class truth")
    ranks = rankdata(scores)
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


def chi2_rank(x_raw: PredictorMatrix, y: Phenotype):
    """Per-feature Pearson chi-square on the 2 x 3 case/control-by-genotype
    table, empty genotype columns dropped; df = non-empty columns - 1.

    All p tables are counted in one pass over X and the statistics computed
    as arrays. The statistic sums its terms in the order (control g=0..2,
    case g=0..2), with the terms of empty genotype columns exactly 0.0, so it
    equals a per-feature sum over the compacted table bit for bit.

    Returns a list of (feature index, statistic, p_value, flagged) sorted by
    p ascending (ties by feature index).
    """
    X = x_raw.values
    if not np.all(np.isin(X, (0.0, 1.0, 2.0))):
        raise ValidationError("chi2_rank requires dosages in {0, 1, 2}")
    if y.kind != "binary":
        raise ValidationError("chi2_rank requires a binary phenotype")
    case = np.asarray(y.labels) == y.level_codes[1]
    # table[r, g, j]: samples of row r (0 control, 1 case) with dosage g
    table = np.empty((2, 3, X.shape[1]))
    for g in range(3):
        eq = X == g
        table[1, g] = np.count_nonzero(eq[case], axis=0)
        table[0, g] = np.count_nonzero(eq, axis=0) - table[1, g]
    genotype_totals = table.sum(axis=0)
    nonempty = genotype_totals > 0
    df = np.count_nonzero(nonempty, axis=0) - 1
    row_totals = table.sum(axis=1)
    expected = (row_totals[:, None, :] * genotype_totals[None, :, :]
                / row_totals.sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(nonempty, (table - expected) ** 2 / expected, 0.0)
    stat = np.zeros(X.shape[1])
    for r in range(2):
        for g in range(3):
            stat += terms[r, g]
    flagged = df == 0  # its one non-empty column gives terms of exactly 0
    p = np.ones(X.shape[1])
    p[~flagged] = chi2_dist.sf(stat[~flagged], df[~flagged])
    order = np.lexsort((np.arange(X.shape[1]), p))
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
    return _knn_vote(_sq_dists(x_test, x_train), labels, k)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b."""
    return (np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
            - 2 * a @ b.T)


def _knn_vote(d2: np.ndarray, labels: np.ndarray, k: int):
    """`knn_predict`'s vote, taken over the columns of d2."""
    classes = np.unique(labels)
    if len(classes) == 2 and k % 2 == 0:
        raise ValidationError("k must be odd for binary labels")
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = np.searchsorted(classes, labels)[nearest]
    m, n_classes = d2.shape[0], len(classes)
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
                   top_m: int | None = None, knn_k: int | None = None,
                   n_workers: int = 1) -> CvReport:
    """Stratified k-fold CV; selection and model fitting see training rows
    only, test rows are centered with training means at prediction time.

    method 'sparse_sdr' screens with the plan and classifies by nearest
    centroid on the projections; 'pvalue_rank' ranks features by chi-square
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
    assign = stratified_folds(y.labels, folds, seed)
    positive = y.level_codes[1]

    results = []
    for fold in range(folds):
        test_rows = np.flatnonzero(assign == fold)
        train_rows = np.flatnonzero(assign != fold)
        x_train_raw = x.take_rows(train_rows)
        x_test_raw = x.take_rows(test_rows)
        y_train = y.take(train_rows)
        y_test = y.take(test_rows)
        if len(set(y_test.labels.tolist())) < 2:
            raise NumericError(f"degenerate fold {fold}: single-class test set")

        if method == "sparse_sdr":
            x_train = center(x_train_raw)
            report = run_plan(x_train, y_train, plan,
                              seed=seed * 1000 + fold, n_workers=n_workers)
            kept = report.selected_indices
            if len(kept) == 0:
                kept = report.survivors
            pos_map = {int(j): i for i, j in enumerate(report.survivors)}
            B_kept = report.final_directions.B[[pos_map[int(j)] for j in kept]]
            clf = fit_classifier(x_train.restrict(kept), y_train, B_kept)
            tr_labels, tr_scores = predict(clf, x_train_raw.restrict(kept))
            te_labels, te_scores = predict(clf, x_test_raw.restrict(kept))
            selected_ids = [x.feature_ids[j] for j in kept]
        else:
            ranked = chi2_rank(x_train_raw, y_train)
            m_grid = [top_m] if top_m else [10, 25, 50]
            k_grid = [knn_k] if knn_k else [1, 3, 5]
            best = None
            for m in m_grid:
                cols = [j for j, _, _, _ in ranked[:m]]
                tr = x_train_raw.values[:, cols]
                d2 = _sq_dists(tr, tr)
                np.fill_diagonal(d2, np.inf)  # a row never votes on itself
                for k in k_grid:
                    if k >= len(train_rows):
                        continue
                    pred_tr, _ = _knn_vote(d2, y_train.labels, k)
                    acc = float(np.mean(pred_tr == y_train.labels))
                    if best is None or acc > best[0]:
                        best = (acc, m, k)
            if best is None:
                raise ValidationError("no valid (top_m, k) combination")
            _, m, k = best
            cols = [j for j, _, _, _ in ranked[:m]]
            tr = x_train_raw.values[:, cols]
            te = x_test_raw.values[:, cols]
            tr_labels, tr_frac = knn_predict(tr, y_train.labels, tr, k)
            te_labels, te_frac = knn_predict(tr, y_train.labels, te, k)
            tr_scores, te_scores = tr_frac, te_frac
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
            }
            for f in report.folds
        ],
        "averages": avg,
    }
