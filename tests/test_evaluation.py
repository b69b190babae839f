import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from sparsesdr.admm import PenaltyParams
from sparsesdr.dataset import (PredictorMatrix, Phenotype, SyntheticSpec,
                               center, make_phenotype, simulate)
from sparsesdr.errors import NumericError, ValidationError
from sparsesdr.evaluation import (CvReport, MetricBundle, auc_mann_whitney,
                                  chi2_rank, cross_validate, cv_report_to_tsv,
                                  fit_classifier, knn_predict, load_model,
                                  metrics, predict, save_model,
                                  stratified_folds)
from sparsesdr.optimal_scoring import SolverConfig, fit
from sparsesdr.scoring import build_design
from sparsesdr.screening import ScreeningPlan


def matrix(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return PredictorMatrix(values, [f"f{j}" for j in range(p)],
                           [f"s{i}" for i in range(n)])


def auc_pairwise(labels, scores, positive):
    """O(n^2) counting oracle for the Mann-Whitney AUC."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    case = scores[labels == positive]
    ctrl = scores[labels != positive]
    total = 0.0
    for a in case:
        for b in ctrl:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(case) * len(ctrl))


class TestMetrics:
    def test_hand_counts(self):
        # 100 cases: 65 called case; 100 controls: 90 called control
        truth = np.array([1] * 100 + [0] * 100)
        pred = np.array([1] * 65 + [0] * 35 + [0] * 90 + [1] * 10)
        scores = pred.astype(float)
        m = metrics(truth, pred, scores, positive=1)
        assert m.sensitivity == 0.65
        assert m.specificity == 0.90
        assert m.accuracy == 0.775
        assert (m.tp, m.fn, m.tn, m.fp) == (65, 35, 90, 10)

    def test_single_class_truth_rejected(self):
        with pytest.raises(NumericError, match="degenerate"):
            metrics(np.ones(4), np.array([1, 0, 1, 0]), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            metrics(np.array([0, 1]), np.array([0]), np.array([0.0]))

    def test_consistency_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(4, 60)
            truth = rng.integers(0, 2, size=n)
            if truth.min() == truth.max():
                continue
            pred = rng.integers(0, 2, size=n)
            scores = rng.standard_normal(n)
            m = metrics(truth, pred, scores, positive=1)
            assert m.tp + m.fn == int(truth.sum())
            assert m.tn + m.fp == int((1 - truth).sum())
            assert 0 <= m.auc <= 1


class TestAuc:
    def test_perfect_separation(self):
        truth = np.array([0, 0, 1, 1])
        assert auc_mann_whitney(truth, [0.1, 0.2, 0.8, 0.9], 1) == 1.0
        assert auc_mann_whitney(truth, [0.9, 0.8, 0.2, 0.1], 1) == 0.0

    def test_all_tied_scores(self):
        truth = np.array([0, 1, 0, 1])
        assert auc_mann_whitney(truth, np.zeros(4), 1) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            truth = rng.integers(0, 2, size=n)
            if truth.min() == truth.max():
                continue
            # quantize to force ties
            scores = np.round(rng.standard_normal(n), 1)
            assert auc_mann_whitney(truth, scores, 1) == pytest.approx(
                auc_pairwise(truth, scores, 1), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 2, size=30)
        truth[0], truth[1] = 0, 1
        scores = rng.standard_normal(30)
        a = auc_mann_whitney(truth, scores, 1)
        b = auc_mann_whitney(truth, np.exp(scores), 1)
        assert a == b

    def test_single_class_rejected(self):
        with pytest.raises(NumericError):
            auc_mann_whitney(np.ones(3), np.arange(3.0), 1)


def knn_oracle(x_train, labels, x_test, k):
    """Per-row `np.unique` vote: the reference for `knn_predict`."""
    labels = np.asarray(labels)
    d2 = (np.sum(x_test ** 2, axis=1)[:, None]
          + np.sum(x_train ** 2, axis=1)[None, :]
          - 2 * x_test @ x_train.T)
    votes = labels[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    positive = max(labels.tolist())
    pred, frac = [], np.zeros(len(x_test))
    for i in range(len(x_test)):
        vals, counts = np.unique(votes[i], return_counts=True)
        pred.append(vals[np.argmax(counts)])
        frac[i] = np.mean(votes[i] == positive)
    return np.array(pred), frac


class TestChi2Rank:
    def dosage_matrix(self, cols):
        return matrix(np.array(cols, dtype=float).T)

    def chi2_oracle(self, col, case):
        table = np.zeros((2, 3))
        for g in range(3):
            m = col == g
            table[0, g] = np.sum(m & ~case)
            table[1, g] = np.sum(m & case)
        table = table[:, table.sum(axis=0) > 0]
        df = table.shape[1] - 1
        if df == 0:
            return 0.0, 1.0, True
        n = table.sum()
        e = np.outer(table.sum(1), table.sum(0)) / n
        stat = float(((table - e) ** 2 / e).sum())
        return stat, float(chi2_dist.sf(stat, df)), False

    def rank_oracle(self, x, y):
        """The per-feature loop, sorted by (p, index): the reference for
        `chi2_rank`."""
        case = np.asarray(y.labels) == y.level_codes[1]
        results = [(j, *self.chi2_oracle(x.values[:, j].astype(int), case))
                   for j in range(x.n_features)]
        results.sort(key=lambda t: (t[2], t[0]))
        return results

    def test_proportional_table_zero_statistic(self):
        # identical genotype distribution in cases and controls
        col = [0, 1, 2, 0, 1, 2]
        x = self.dosage_matrix([col])
        y = Phenotype(np.array([0, 0, 0, 1, 1, 1]), "binary", [0, 1])
        (j, stat, p, flagged), = chi2_rank(x, y)
        assert stat == 0.0
        assert p == 1.0
        assert not flagged

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 3, size=(60, 8)).astype(float)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        x = matrix(X)
        y = Phenotype(labels, "binary", [0, 1])
        results = {j: (s, p, f) for j, s, p, f in chi2_rank(x, y)}
        case = labels == 1
        for j in range(8):
            stat, p, flagged = self.chi2_oracle(X[:, j].astype(int), case)
            assert results[j][0] == pytest.approx(stat, abs=1e-10)
            assert results[j][1] == pytest.approx(p, abs=1e-10)
            assert results[j][2] == flagged

    def test_case_control_swap_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 3, size=(40, 5)).astype(float)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        x = matrix(X)
        a = chi2_rank(x, Phenotype(labels, "binary", [0, 1]))
        b = chi2_rank(x, Phenotype(1 - labels, "binary", [0, 1]))
        for (j1, s1, p1, f1), (j2, s2, p2, f2) in zip(a, b):
            assert (j1, f1) == (j2, f2)
            assert s1 == pytest.approx(s2, abs=1e-10)

    def test_constant_column_flagged(self):
        x = self.dosage_matrix([[1, 1, 1, 1]])
        y = Phenotype(np.array([0, 0, 1, 1]), "binary", [0, 1])
        (j, stat, p, flagged), = chi2_rank(x, y)
        assert flagged and p == 1.0

    def test_non_dosage_rejected(self):
        x = matrix(np.array([[0.5], [1.0]]))
        y = Phenotype(np.array([0, 1]), "binary", [0, 1])
        with pytest.raises(ValidationError):
            chi2_rank(x, y)

    def test_equals_per_feature_loop_exactly(self):
        # 200 x 500 cohort with a constant column (df 0), a two-genotype
        # column (df 1) and duplicated columns (equal p, index tie order)
        rng = np.random.default_rng(14)
        X = rng.binomial(2, rng.uniform(0.05, 0.5, 500),
                         size=(200, 500)).astype(float)
        labels = (rng.uniform(size=200)
                  < 1 / (1 + np.exp(-(X[:, 3] - 1)))).astype(int)
        X[:, 7] = 1.0
        X[:, 11] = rng.integers(0, 2, 200) * 2.0
        X[:, [20, 40, 60]] = X[:, [3]]
        X[:, [100, 101]] = X[:, [50]]
        x = matrix(X)
        y = Phenotype(labels, "binary", [0, 1])
        got = chi2_rank(x, y)
        assert got == self.rank_oracle(x, y)
        by_index = {j: (s, p, f) for j, s, p, f in got}
        assert by_index[7] == (0.0, 1.0, True)
        assert not by_index[11][2]
        order = [j for j, *_ in got]
        assert order.index(3) < order.index(20) < order.index(40) \
            < order.index(60)

    def test_sorted_by_p_value(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 3, size=(80, 10)).astype(float)
        labels = (X[:, 0] > 0).astype(int)
        results = chi2_rank(matrix(X), Phenotype(labels, "binary", [0, 1]))
        ps = [p for _, _, p, _ in results]
        assert ps == sorted(ps)
        assert results[0][0] == 0  # the truly associated feature ranks first


class TestKnn:
    def test_k1_training_points_exact(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [0.1, 0.1], [5.1, 5.1]])
        labels = np.array([0, 1, 0, 1])
        pred, _ = knn_predict(X, labels, X, 1)
        assert np.array_equal(pred, labels)

    def test_two_cluster_accuracy(self):
        rng = np.random.default_rng(6)
        train = np.vstack([rng.normal(0, 1, (50, 2)),
                           rng.normal(6, 1, (50, 2))])
        labels = np.array([0] * 50 + [1] * 50)
        test = np.vstack([rng.normal(0, 1, (25, 2)),
                          rng.normal(6, 1, (25, 2))])
        truth = np.array([0] * 25 + [1] * 25)
        pred, frac = knn_predict(train, labels, test, 5)
        assert np.mean(pred == truth) > 0.9
        assert auc_mann_whitney(truth, frac, 1) > 0.9

    def test_even_k_binary_rejected(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValidationError, match="odd"):
            knn_predict(X, np.array([0, 1, 0, 1]), X, 2)

    @pytest.mark.parametrize("n_classes,k", [(2, 1), (2, 5), (3, 4),
                                             (3, 6), (3, 7)])
    def test_equals_unique_vote_loop_exactly(self, n_classes, k):
        # coarse integer features give many distance ties; even k with three
        # classes gives tied votes, which go to the smallest label
        rng = np.random.default_rng(15 + k)
        train = rng.integers(0, 3, size=(60, 4)).astype(float)
        test = rng.integers(0, 3, size=(40, 4)).astype(float)
        labels = rng.integers(0, n_classes, size=60) * 10 + 1
        pred, frac = knn_predict(train, labels, test, k)
        want_pred, want_frac = knn_oracle(train, labels, test, k)
        if n_classes == 3 and k % 2 == 0:
            d2 = ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
            votes = labels[np.argsort(d2, axis=1, kind="stable")[:, :k]]
            counts = np.stack([(votes == c).sum(axis=1) for c in (1, 11, 21)])
            assert np.any(np.sum(counts == counts.max(axis=0), axis=0) > 1)
        assert pred.dtype == want_pred.dtype
        assert np.array_equal(pred, want_pred)
        assert np.array_equal(frac, want_frac)

    def test_tied_vote_goes_to_smallest_label(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
        pred, frac = knn_predict(X, np.array([5, 3, 5, 3, 7]),
                                 np.array([[1.5]]), 4)
        assert pred.tolist() == [3] and frac.tolist() == [0.0]

    def test_k_exceeds_n(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValidationError):
            knn_predict(X, np.array([0, 1]), X, 3)


class TestClassifier:
    def separated_instance(self, seed=7, n=200):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 5))
        labels = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        return center(matrix(X)), make_phenotype(labels)

    def test_separates_train_and_test(self):
        x, y = self.separated_instance()
        B = np.zeros((5, 1))
        B[0, 0], B[1, 0] = 1.0, 0.5
        clf = fit_classifier(x, y, B)
        raw = PredictorMatrix(x.values + clf.column_means,
                              x.feature_ids, x.sample_ids)
        labels, scores = predict(clf, raw)
        m = metrics(y.labels, labels, scores, positive=1)
        assert m.accuracy > 0.95
        assert m.auc > 0.95

    def test_test_rows_centered_with_training_means(self):
        x, y = self.separated_instance(8)
        B = np.ones((5, 1))
        clf = fit_classifier(x, y, B)
        shifted = PredictorMatrix(x.values + clf.column_means,
                                  x.feature_ids, x.sample_ids)
        a, _ = predict(clf, shifted)
        # the same rows with an extra constant shift give different labels
        # unless the training means are subtracted; verify equality with the
        # exactly-reconstructed raw data
        b, _ = predict(clf, PredictorMatrix(x.values + clf.column_means,
                                            x.feature_ids, x.sample_ids))
        assert np.array_equal(a, b)

    def test_degenerate_projection_falls_back_to_prior(self):
        x, y = self.separated_instance(9, n=100)
        B = np.zeros((5, 1))
        clf = fit_classifier(x, y, B)
        assert clf.degenerate
        labels, _ = predict(clf, PredictorMatrix(
            x.values + 1.0, x.feature_ids, x.sample_ids))
        winner = clf.class_labels[int(np.argmax(clf.class_priors))]
        assert np.all(labels == winner)

    def test_score_orientation(self):
        x, y = self.separated_instance(10)
        B = np.zeros((5, 1))
        B[0, 0] = 1.0
        clf = fit_classifier(x, y, B)
        raw = PredictorMatrix(x.values + clf.column_means,
                              x.feature_ids, x.sample_ids)
        _, scores = predict(clf, raw)
        # higher score should track the case class
        assert auc_mann_whitney(y.labels, scores, 1) > 0.9

    def test_binary_d1_score_is_signed_axis_projection(self):
        # d = 1: a difference of distances is +-|c1 - c0| for every
        # projection outside the centroid interval; the axis projection
        # keeps them apart and never moves a label
        x, y = self.separated_instance(16)
        B = np.zeros((5, 1))
        B[0, 0], B[1, 0] = 1.0, 0.5
        clf = fit_classifier(x, y, B)
        raw = PredictorMatrix(x.values + clf.column_means,
                              x.feature_ids, x.sample_ids)
        labels, scores = predict(clf, raw)
        proj = (x.values @ B)[:, 0]
        c0, c1 = clf.class_centroids[:, 0]
        order = np.argsort(proj)
        assert np.all(np.diff(scores[order]) > 0)
        assert len(np.unique(scores)) == len(np.unique(proj))
        dists = np.abs(proj[:, None] - clf.class_centroids[None, :, 0])
        nearest = np.array(clf.class_labels)[np.argmin(dists, axis=1)]
        assert np.array_equal(labels, nearest)
        assert np.allclose(scores, (proj - (c0 + c1) / 2) * np.sign(c1 - c0))
        assert np.all((scores > 0) == (labels == 1))

    def test_equal_centroids_score_zero(self):
        x, y = self.separated_instance(17, n=100)
        clf = fit_classifier(x, y, np.zeros((5, 1)))
        clf.class_centroids[:] = 0.0
        _, scores = predict(clf, PredictorMatrix(
            x.values, x.feature_ids, x.sample_ids))
        assert np.array_equal(scores, np.zeros(100))

    def test_requires_centered_training(self):
        x, y = self.separated_instance(11)
        raw = PredictorMatrix(x.values.copy(), x.feature_ids, x.sample_ids)
        with pytest.raises(ValidationError, match="centered"):
            fit_classifier(raw, y, np.ones((5, 1)))

    def test_missing_test_feature(self):
        x, y = self.separated_instance(12)
        clf = fit_classifier(x, y, np.ones((5, 1)))
        small = PredictorMatrix(x.values[:, :4], x.feature_ids[:4],
                                x.sample_ids)
        with pytest.raises(ValidationError, match="missing"):
            predict(clf, small)

    def test_save_load_round_trip(self, tmp_path):
        # 3 classes, d = 2: the reloaded model predicts exactly as the original
        rng = np.random.default_rng(13)
        X = rng.standard_normal((150, 6))
        labels = np.zeros(150, dtype=int)
        labels[X[:, 0] > 0.4] = 1
        labels[X[:, 1] > 0.4] = 2
        x, y = center(matrix(X)), make_phenotype(labels)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.5, rho=2.0))
        ds = fit(x, build_design(y), cfg)
        clf = fit_classifier(x, y, ds.B)
        raw = matrix(rng.standard_normal((40, 6)))
        save_model(clf, tmp_path / "model.json")
        before = predict(clf, raw)
        after = predict(load_model(tmp_path / "model.json"), raw)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert len(set(before[0].tolist())) == 3


class TestStratifiedFolds:
    def test_every_fold_has_both_classes(self):
        labels = np.array([0] * 30 + [1] * 20)
        assign = stratified_folds(labels, 5, seed=0)
        for f in range(5):
            fold_labels = set(labels[assign == f].tolist())
            assert fold_labels == {0, 1}

    def test_balanced_sizes(self):
        labels = np.array([0] * 25 + [1] * 25)
        assign = stratified_folds(labels, 5, seed=1)
        counts = np.bincount(assign)
        assert counts.tolist() == [10] * 5

    def test_class_smaller_than_folds(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ValidationError):
            stratified_folds(labels, 5, seed=0)


class TestCrossValidate:
    def cv_instance(self, seed=42, n=200, p=40):
        spec = SyntheticSpec(n_samples=n, n_features=p, maf_range=(0.1, 0.4),
                             support=[(j, 2.0) for j in range(5)],
                             link="logistic", seed=seed)
        x, y, truth = simulate(spec)
        return x, y, truth

    def plan(self, lam=15.0):
        return ScreeningPlan(
            stages=[(2, 10)],
            final_fit=SolverConfig(d=1, penalty=PenaltyParams(
                lam=lam, delta=1.0, rho=2.0)))

    def test_sparse_sdr_deterministic(self):
        x, y, _ = self.cv_instance()
        a = cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan())
        b = cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan(),
                           n_workers=3)
        assert cv_report_to_tsv(a) == cv_report_to_tsv(b)

    def test_sparse_sdr_beats_chance(self):
        x, y, _ = self.cv_instance()
        rep = cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan())
        assert rep.averages()["test_accuracy"] > 0.6

    def test_pvalue_rank_runs(self):
        x, y, _ = self.cv_instance()
        rep = cross_validate(x, y, 4, "pvalue_rank", seed=3, top_m=10,
                             knn_k=3)
        assert rep.averages()["test_accuracy"] > 0.55
        assert all(f.n_selected == 10 for f in rep.folds)

    def test_pvalue_rank_grid_scored_by_leave_one_out(self):
        # oracle: each training row is voted on by its k nearest *other*
        # training rows, one row at a time; the first best (m, k) in grid
        # order wins. Train metrics stay resubstitution with that (m, k).
        x, y, _ = self.cv_instance(n=200, p=100)
        rep = cross_validate(x, y, 4, "pvalue_rank", seed=1)
        assign = stratified_folds(y.labels, 4, 1)
        chosen_k = set()
        for fold in rep.folds:
            rows = np.flatnonzero(assign != fold.fold)
            x_tr, labels = x.take_rows(rows), y.labels[rows]
            ranked = chi2_rank(x_tr, y.take(rows))
            best = None
            for m in (10, 25, 50):
                tr = x_tr.values[:, [j for j, _, _, _ in ranked[:m]]]
                for k in (1, 3, 5):
                    hits = [knn_oracle(np.delete(tr, i, axis=0),
                                       np.delete(labels, i), tr[i:i + 1],
                                       k)[0][0] == labels[i]
                            for i in range(len(rows))]
                    if best is None or np.mean(hits) > best[0]:
                        best = (np.mean(hits), m, k, tr)
            _, m, k, tr = best
            chosen_k.add(k)
            resub, _ = knn_oracle(tr, labels, tr, k)
            assert fold.n_selected == m
            assert fold.train.accuracy == np.mean(resub == labels)
        # resubstitution would pick k = 1 (each row its own neighbour)
        assert chosen_k != {1}

    def test_selection_sees_training_rows_only(self, monkeypatch):
        import sparsesdr.evaluation as ev
        x, y, _ = self.cv_instance()
        seen = []
        original = ev.run_plan

        def spy(x_train, y_train, plan, seed=0, n_workers=1):
            seen.append(x_train.n_samples)
            return original(x_train, y_train, plan, seed=seed,
                           n_workers=n_workers)

        monkeypatch.setattr(ev, "run_plan", spy)
        cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan())
        assert len(seen) == 4
        assert all(n < x.n_samples for n in seen)
        assert sum(x.n_samples - n for n in seen) == x.n_samples

    def test_centered_input_rejected(self):
        x, y, _ = self.cv_instance()
        with pytest.raises(ValidationError):
            cross_validate(center(x), y, 4, "sparse_sdr", seed=0,
                           plan=self.plan())

    def test_unknown_method(self):
        x, y, _ = self.cv_instance()
        with pytest.raises(ValidationError):
            cross_validate(x, y, 4, "logistic", seed=0)

    @pytest.mark.parametrize("method", ["sparse_sdr", "pvalue_rank"])
    @pytest.mark.parametrize("kind", ["continuous", "categorical"])
    def test_non_binary_response_refused_before_folds(self, monkeypatch,
                                                      method, kind):
        import sparsesdr.evaluation as ev
        x, _, _ = self.cv_instance()
        rng = np.random.default_rng(0)
        y = (Phenotype(rng.standard_normal(x.n_samples), "continuous")
             if kind == "continuous"
             else make_phenotype(np.arange(x.n_samples) % 3))

        def no_folds(*args, **kwargs):
            raise AssertionError("folds built for a non-binary response")

        monkeypatch.setattr(ev, "stratified_folds", no_folds)
        with pytest.raises(ValidationError, match=f"binary.*{kind}"):
            cross_validate(x, y, 4, method, seed=0, plan=self.plan())

    def test_tsv_shape(self):
        x, y, _ = self.cv_instance()
        rep = cross_validate(x, y, 3, "pvalue_rank", seed=3, top_m=10,
                             knn_k=3)
        lines = cv_report_to_tsv(rep).strip().split("\n")
        assert len(lines) == 5  # header + 3 folds + average
        assert lines[1].startswith("CV-1\t")
        assert lines[-1].startswith("Average\t")
