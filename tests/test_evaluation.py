import json
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist
from scipy.stats import rankdata

from sparsesdr.admm import PenaltyParams
from sparsesdr.dataset import (PredictorMatrix, Phenotype, SyntheticSpec,
                               center, make_phenotype, simulate)
from sparsesdr.errors import NumericError, ValidationError
from sparsesdr.evaluation import (CvReport, FoldResult, MetricBundle,
                                  _average_ranks,
                                  _chi2_sf, _neighbour_order, _sq_dists,
                                  auc_mann_whitney,
                                  chi2_rank, cross_validate,
                                  cv_report_to_json, cv_report_to_tsv,
                                  fit_classifier, fit_model, knn_predict,
                                  load_model, metrics, model_to_json, predict,
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

    @pytest.mark.parametrize("scores", [
        np.random.default_rng(6).standard_normal(97),
        np.random.default_rng(7).integers(0, 4, 97).astype(float),
        np.array([0.25]),
        np.full(97, 3.5),
    ], ids=["untied", "tied_integers", "one", "all_equal"])
    def test_ranks_equal_rankdata_exactly(self, scores):
        ranks = rankdata(scores)
        assert np.array_equal(_average_ranks(scores), ranks)
        if len(scores) > 1:
            truth = np.arange(len(scores)) % 2
            n1, n0 = int(truth.sum()), int((truth == 0).sum())
            u = ranks[truth == 1].sum() - n1 * (n1 + 1) / 2
            assert auc_mann_whitney(truth, scores, 1) == u / (n1 * n0)


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


def uint8_cohort(seed=5, n=200, p=40):
    """A simulated uint8 dosage cohort, 5 causal columns."""
    x, y, _ = simulate(SyntheticSpec(
        n_samples=n, n_features=p, maf_range=(0.1, 0.4),
        support=[(j, 2.0) for j in range(5)], seed=seed))
    assert x.raw.dtype == np.uint8
    return x, y


class TestChi2Rank:
    def dosage_matrix(self, cols):
        return matrix(np.array(cols, dtype=float).T)

    def test_float_copy_ranked_as_its_dosages(self):
        x, y = uint8_cohort()
        f64 = PredictorMatrix(x.raw.astype(float), x.feature_ids,
                              x.sample_ids)
        assert chi2_rank(f64, y) == chi2_rank(x, y)

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
        results = [(j, *self.chi2_oracle(x.raw[:, j].astype(int), case))
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

    def wide_cohort(self):
        """200 x 500 cohort with a constant column (df 0), a two-genotype
        column (df 1) and duplicated columns (equal p, index tie order)."""
        rng = np.random.default_rng(14)
        X = rng.binomial(2, rng.uniform(0.05, 0.5, 500),
                         size=(200, 500)).astype(float)
        labels = (rng.uniform(size=200)
                  < 1 / (1 + np.exp(-(X[:, 3] - 1)))).astype(int)
        X[:, 7] = 1.0
        X[:, 11] = rng.integers(0, 2, 200) * 2.0
        X[:, [20, 40, 60]] = X[:, [3]]
        X[:, [100, 101]] = X[:, [50]]
        return matrix(X), Phenotype(labels, "binary", [0, 1])

    def test_equals_per_feature_loop_exactly(self):
        x, y = self.wide_cohort()
        got = chi2_rank(x, y)
        want = self.rank_oracle(x, y)
        assert ([(j, s, f) for j, s, _, f in got]
                == [(j, s, f) for j, s, _, f in want])
        assert np.allclose([p for _, _, p, _ in got],
                           [p for _, _, p, _ in want], rtol=5e-14, atol=0)
        by_index = {j: (s, p, f) for j, s, p, f in got}
        assert by_index[7] == (0.0, 1.0, True)
        assert not by_index[11][2]
        order = [j for j, *_ in got]
        assert order.index(3) < order.index(20) < order.index(40) \
            < order.index(60)

    @staticmethod
    def sf_reference(stat, df):
        """P(chi-square with df 1 or 2 >= stat) at 50 digits, as a double."""
        x = mpmath.mpf(float(stat))  # exact: a double is a short binary
        with mpmath.workdps(50):
            tail = (mpmath.exp(-x / 2) if df == 2
                    else mpmath.erfc(mpmath.sqrt(x / 2)))
        return float(tail)

    def assert_near_reference(self, p, stat, df):
        """Relative error <= 1e-15 against the 50-digit reference; where
        the reference is subnormal or 0, relative to the smallest normal
        double (a few units in the last place)."""
        want = np.array([self.sf_reference(s, d) for s, d in zip(stat, df)])
        scale = np.maximum(want, np.finfo(float).tiny)
        assert np.max(np.abs(p - want) / scale) <= 1e-15
        return want

    def test_p_values_match_50_digit_reference(self):
        rng = np.random.default_rng(8)
        stat = np.concatenate([
            [0.0, 5e-324, 1e-12, 1e-6, 1500.0],
            rng.uniform(0, 1500, 400),
            np.exp(rng.uniform(np.log(1e-10), np.log(1500), 400)),
            np.linspace(1400, 1500, 60),  # p subnormal, then 0
        ])
        for df in (1, 2):
            dfs = np.full(len(stat), df)
            p = _chi2_sf(stat, dfs)
            want = self.assert_near_reference(p, stat, dfs)
            assert p[0] == 1.0
            assert np.count_nonzero(want == 0) > 0
            assert np.all(p[want == 0] == 0)
        # and chi2_rank's own p-values, df 1 and 2 present
        x, y = self.wide_cohort()
        j, stat, p, flagged = map(np.array, zip(*chi2_rank(x, y)))
        df = np.array([len(np.unique(x.raw[:, i])) - 1 for i in j])
        tested = ~flagged
        assert set(df[tested].tolist()) == {1, 2}
        self.assert_near_reference(p[tested], stat[tested], df[tested])

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

    def test_uint8_distances_do_not_wrap(self):
        # 200 columns of 2s: a row's inner product with itself is 800,
        # which uint8 arithmetic wraps to 32
        twos = np.full((3, 200), 2, dtype=np.uint8)
        zeros = np.zeros((2, 200), dtype=np.uint8)
        d2 = _sq_dists(twos, zeros)
        assert d2.dtype == np.float64
        assert d2.tolist() == [[800.0, 800.0]] * 3
        assert _sq_dists(twos, twos).tolist() == [[0.0] * 3] * 3

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_distances_match_the_plain_expression(self, dtype):
        # one float conversion when both arguments are the same array, and
        # the same values, bit for bit, as the expression written out
        rng = np.random.default_rng(9)
        a = rng.binomial(2, 0.3, size=(50, 40)).astype(dtype)
        b = rng.binomial(2, 0.3, size=(30, 40)).astype(dtype)
        if dtype == np.float64:
            a, b = a + rng.uniform(size=a.shape), b + rng.uniform(size=b.shape)
        for u, v in [(a, a), (a, b)]:
            fu, fv = u.astype(float), v.astype(float)
            plain = (np.sum(fu ** 2, axis=1)[:, None]
                     + np.sum(fv ** 2, axis=1)[None, :] - 2 * fu @ fv.T)
            assert np.array_equal(_sq_dists(u, v), plain)


def argsort_order(d2, k):
    """The first k columns of each row's stable argsort: the reference for
    `_neighbour_order`."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class TestNeighbourOrder:
    def assert_every_k(self, d2):
        for k in range(1, d2.shape[1] + 1):
            got = _neighbour_order(d2, k)
            assert got.shape == (d2.shape[0], k)
            assert np.array_equal(got, argsort_order(d2, k))

    @pytest.mark.parametrize("levels", [2, 3, 6])
    def test_integer_distances_with_many_ties(self, levels):
        rng = np.random.default_rng(levels)
        self.assert_every_k(rng.integers(0, levels, size=(30, 25))
                            .astype(float))

    def test_inf_diagonal(self):
        # the leave-one-out distances of the CV grid: coarse dosages, a
        # row's own distance +inf, and duplicated rows at distance 0
        rng = np.random.default_rng(8)
        x = rng.binomial(2, 0.15, size=(40, 6)).astype(float)
        x[20:25] = x[3]
        d2 = _sq_dists(x, x)
        np.fill_diagonal(d2, np.inf)
        assert np.sum(d2 == 0) >= 20
        self.assert_every_k(d2)

    def test_signed_zeros_and_one_column(self):
        d2 = np.array([[0.0, -0.0, 1.0, -0.0], [2.0, 2.0, -1.0, 0.0]])
        self.assert_every_k(d2)
        self.assert_every_k(d2[:, :1])


class TestClassifier:
    def separated_instance(self, seed=7, n=200):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 5))
        labels = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        return matrix(X), make_phenotype(labels)

    def test_separates_train_and_test(self):
        x, y = self.separated_instance()
        B = np.zeros((5, 1))
        B[0, 0], B[1, 0] = 1.0, 0.5
        clf = fit_classifier(x, y, B)
        labels, scores = predict(clf, x)
        m = metrics(y.labels, labels, scores, positive=1)
        assert m.accuracy > 0.95
        assert m.auc > 0.95

    def test_test_rows_centered_with_training_means(self):
        x, y = self.separated_instance(8)
        train, test = x.take_rows(range(150)), x.take_rows(range(150, 200))
        clf = fit_classifier(train, y.take(range(150)), np.ones((5, 1)))
        assert np.array_equal(clf.column_means, train.raw.mean(axis=0))
        _, scores = predict(clf, test)
        proj = ((test.raw - clf.column_means) @ clf.B_kept)[:, 0]
        c0, c1 = clf.class_centroids[:, 0]
        assert np.allclose(scores, (proj - (c0 + c1) / 2) * np.sign(c1 - c0))
        # the test rows' own means would move every score
        own = ((test.raw - test.raw.mean(axis=0)) @ clf.B_kept)[:, 0]
        assert not np.allclose(own, proj)

    def test_degenerate_projection_falls_back_to_prior(self):
        x, y = self.separated_instance(9, n=100)
        B = np.zeros((5, 1))
        clf = fit_classifier(x, y, B)
        assert clf.degenerate
        labels, _ = predict(clf, PredictorMatrix(
            x.raw + 1.0, x.feature_ids, x.sample_ids))
        winner = clf.class_labels[int(np.argmax(clf.class_priors))]
        assert np.all(labels == winner)

    def test_score_orientation(self):
        x, y = self.separated_instance(10)
        B = np.zeros((5, 1))
        B[0, 0] = 1.0
        clf = fit_classifier(x, y, B)
        _, scores = predict(clf, x)
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
        labels, scores = predict(clf, x)
        proj = (center(x)[0] @ B)[:, 0]
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
        _, scores = predict(clf, x)
        assert np.array_equal(scores, np.zeros(100))

    def test_centroids_of_the_centered_training_rows(self):
        # oracle: the training means and the class means of the projected
        # centered rows, the same bits for dosages and their float copy
        x, y = uint8_cohort(11)
        B = np.random.default_rng(11).standard_normal((x.n_features, 2))
        clf = fit_classifier(x, y, B)
        means = x.raw.mean(axis=0)
        proj = (x.raw - means) @ B
        assert np.array_equal(clf.column_means, means)
        assert np.array_equal(clf.class_centroids, [
            proj[y.labels == c].mean(axis=0) for c in clf.class_labels])
        f64 = fit_classifier(PredictorMatrix(
            x.raw.astype(float), x.feature_ids, x.sample_ids), y, B)
        for name, value in vars(f64).items():
            assert np.array_equal(getattr(clf, name), value), name

    def test_predict_reads_raw_cells(self):
        # dosages and their float copy are centered to the same test rows
        x, y = uint8_cohort(12)
        B = np.random.default_rng(12).standard_normal((x.n_features, 1))
        clf = fit_classifier(x.take_rows(range(150)), y.take(range(150)), B)
        test = x.take_rows(range(150, 200))
        f64 = PredictorMatrix(test.raw.astype(float), test.feature_ids,
                              test.sample_ids)
        for got, want in zip(predict(clf, f64), predict(clf, test)):
            assert np.array_equal(got, want)

    def test_missing_test_feature(self):
        x, y = self.separated_instance(12)
        clf = fit_classifier(x, y, np.ones((5, 1)))
        small = PredictorMatrix(x.raw[:, :4], x.feature_ids[:4],
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
        x, y = matrix(X), make_phenotype(labels)
        cfg = SolverConfig(d=2, penalty=PenaltyParams(lam=0.5), rho=2.0)
        ds = fit(x, build_design(y), cfg)
        clf = fit_classifier(x, y, ds.B)
        raw = matrix(rng.standard_normal((40, 6)))
        (tmp_path / "model.json").write_text(json.dumps(model_to_json(clf)))
        loaded = load_model(tmp_path / "model.json")
        before = predict(clf, raw)
        after = predict(loaded, raw)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert len(set(before[0].tolist())) == 3
        # the file's keys are the record's fields, each read back as it was
        assert set(model_to_json(clf)) == {f.name for f in fields(clf)}
        for f in fields(clf):
            want, got = getattr(clf, f.name), getattr(loaded, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name


class TestFitModel:
    def instance(self):
        spec = SyntheticSpec(n_samples=200, n_features=40,
                             maf_range=(0.1, 0.4),
                             support=[(j, 2.0) for j in range(5)],
                             link="logistic", seed=42)
        x, y, _ = simulate(spec)
        return x, y

    def plan(self, lam):
        return ScreeningPlan(stages=[(2, 10)], final_fit=SolverConfig(
            d=1, penalty=PenaltyParams(lam=lam, delta=1.0), rho=2.0))

    def test_classifier_uses_selected_rows(self):
        x, y = self.instance()
        report, clf = fit_model(x, y, self.plan(15.0))
        assert 0 < len(report.selected_indices) < len(report.survivors)
        assert clf.feature_ids == report.selected_ids
        pos = np.searchsorted(report.survivors, report.selected_indices)
        assert np.array_equal(clf.B_kept, report.final_directions.B[pos])
        assert np.array_equal(
            clf.column_means, center(x)[1][report.selected_indices])

    def test_no_selection_keeps_every_survivor(self):
        x, y = self.instance()
        report, clf = fit_model(x, y, self.plan(1e6))
        assert len(report.selected_indices) == 0
        assert clf.feature_ids == [x.feature_ids[j] for j in report.survivors]
        assert np.array_equal(clf.B_kept, report.final_directions.B)


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
                lam=lam, delta=1.0), rho=2.0))

    def test_sparse_sdr_deterministic(self):
        x, y, _ = self.cv_instance()
        a = cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan())
        b = cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan())
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
                tr = x_tr.raw[:, [j for j, _, _, _ in ranked[:m]]]
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

    def test_pvalue_rank_grid_builds_one_distance_matrix_per_size(
            self, monkeypatch):
        # at p = 20 the grid sizes 10, 25 and 50 read 10, 20 and 20
        # columns: each fold's search builds one distance matrix for each
        # of 10 and 20, then k-NN scores its train and test rows once each
        import sparsesdr.evaluation as ev
        x, y, _ = self.cv_instance(n=120, p=20)
        shapes, sq_dists = [], ev._sq_dists
        monkeypatch.setattr(ev, "_sq_dists", lambda a, b: shapes.append(
            a.shape) or sq_dists(a, b))
        rep = cross_validate(x, y, 4, "pvalue_rank", seed=1)
        assign = stratified_folds(y.labels, 4, 1)
        for f in rep.folds:
            n_tr, m = int(np.sum(assign != f.fold)), f.n_selected
            assert m in (10, 20)
            assert shapes[:4] == [(n_tr, 10), (n_tr, 20), (n_tr, m),
                                  (x.n_samples - n_tr, m)]
            del shapes[:4]
        assert shapes == []

    def test_pvalue_rank_fold_tables_equal_training_rows_exactly(
            self, monkeypatch):
        # oracle: each fold ranks by chi2_rank on its own training rows; a
        # constant column (df 0), a two-genotype column (df 1), a column
        # whose one `1` makes it df 2 or df 1 by fold, and duplicated columns
        import sparsesdr.evaluation as ev
        rng = np.random.default_rng(21)
        X = rng.binomial(2, rng.uniform(0.05, 0.5, 120),
                         size=(150, 120)).astype(float)
        labels = (rng.uniform(size=150)
                  < 1 / (1 + np.exp(-(X[:, 2] - 1)))).astype(int)
        X[:, 5] = 2.0
        X[:, 9] = rng.integers(0, 2, 150) * 2.0
        X[:, 13] = X[:, 9]
        X[7, 13] = 1.0
        X[:, [30, 31, 32]] = X[:, [2]]
        X[:, [60, 61]] = X[:, [40]]
        x, y = matrix(X), Phenotype(labels, "binary", [0, 1])
        rankings = []
        original = ev._chi2_ranking

        def spy(table):
            out = original(table)
            rankings.append(out)
            return out

        monkeypatch.setattr(ev, "_chi2_ranking", spy)
        rep = cross_validate(x, y, 5, "pvalue_rank", seed=4, top_m=10,
                             knn_k=3)
        monkeypatch.undo()
        assign = stratified_folds(labels, 5, 4)
        assert len(rankings) == len(rep.folds) == 5
        col13_df = set()
        for fold, (order, stat, p, flagged) in zip(rep.folds, rankings):
            rows = np.flatnonzero(assign != fold.fold)
            col13_df.add(len(np.unique(X[rows, 13])) - 1)
            want = chi2_rank(x.take_rows(rows), y.take(rows))
            assert list(zip(order.tolist(), stat[order].tolist(),
                            p[order].tolist(), flagged[order].tolist())) \
                == want
            assert flagged[5] and not flagged[9]
            assert fold.selected_ids == [x.feature_ids[j]
                                         for j, *_ in want[:10]]
        assert col13_df == {1, 2}

    @pytest.mark.parametrize("top_m, knn_k", [(None, None), (3, 5)])
    def test_pvalue_rank_matches_argsort_reference(self, monkeypatch, top_m,
                                                   knn_k):
        # rare dosages on few columns: many rows repeat, so the k-NN
        # distances tie often; the reference orders every column of each row
        import sparsesdr.evaluation as ev
        spec = SyntheticSpec(n_samples=150, n_features=30,
                             maf_range=(0.02, 0.08),
                             support=[(j, 2.0) for j in range(4)], seed=12)
        x, y, _ = simulate(spec)
        d2 = _sq_dists(x.raw[:, :10], x.raw[:, :10])
        assert np.sum(d2 == 0) > 4 * 150
        got = cross_validate(x, y, 4, "pvalue_rank", seed=2, top_m=top_m,
                             knn_k=knn_k)
        monkeypatch.setattr(ev, "_neighbour_order",
                            lambda d2, k: np.argsort(d2, axis=1,
                                                     kind="stable"))
        want = cross_validate(x, y, 4, "pvalue_rank", seed=2, top_m=top_m,
                              knn_k=knn_k)
        assert cv_report_to_json(got) == cv_report_to_json(want)

    @pytest.mark.parametrize("top_m, knn_k", [(64, 3), (90, None)])
    def test_pvalue_rank_uint8_matches_float64(self, top_m, knn_k):
        # top_m >= 64 columns of dosages: inner products past 255, which
        # uint8 arithmetic would wrap around
        x, y, _ = self.cv_instance(n=120, p=100)
        assert x.raw.dtype == np.uint8
        f64 = PredictorMatrix(x.raw.astype(float), x.feature_ids,
                              x.sample_ids)
        got, want = (cross_validate(m, y, 4, "pvalue_rank", seed=1,
                                    top_m=top_m, knn_k=knn_k)
                     for m in (x, f64))
        assert cv_report_to_json(got) == cv_report_to_json(want)

    @pytest.mark.parametrize("row", [0, 77, 149])
    def test_pvalue_rank_non_dosage_refused_before_folds(self, monkeypatch,
                                                         row):
        import sparsesdr.evaluation as ev
        x, y, _ = self.cv_instance(n=150)
        values = x.raw.astype(float)  # simulated dosages are uint8
        values[row, 3] = 0.5
        bad = PredictorMatrix(values, x.feature_ids, x.sample_ids)

        def no_folds(*args, **kwargs):
            raise AssertionError("folds built for a non-dosage cell")

        monkeypatch.setattr(ev, "stratified_folds", no_folds)
        with pytest.raises(ValidationError,
                           match=f"got 0.5 at sample '{x.sample_ids[row]}', "
                                 f"feature '{x.feature_ids[3]}'"):
            cross_validate(bad, y, 5, "pvalue_rank", seed=0)

    def test_selection_sees_training_rows_only(self, monkeypatch):
        import sparsesdr.evaluation as ev
        x, y, _ = self.cv_instance()
        seen = []
        original = ev.run_plan

        def spy(x_train, y_train, plan, h=None):
            seen.append(x_train.n_samples)
            return original(x_train, y_train, plan, h=h)

        monkeypatch.setattr(ev, "run_plan", spy)
        cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan())
        assert len(seen) == 4
        assert all(n < x.n_samples for n in seen)
        assert sum(x.n_samples - n for n in seen) == x.n_samples

    def test_each_fold_scores_fit_model_on_its_training_rows(self):
        x, y, _ = self.cv_instance()
        rep = cross_validate(x, y, 4, "sparse_sdr", seed=3, plan=self.plan())
        assign = stratified_folds(y.labels, 4, 3)
        for f in rep.folds:
            train = np.flatnonzero(assign != f.fold)
            test = np.flatnonzero(assign == f.fold)
            _, clf = fit_model(x.take_rows(train), y.take(train),
                               self.plan())
            assert f.selected_ids == clf.feature_ids
            labels, scores = predict(clf, x.take_rows(test))
            assert f.test == metrics(y.labels[test], labels, scores, 1)

    @pytest.mark.parametrize("method", ["sparse_sdr", "pvalue_rank"])
    def test_float_copy_answers_alike(self, method):
        # each fit centers its own columns: exact dosage means, so a float
        # copy of the cells gives the same report
        x, y, _ = self.cv_instance()
        f64 = PredictorMatrix(x.raw.astype(float), x.feature_ids,
                              x.sample_ids)
        plan = self.plan() if method == "sparse_sdr" else None
        reports = [cv_report_to_json(cross_validate(
            m, y, 4, method, seed=0, plan=plan)) for m in (x, f64)]
        assert reports[0] == reports[1]

    def test_json_keys_are_the_records_fields(self):
        # a field added to a record shows in cv_report.json
        x, y, _ = self.cv_instance()
        out = cv_report_to_json(cross_validate(x, y, 4, "pvalue_rank",
                                               seed=0))
        assert json.loads(json.dumps(out)) == out

        def names(record):
            return {f.name for f in fields(record)}
        assert set(out) == names(CvReport) | {"averages"}
        for fold in out["folds"]:
            assert set(fold) == names(FoldResult)
            assert set(fold["train"]) == names(MetricBundle)
            assert set(fold["test"]) == names(MetricBundle)

    def test_unknown_method(self):
        x, y, _ = self.cv_instance()
        with pytest.raises(ValidationError):
            cross_validate(x, y, 4, "logistic", seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"folds": 0}, "folds >= 2, got 0"),
        ({"folds": 1}, "folds >= 2, got 1"),
        ({"folds": -3}, "folds >= 2, got -3"),
        ({"top_m": 0}, "top_m must be >= 1, got 0"),
        ({"knn_k": 0}, "knn_k must be >= 1, got 0"),
        ({"knn_k": -1}, "knn_k must be >= 1, got -1"),
        ({"knn_k": 2}, "knn_k must be odd, got 2"),
    ])
    def test_bad_cv_settings_refused_before_folds(self, monkeypatch, kwargs,
                                                  message):
        import sparsesdr.evaluation as ev
        x, y, _ = self.cv_instance()

        def no_folds(*args, **kwargs):
            raise AssertionError("folds built for refused settings")

        monkeypatch.setattr(ev, "stratified_folds", no_folds)
        kwargs = {"folds": 4, **kwargs}
        with pytest.raises(ValidationError, match=message):
            cross_validate(x, y, method="pvalue_rank", seed=0, **kwargs)

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
