"""Tests for the from-scratch ML stack: SVM/SMO, tree, k-NN, CV, metrics."""

import warnings

import numpy as np
import pytest

from repro.ml import (
    SVC,
    DecisionTreeClassifier,
    GridSearch,
    KNeighborsClassifier,
    StandardScaler,
    accuracy,
    class_accuracies,
    cross_val_fscore,
    fscore_eq1,
    linear_kernel,
    paper_grid,
    rbf_kernel,
    squared_distances,
    stratified_kfold,
)


def blobs(n_per_class=40, separation=4.0, seed=0, imbalance=None):
    """Two Gaussian blobs in 2-D; imbalance shrinks class 1."""
    rng = np.random.RandomState(seed)
    n1 = n_per_class if imbalance is None else max(int(n_per_class * imbalance), 4)
    x0 = rng.randn(n_per_class, 2)
    x1 = rng.randn(n1, 2) + separation
    X = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, dtype=int), np.ones(n1, dtype=int)])
    return X, y


def xor_data(n=120, seed=1):
    """The XOR pattern — linearly inseparable, needs the RBF kernel."""
    rng = np.random.RandomState(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    X = X + 0.05 * rng.randn(n, 2)
    return X, y


class TestKernels:
    def test_squared_distances(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = squared_distances(X, X)
        assert d[0, 1] == pytest.approx(25.0)
        assert d[0, 0] == 0.0

    def test_rbf_range_and_diagonal(self):
        X = np.random.RandomState(0).randn(10, 3)
        K = rbf_kernel(X, X, gamma=0.5)
        assert np.allclose(np.diag(K), 1.0)
        assert np.all(K > 0) and np.all(K <= 1.0)

    def test_rbf_with_precomputed_distances(self):
        X = np.random.RandomState(0).randn(6, 3)
        d = squared_distances(X, X)
        assert np.allclose(rbf_kernel(X, X, 0.3), rbf_kernel(X, X, 0.3, sq_dists=d))

    def test_linear_kernel(self):
        X = np.array([[1.0, 2.0]])
        Y = np.array([[3.0, 4.0]])
        assert linear_kernel(X, Y)[0, 0] == 11.0


class TestScaler:
    def test_standardizes(self):
        X = np.random.RandomState(0).randn(50, 4) * [1, 10, 100, 1000] + [5, 0, -3, 9]
        Xs = StandardScaler().fit_transform(X)
        assert np.allclose(Xs.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Xs.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_handled(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        Xs = StandardScaler().fit_transform(X)
        assert np.allclose(Xs[:, 0], 0.0)

    def test_transform_requires_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))


class TestSVC:
    def test_separable_blobs(self):
        X, y = blobs()
        model = SVC(C=10.0, gamma=0.5).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.97

    def test_xor_needs_rbf(self):
        X, y = xor_data()
        model = SVC(C=10.0, gamma=2.0).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.9

    def test_decision_function_sign_matches_predict(self):
        X, y = blobs(seed=3)
        model = SVC(C=1.0, gamma=0.5).fit(X, y)
        df = model.decision_function(X)
        assert np.array_equal((df > 0).astype(int), model.predict(X))

    def test_class_imbalance_with_balancing(self):
        X, y = blobs(n_per_class=100, separation=2.5, imbalance=0.08, seed=5)
        model = SVC(C=10.0, gamma=0.5, class_weight="balanced").fit(X, y)
        acc = class_accuracies(y, model.predict(X))
        # The rare class must not be sacrificed.
        assert acc[1] > 0.7
        assert acc[0] > 0.7

    def test_constant_labels_degenerate_fit(self):
        X = np.random.RandomState(0).randn(10, 2)
        model = SVC().fit(X, np.zeros(10, dtype=int))
        assert np.all(model.predict(X) == 0)

    def test_bad_labels_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            SVC().fit(X, np.array([0, 1, 2, 1]))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            SVC(C=0.0)
        with pytest.raises(ValueError):
            SVC(gamma=-1.0)

    def test_deterministic(self):
        X, y = blobs(seed=7)
        p1 = SVC(C=5.0, gamma=0.3).fit(X, y).predict(X)
        p2 = SVC(C=5.0, gamma=0.3).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_precomputed_distances_equivalent(self):
        X, y = blobs(seed=9)
        d = squared_distances(X, X)
        p1 = SVC(C=2.0, gamma=0.4).fit(X, y).predict(X)
        p2 = SVC(C=2.0, gamma=0.4).fit(X, y, sq_dists=d).predict(X)
        assert np.array_equal(p1, p2)

    def test_support_vectors_subset(self):
        X, y = blobs()
        model = SVC(C=10.0, gamma=0.5).fit(X, y)
        assert 0 < model.n_support_ <= len(X)


class TestTreeAndKnn:
    def test_tree_separable(self):
        X, y = blobs()
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    def test_tree_xor(self):
        X, y = xor_data()
        model = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.85

    def test_tree_depth_limits_complexity(self):
        X, y = xor_data()
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=8).fit(X, y)
        assert accuracy(y, deep.predict(X)) > accuracy(y, stump.predict(X))

    def test_knn(self):
        X, y = blobs()
        model = KNeighborsClassifier(k=3).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    def test_knn_k_validation(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=0)


class TestMetrics:
    def test_fscore_eq1_perfect(self):
        y = np.array([0, 0, 1, 1])
        assert fscore_eq1(y, y) == 1.0

    def test_fscore_eq1_one_class_ignored(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 0, 0])  # class 1 fully missed
        assert fscore_eq1(y_true, y_pred) == 0.0

    def test_fscore_eq1_harmonic_mean(self):
        y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 1, 0, 0, 1, 1])  # acc1=1.0, acc2=0.5
        assert fscore_eq1(y_true, y_pred) == pytest.approx(2 * 1.0 * 0.5 / 1.5)

    def test_class_accuracies(self):
        y_true = np.array([1, 1, 0, 0])
        y_pred = np.array([1, 0, 0, 0])
        acc = class_accuracies(y_true, y_pred)
        assert acc[1] == 0.5 and acc[0] == 1.0


class TestCrossValidation:
    def test_stratified_folds_cover_all_indices(self):
        y = np.array([0] * 20 + [1] * 5)
        folds = stratified_kfold(y, k=5, seed=0)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test) == list(range(25))

    def test_stratified_folds_keep_rare_class(self):
        y = np.array([0] * 20 + [1] * 5)
        for _, test in stratified_kfold(y, k=5, seed=0):
            assert np.any(y[test] == 1)

    def test_cross_val_fscore_reasonable(self):
        X, y = blobs(n_per_class=30)
        score = cross_val_fscore(lambda: SVC(C=10.0, gamma=0.5), X, y, k=5)
        assert score > 0.9

    def test_paper_grid_shape(self):
        grid = paper_grid(500)
        assert len(grid) == 500
        cs = {c for c, _ in grid}
        gammas = {g for _, g in grid}
        assert min(cs) == pytest.approx(1.0)
        assert max(cs) == pytest.approx(100000.0)
        assert min(gammas) == pytest.approx(1e-5)
        assert max(gammas) == pytest.approx(1.0)

    def test_grid_search_ranks_by_fscore(self):
        X, y = blobs(n_per_class=25, seed=2)
        gs = GridSearch(grid=paper_grid(12), k=3)
        configs = gs.search(X, y)
        assert len(configs) == 12
        scores = [c.fscore for c in configs]
        assert scores == sorted(scores, reverse=True)

    def test_grid_search_records_capped_fits(self):
        X, y = blobs(n_per_class=25, seed=2)
        gs = GridSearch(grid=[(1e5, 1.0), (1.0, 0.1)], k=3, cv_max_iter=30)
        with pytest.warns(RuntimeWarning, match="3 of 6 cross-validation fits stopped"):
            gs.search(X, y)
        assert (gs.fits, gs.capped_fits) == (6, 3)

    def test_grid_search_converged_does_not_warn(self):
        X, y = blobs(n_per_class=25, seed=2)
        gs = GridSearch(grid=paper_grid(4), k=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gs.search(X, y)
        assert (gs.fits, gs.capped_fits) == (12, 0)

    def test_top_configs(self):
        X, y = blobs(n_per_class=25, seed=2)
        top = GridSearch(grid=paper_grid(12), k=3).top_configs(X, y, n=5)
        assert len(top) == 5
        assert top[0].fscore >= top[-1].fscore
