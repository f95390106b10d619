"""Tests for the from-scratch random forest."""

import numpy as np
import pytest

from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import accuracy_score
from repro.ml.random_forest import RandomForestClassifier
from repro.signal.features import feature_vector


def noisy_blobs(n_per_class=80, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0, 0], [2, 2, 0], [0, 2, 2]], dtype=float)
    X = np.concatenate([rng.normal(c, 1.0, size=(n_per_class, 3)) for c in centers])
    y = np.concatenate([np.full(n_per_class, i) for i in range(3)])
    return X, y


class TestForest:
    def test_paper_sized_forest_learns(self):
        X, y = noisy_blobs(seed=1)
        forest = RandomForestClassifier(n_estimators=8, max_depth=5, random_state=0).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > 0.8

    def test_forest_beats_single_tree_on_held_out_data(self):
        X, y = noisy_blobs(seed=2)
        X_test, y_test = noisy_blobs(seed=3)
        single = RandomForestClassifier(n_estimators=1, max_depth=4, random_state=0).fit(X, y)
        forest = RandomForestClassifier(n_estimators=15, max_depth=4, random_state=0).fit(X, y)
        acc_single = accuracy_score(y_test, single.predict(X_test))
        acc_forest = accuracy_score(y_test, forest.predict(X_test))
        assert acc_forest >= acc_single - 0.02

    def test_probabilities_normalized(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        proba = forest.predict_proba(X[:7])
        assert proba.shape == (7, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_deterministic_with_seed(self):
        X, y = noisy_blobs()
        p1 = RandomForestClassifier(n_estimators=4, random_state=7).fit(X, y).predict(X)
        p2 = RandomForestClassifier(n_estimators=4, random_state=7).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_max_tree_depth_respected(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=6, max_depth=3, random_state=0).fit(X, y)
        assert forest.max_tree_depth() <= 3

    def test_total_nodes_counts_all_trees(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=4, max_depth=2, random_state=0).fit(X, y)
        assert forest.total_nodes() >= 4  # at least one node per tree

    def test_without_bootstrap(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=3, bootstrap=False, random_state=0).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > 0.7


def per_row_walk(tree: DecisionTreeClassifier, X: np.ndarray) -> np.ndarray:
    """The per-row node walk the lockstep traversal replaced, as an oracle."""
    out = np.empty((X.shape[0], tree.n_classes_))
    for i, row in enumerate(X):
        node = 0
        while tree.left_[node] != node:
            if row[tree.feature_[node]] <= tree.threshold_[node]:
                node = tree.left_[node]
            else:
                node = tree.right_[node]
        out[i] = tree.value_[node]
    return out


def per_tree_average(forest: RandomForestClassifier, X: np.ndarray) -> np.ndarray:
    probs = np.zeros((X.shape[0], forest.n_classes_))
    for tree in forest.estimators_:
        probs += per_row_walk(tree, X)
    return probs / len(forest.estimators_)


class TestLockstepTraversal:
    @pytest.fixture(scope="class")
    def detector_forest(self, small_dataset):
        """The paper's forest on real detector features (nine classes)."""
        corpus = small_dataset.concatenated()
        X = feature_vector(corpus.accel_windows)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        forest = RandomForestClassifier(n_estimators=8, max_depth=5, random_state=0)
        return forest.fit(X, corpus.activity, n_classes=9), X

    @pytest.mark.parametrize("n", [0, 1, 3, 537])
    def test_bit_identical_to_per_row_walk(self, detector_forest, n):
        forest, X = detector_forest
        expected = per_tree_average(forest, X[:n])
        assert forest.predict_proba(X[:n]).tobytes() == expected.tobytes()
        for tree in forest.estimators_:
            assert tree.predict_proba(X[:n]).tobytes() == per_row_walk(tree, X[:n]).tobytes()

    def test_non_finite_features_follow_the_walk_rule(self, detector_forest):
        forest, X = detector_forest
        X = X[:40].copy()
        X[::3, 0] = np.nan
        X[1::5, 2] = np.inf
        X[2::7, 1] = -np.inf
        assert forest.predict_proba(X).tobytes() == per_tree_average(forest, X).tobytes()

    def test_values_on_a_threshold_go_left(self, detector_forest):
        forest, X = detector_forest
        ties = np.concatenate([
            tree.threshold_[tree.left_ != np.arange(tree.node_count())]
            for tree in forest.estimators_
        ])
        X = np.repeat(ties[:, None], X.shape[1], axis=1)
        assert forest.predict_proba(X).tobytes() == per_tree_average(forest, X).tobytes()

    def test_node_tables_are_consistent(self, detector_forest):
        forest, _ = detector_forest
        for tree in forest.estimators_:
            n = tree.node_count()
            leaf = tree.left_ == np.arange(n)
            assert np.array_equal(leaf, tree.right_ == np.arange(n))
            assert np.allclose(tree.value_[leaf].sum(axis=1), 1.0)
            assert np.all(tree.value_[~leaf] == 0.0)
            # Preorder: children come after their parent.
            internal = np.flatnonzero(~leaf)
            assert np.all(tree.left_[internal] > internal)
            assert np.all(tree.right_[internal] > tree.left_[internal])
        assert forest.max_tree_depth() <= 5


class TestValidation:
    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((2, 2)))

    def test_fit_shape_validation(self):
        forest = RandomForestClassifier()
        with pytest.raises(ValueError):
            forest.fit(np.zeros(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            forest.fit(np.zeros((5, 2)), np.zeros(6, dtype=int))
        with pytest.raises(ValueError):
            forest.fit(np.zeros((0, 2)), np.zeros(0, dtype=int))
