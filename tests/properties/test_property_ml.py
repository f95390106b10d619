"""Property-based tests for the classical-ML substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import accuracy_score, confusion_matrix, mean_absolute_error
from repro.ml.random_forest import RandomForestClassifier
from tests.ml.test_random_forest import per_tree_average

feature_matrix = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(min_value=5, max_value=60), st.integers(min_value=1, max_value=5)),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestTreeProperties:
    @given(feature_matrix, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_predictions_are_known_classes_and_depth_bounded(self, X, max_depth, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=X.shape[0])
        tree = DecisionTreeClassifier(max_depth=max_depth, random_state=seed).fit(X, y)
        predictions = tree.predict(X)
        assert set(np.unique(predictions)) <= set(np.unique(y))
        assert tree.depth() <= max_depth
        proba = tree.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0)

    @given(feature_matrix)
    @settings(max_examples=30, deadline=None)
    def test_constant_labels_always_predicted(self, X):
        y = np.full(X.shape[0], 1)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y, n_classes=3)
        assert np.all(tree.predict(X) == 1)

    @given(feature_matrix, st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_unbounded_tree_fits_consistent_training_data(self, X, seed):
        """With no depth limit, a tree achieves perfect accuracy whenever no
        two identical feature rows carry different labels."""
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=X.shape[0])
        _, inverse = np.unique(X, axis=0, return_inverse=True)
        consistent = all(
            np.unique(y[inverse == group]).size == 1 for group in np.unique(inverse)
        )
        tree = DecisionTreeClassifier(max_depth=None, random_state=0).fit(X, y)
        if consistent:
            assert accuracy_score(y, tree.predict(X)) == 1.0


class TestForestProperties:
    @given(feature_matrix, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_forest_probabilities_are_distributions(self, X, n_estimators, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, size=X.shape[0])
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=3, random_state=seed
        ).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (X.shape[0], int(y.max()) + 1)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all((proba >= 0) & (proba <= 1))

    @given(feature_matrix, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_lockstep_walk_equals_per_row_walk(self, X, n_estimators, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, size=X.shape[0])
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=4, random_state=seed
        ).fit(X, y)
        expected = per_tree_average(forest, X)
        assert forest.predict_proba(X).tobytes() == expected.tobytes()


class TestMetricProperties:
    labels = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=100)

    @given(labels)
    @settings(max_examples=60, deadline=None)
    def test_accuracy_of_identical_labels_is_one(self, y):
        y = np.asarray(y)
        assert accuracy_score(y, y) == 1.0
        assert mean_absolute_error(y.astype(float), y.astype(float)) == 0.0

    @given(labels, st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_confusion_matrix_total_equals_sample_count(self, y, seed):
        y_true = np.asarray(y)
        rng = np.random.default_rng(seed)
        y_pred = rng.integers(0, 6, size=y_true.size)
        matrix = confusion_matrix(y_true, y_pred, n_classes=6)
        assert matrix.sum() == y_true.size
        # Row sums equal the per-class true counts.
        for cls in range(6):
            assert matrix[cls].sum() == np.sum(y_true == cls)

    @given(
        st.lists(st.floats(min_value=30, max_value=200, allow_nan=False), min_size=1, max_size=50),
        st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_mae_of_constant_shift_is_the_shift(self, y, shift):
        y = np.asarray(y)
        assert mean_absolute_error(y, y + shift) == abs(shift) or np.isclose(
            mean_absolute_error(y, y + shift), abs(shift)
        )
