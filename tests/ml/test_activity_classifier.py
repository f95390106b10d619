"""Tests for the CHRIS activity recognizer (difficulty detector)."""

import hashlib
import warnings

import numpy as np
import pytest

from repro.data.activities import Activity, difficulty_of
from repro.ml.activity_classifier import DEFAULT_RF_PARAMS, ActivityClassifier

#: sha256 of ``predict_difficulty`` (as int64) over the ``profiling_corpus``
#: fixture, recorded with the per-window feature loop and per-row tree
#: walk; any refit or traversal change that flips a decision changes it.
GOLDEN_DIFFICULTY_SHA256 = "1250e4f53cb565752f9b76539bd74840923598065647420b3e3be2b2ab44d58d"


class TestConfiguration:
    def test_paper_hyperparameters(self):
        # 8 trees, maximum depth 5 (paper Sec. III-C).
        assert DEFAULT_RF_PARAMS == {"n_estimators": 8, "max_depth": 5}
        classifier = ActivityClassifier()
        assert classifier.n_estimators == 8
        assert classifier.max_depth == 5

    def test_feature_extraction_shape(self, small_dataset):
        subject = small_dataset.subjects[0]
        classifier = ActivityClassifier()
        features = classifier.extract_features(subject.accel_windows)
        assert features.shape == (subject.n_windows, 4)
        extended = ActivityClassifier(extended_features=True).extract_features(
            subject.accel_windows
        )
        assert extended.shape == (subject.n_windows, 9)


class TestTrainingAndAccuracy:
    def test_fit_predict_shapes(self, trained_activity_classifier, small_dataset):
        subject = small_dataset.subjects[1]
        activities = trained_activity_classifier.predict_activity(subject.accel_windows)
        difficulties = trained_activity_classifier.predict_difficulty(subject.accel_windows)
        assert activities.shape == (subject.n_windows,)
        assert difficulties.shape == (subject.n_windows,)
        assert np.all((difficulties >= 1) & (difficulties <= 9))

    def test_difficulty_consistent_with_activity(self, trained_activity_classifier, small_dataset):
        subject = small_dataset.subjects[1]
        activities = trained_activity_classifier.predict_activity(subject.accel_windows)
        difficulties = trained_activity_classifier.predict_difficulty(subject.accel_windows)
        expected = np.array([difficulty_of(Activity(a)) for a in activities])
        assert np.array_equal(difficulties, expected)

    def test_easy_vs_hard_accuracy_above_90_percent(self, trained_activity_classifier, small_dataset):
        """The paper's claim: >90 % accuracy at discerning easy from hard windows."""
        subject = small_dataset.subjects[1]  # unseen subject
        metrics = trained_activity_classifier.evaluate(subject.accel_windows, subject.activity)
        assert metrics["activity_accuracy"] > 0.6
        for threshold, accuracy in metrics["easy_vs_hard_accuracy"].items():
            assert accuracy > 0.85, f"threshold {threshold}: {accuracy:.3f}"
        mid_thresholds = [metrics["easy_vs_hard_accuracy"][t] for t in (3, 4, 5, 6)]
        assert min(mid_thresholds) > 0.9

    def test_label_count_mismatch_rejected(self, small_dataset):
        subject = small_dataset.subjects[0]
        classifier = ActivityClassifier()
        with pytest.raises(ValueError):
            classifier.fit(subject.accel_windows, subject.activity[:-1])

    def test_predict_before_fit(self, small_dataset):
        subject = small_dataset.subjects[0]
        with pytest.raises(RuntimeError):
            ActivityClassifier().predict_activity(subject.accel_windows)


class TestBatchedDetector:
    def test_golden_difficulty_hash(self, profiling_corpus):
        windows, classifier = profiling_corpus
        difficulty = np.ascontiguousarray(classifier.predict_difficulty(windows), dtype=np.int64)
        assert hashlib.sha256(difficulty.tobytes()).hexdigest() == GOLDEN_DIFFICULTY_SHA256

    def test_empty_batch(self, trained_activity_classifier):
        difficulty = trained_activity_classifier.predict_difficulty(np.zeros((0, 256, 3)))
        assert difficulty.shape == (0,)
        assert np.issubdtype(difficulty.dtype, np.integer)

    def test_non_finite_windows_get_the_hardest_difficulty(
        self, trained_activity_classifier, small_dataset
    ):
        windows = small_dataset.subjects[1].accel_windows[:12].copy()
        clean = trained_activity_classifier.predict_difficulty(windows)
        windows[2, 7, 0] = np.inf
        windows[5] = np.nan
        windows[9, 0, 2] = -np.inf
        bad = np.zeros(len(windows), dtype=bool)
        bad[[2, 5, 9]] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            difficulty = trained_activity_classifier.predict_difficulty(windows)
            all_bad = trained_activity_classifier.predict_difficulty(windows[bad])
        assert np.all(difficulty[bad] == 9)
        assert np.array_equal(difficulty[~bad], clean[~bad])
        assert np.all(all_bad == 9)

    def test_nan_features_never_reach_the_forest(self, trained_activity_classifier, monkeypatch):
        seen = []
        forest = trained_activity_classifier._forest
        original = type(forest).predict

        def spy(self, X):
            seen.append(np.asarray(X).copy())
            return original(self, X)

        monkeypatch.setattr(type(forest), "predict", spy)
        windows = np.random.default_rng(0).normal(size=(4, 256, 3))
        windows[1, 3, 1] = np.nan
        trained_activity_classifier.predict_difficulty(windows)
        assert len(seen) == 1 and seen[0].shape == (3, 4)
        assert np.isfinite(seen[0]).all()
