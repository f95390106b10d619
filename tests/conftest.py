"""Shared fixtures for the test suite.

Expensive objects (synthetic corpora, trained classifiers, the profiled
configuration table) are built once per session and shared; tests that
need to mutate state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticDaliaGenerator, SyntheticDatasetConfig, WindowedDataset
from repro.eval import CalibratedExperiment
from repro.eval.experiment import build_calibrated_zoo, make_profiling_data
from repro.ml import ActivityClassifier


@pytest.fixture(scope="session")
def small_dataset() -> WindowedDataset:
    """A small (4-subject, 45 s/activity) synthetic windowed corpus."""
    config = SyntheticDatasetConfig(n_subjects=4, activity_duration_s=45.0, seed=11)
    return SyntheticDaliaGenerator(config).generate_windowed()


@pytest.fixture(scope="session")
def clean_dataset() -> WindowedDataset:
    """An artifact-free corpus (motion artifacts disabled)."""
    config = SyntheticDatasetConfig(
        n_subjects=2, activity_duration_s=45.0, seed=5, artifact_scale=0.0
    )
    return SyntheticDaliaGenerator(config).generate_windowed()


@pytest.fixture(scope="session")
def trained_activity_classifier(small_dataset) -> ActivityClassifier:
    """An activity recognizer trained on the first subject of the corpus."""
    subject = small_dataset.subjects[0]
    classifier = ActivityClassifier(random_state=0)
    classifier.fit(subject.accel_windows, subject.activity)
    return classifier


@pytest.fixture(scope="session")
def profiling_corpus() -> tuple[np.ndarray, ActivityClassifier]:
    """A ``make_profiling_data`` corpus: every accel window and its fitted detector."""
    _, dataset, classifier = make_profiling_data(
        build_calibrated_zoo(), n_subjects=4, activity_duration_s=30.0, seed=3
    )
    return WindowedDataset(list(dataset.subjects)).concatenated().accel_windows, classifier


@pytest.fixture(scope="session")
def calibrated_experiment() -> CalibratedExperiment:
    """The default calibrated-mode experiment (RF difficulty detector)."""
    return CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40.0)


@pytest.fixture(scope="session")
def oracle_experiment() -> CalibratedExperiment:
    """Calibrated experiment with an oracle difficulty detector."""
    return CalibratedExperiment.build(
        seed=1, n_subjects=6, activity_duration_s=60.0, use_oracle_difficulty=True
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic random generator for a test."""
    return np.random.default_rng(1234)
