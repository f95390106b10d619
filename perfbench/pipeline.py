"""The real CHRIS pipeline the benchmark drives, built from public entry points.

Every workload runs the same pipeline: the engine, configuration table and
hardware model of ``CalibratedExperiment.build(seed=0, n_subjects=4,
activity_duration_s=40)``; a synthetic corpus of 8 subjects x 120 s per
activity (4,296 windows of 256 samples) made from the workload seed, with
the random-forest difficulty detector ``make_profiling_data`` fits on it;
and a zoo of the real models (adaptive threshold plus frozen TimePPG-Small
and TimePPG-Big) on the paper's Table III deployments, all at float64.

The module also holds the output check: a run's per-window outputs are
compared field by field, bit for bit, against a reference run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core import CHRISRuntime, Constraint, ModelsZoo, RunResult, ZooEntry
from repro.data.dataset import WindowedDataset
from repro.eval import CalibratedExperiment, make_profiling_data
from repro.hw.profiles import PAPER_DEPLOYMENTS
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.timeppg import (
    TIMEPPG_BIG_CONFIG,
    TIMEPPG_SMALL_CONFIG,
    TimePPGPredictor,
)

#: The paper's "same MAE as TimePPG-Small" operating point.
HIGH_QUALITY = Constraint.max_mae(5.60)
#: The paper's low-energy operating point (~7.2 BPM).
LOW_POWER = Constraint.max_energy_mj(0.30)

CORPUS_SUBJECTS = 8
CORPUS_ACTIVITY_S = 120.0

#: Per-window output columns the check compares bit for bit.
CHECKED_FIELDS = (
    "predicted_hr",
    "model_names",
    "offloaded",
    "watch_compute_j",
    "watch_radio_j",
    "watch_idle_j",
    "phone_compute_j",
    "latency_s",
)


@dataclass
class Pipeline:
    """One fully built pipeline: experiment, corpus, detector, zoo, runtime."""

    experiment: CalibratedExperiment
    corpus: WindowedDataset
    classifier: ActivityClassifier
    zoo: ModelsZoo
    runtime: CHRISRuntime


def real_zoo() -> ModelsZoo:
    """AT plus frozen TimePPG-Small/Big on the paper's deployments."""
    zoo = ModelsZoo()
    predictors = (
        AdaptiveThresholdPredictor(),
        TimePPGPredictor(TIMEPPG_SMALL_CONFIG).freeze(),
        TimePPGPredictor(TIMEPPG_BIG_CONFIG).freeze(),
    )
    for predictor in predictors:
        name = predictor.info.name
        zoo.add(ZooEntry(predictor=predictor, deployment=PAPER_DEPLOYMENTS[name]))
    return zoo


def make_corpus(seed: int, experiment: CalibratedExperiment) -> tuple[WindowedDataset, ActivityClassifier]:
    """The workload corpus and the RF difficulty detector fitted on it."""
    _, corpus, classifier = make_profiling_data(
        experiment.zoo,
        n_subjects=CORPUS_SUBJECTS,
        activity_duration_s=CORPUS_ACTIVITY_S,
        seed=seed,
    )
    if classifier is None:
        raise RuntimeError("make_profiling_data returned no fitted classifier")
    return corpus, classifier


def build_pipeline(seed: int) -> Pipeline:
    """Build the whole pipeline; only the corpus depends on ``seed``."""
    experiment = CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40.0)
    corpus, classifier = make_corpus(seed, experiment)
    zoo = real_zoo()
    runtime = CHRISRuntime(
        zoo=zoo,
        engine=experiment.engine,
        system=experiment.system,
        activity_classifier=classifier,
    )
    return Pipeline(experiment, corpus, classifier, zoo, runtime)


def window_mismatches(result: RunResult, reference: RunResult) -> np.ndarray:
    """Boolean mask of the windows whose checked outputs differ."""
    n = reference.n_windows
    if result.n_windows != n:
        return np.ones(n, dtype=bool)
    bad = np.zeros(n, dtype=bool)
    for name in CHECKED_FIELDS:
        got, want = getattr(result, name), getattr(reference, name)
        same = got == want
        if want.dtype.kind == "f":
            same |= np.isnan(got) & np.isnan(want)
        bad |= ~same
    return bad


def count_failed(
    results: Mapping[str, RunResult], reference: Mapping[str, RunResult]
) -> tuple[int, int]:
    """``(attempted, failed)`` windows of a run against its reference.

    A subject missing from ``results`` (raised or quarantined) fails all
    of its windows.
    """
    attempted = failed = 0
    for subject_id, want in reference.items():
        attempted += want.n_windows
        got = results.get(subject_id)
        if got is None:
            failed += want.n_windows
        else:
            failed += int(np.count_nonzero(window_mismatches(got, want)))
    return attempted, failed
