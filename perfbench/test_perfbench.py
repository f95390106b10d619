"""Tests of the benchmark itself: determinism, the output check, lateness.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import gc
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.data.dataset import WindowedDataset
from repro.eval import CalibratedExperiment

import workloads
from hostspeed import REFERENCE_KERNEL_S, HostSpeed
from loadgen import OpenLoopGenerator, lateness_ms, poisson_schedule
from pipeline import build_pipeline, count_failed, make_corpus
from spans import Tracer


@pytest.fixture(scope="module")
def small_pipeline():
    """The real pipeline with its corpus cut to two 40-window subjects."""
    pipeline = build_pipeline(seed=3)
    subjects = [
        replace(
            s,
            ppg_windows=s.ppg_windows[:40],
            accel_windows=s.accel_windows[:40],
            activity=s.activity[:40],
            hr=s.hr[:40],
        )
        for s in pipeline.corpus.subjects[:2]
    ]
    return replace(pipeline, corpus=WindowedDataset(subjects))


def test_same_seed_same_corpus():
    experiment = CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40.0)
    first, _ = make_corpus(5, experiment)
    second, _ = make_corpus(5, experiment)
    other, _ = make_corpus(6, experiment)
    assert first.n_windows == 4296
    for a, b in zip(first.subjects, second.subjects):
        np.testing.assert_array_equal(a.ppg_windows, b.ppg_windows)
        np.testing.assert_array_equal(a.accel_windows, b.accel_windows)
        np.testing.assert_array_equal(a.activity, b.activity)
    assert not np.array_equal(first.subjects[0].ppg_windows, other.subjects[0].ppg_windows)


def test_same_seed_same_arrival_schedule():
    def schedules(seed):
        rng = workloads.arrival_rng(seed)
        return [poisson_schedule(rng, 50, rate, 3.0) for rate in (0.5, 2.0)]

    assert schedules(7) == schedules(7)
    assert schedules(7) != schedules(8)
    nominal = schedules(7)[0]
    assert all(0 <= t < 3.0 for t, _ in nominal)
    assert [t for t, _ in nominal] == sorted(t for t, _ in nominal)
    # 50 wearers at 0.5 Hz for 3 s: ~75 arrivals.
    assert 40 < len(nominal) < 120


def test_planted_mismatch_is_counted(small_pipeline, tmp_path):
    clean = workloads.ReplayHQ(str(tmp_path))
    reference = clean.reference(small_pipeline)
    clean.measure(small_pipeline, reference, 0.01, None)
    assert (clean.attempted, clean.failed) == (80, 0)

    planted = copy.deepcopy(reference)
    first = next(iter(planted))
    planted[first].predicted_hr[3] += 1.0
    planted[first].offloaded[7] = not planted[first].offloaded[7]
    workload = workloads.ReplayHQ(str(tmp_path))
    workload.measure(small_pipeline, planted, 0.01, None)
    measured = workload.summary(small_pipeline, None)
    assert (measured.attempted, measured.failed) == (80, 2)

    results = dict(reference)
    del results[first]
    assert count_failed(results, reference) == (80, 40)


def test_traced_durable_pass_matches_oracle(small_pipeline, tmp_path):
    workload = workloads.DurableLowPower(str(tmp_path))
    reference = workload.reference(small_pipeline)
    tracer = Tracer()
    workload.measure(small_pipeline, reference, 0.01, tracer)
    measured = workload.summary(small_pipeline, tracer)
    assert measured.failed == 0
    assert measured.layers["checkpoint.writes"] > 0
    assert measured.layers["fleet.retries"] == 0
    assert measured.layers["features.windows"] == 80


def test_host_speed_scales_to_reference():
    ref = REFERENCE_KERNEL_S
    assert HostSpeed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # Work timed while the kernel ran twice as slow takes half as long at
    # reference speed.
    assert HostSpeed.scaled(2.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.0)
    host = HostSpeed()
    sample = host.sample()
    assert host.samples == [sample] and sample > 0


def test_generator_lateness_is_reported():
    def slow_send(wearer):
        time.sleep(0.01)
        return wearer

    schedule = [(i * 0.001, i % 3) for i in range(20)]
    generator = OpenLoopGenerator(schedule, slow_send, time.monotonic())
    generator.start()
    sent = generator.result(timeout=30)
    assert [s.handle for s in sent] == [w for _, w in schedule]
    late = lateness_ms(sent)
    # Each send takes 10 ms while arrivals are 1 ms apart: the last
    # window goes out ~170 ms after it was due.
    assert late["late_max_ms"] > 100
    assert late["late_p99_ms"] > 100


def test_serve_check_and_lateness(small_pipeline, monkeypatch):
    monkeypatch.setattr(workloads, "N_WEARERS", 6)
    monkeypatch.setattr(workloads, "build_pipeline", lambda seed: small_pipeline)
    workload = workloads.ServeStream("")
    state = workload.setup(seed=4)
    try:
        phases = list(workload.run_phases(state, 6.0))
        attempted, failed = workload.check(state, phases)
        assert attempted == sum(len(p.sent) for p in phases) > 0
        assert failed == 0
        late = lateness_ms(phases[0].sent)
        assert late["late_max_ms"] >= late["late_p99_ms"] >= 0

        # One wrong estimate planted in the last delivered window.
        _, session = state.pushed[-1]
        session.result.predicted_hr[-1] += 1.0
        assert workload.check(state, phases) == (attempted, 1)
    finally:
        workload.close(state)


def test_serve_segment_keeps_no_session(small_pipeline, monkeypatch):
    monkeypatch.setattr(workloads, "N_WEARERS", 6)
    monkeypatch.setattr(workloads, "build_pipeline", lambda seed: small_pipeline)
    workload = workloads.ServeStream("")
    state = workload.setup(seed=4)
    try:
        workload.measure(state, None, 3.0, None)
    finally:
        workload.close(state)
    scheduler = weakref.ref(state.scheduler)
    del state
    gc.collect()
    # A finished segment's scheduler, sessions and their windows are freed
    # before the next set-up, so they do not count in the next peak RSS.
    assert scheduler() is None
    measured = workload.summary(None, None)
    assert measured.failed == 0
    assert measured.record["nominal_windows"] == len(workload.nominal) > 0
