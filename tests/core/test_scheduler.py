"""Unit tests for the dynamic-session fleet scheduler.

Bit-equivalence with sequential replay across randomized scenarios is
pinned by :mod:`tests.core.test_fleet_properties`; these tests cover the
scheduler's online lifecycle: streaming completion, dynamic arrival and
departure, retirement, pause/resume, failure reporting, validation, and
the :meth:`~repro.eval.experiment.CalibratedExperiment.run_fleet`
wiring.
"""

import copy
import threading
import time

import numpy as np
import pytest

from repro.core import faults
from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime
from repro.core.scheduler import FleetScheduler, SessionState, VirtualClock
from repro.eval.benchmarking import stateful_zoo
from repro.data.dataset import WindowedSubject
from repro.hw.platform import CostTableRegistry, WearableSystem
from repro.signal.windowing import DEFAULT_WINDOW_SPEC

from tests.core.test_runtime_batched import assert_results_identical

CONSTRAINT = Constraint.max_mae(6.0)


def make_runtime(experiment) -> CHRISRuntime:
    return CHRISRuntime(
        zoo=copy.deepcopy(experiment.zoo),
        engine=experiment.engine,
        system=experiment.system,
    )


def make_scheduler(experiment, **kwargs) -> FleetScheduler:
    kwargs.setdefault("use_oracle_difficulty", True)
    return FleetScheduler(make_runtime(experiment), CONSTRAINT, **kwargs)


def make_subject(subject_id: str, n_windows: int = 40, seed: int = 0) -> WindowedSubject:
    rng = np.random.default_rng(seed)
    return WindowedSubject(
        subject_id=subject_id,
        ppg_windows=rng.standard_normal((n_windows, 16)),
        accel_windows=rng.standard_normal((n_windows, 16, 3)),
        activity=rng.integers(0, 9, size=n_windows),
        hr=70.0 + 30.0 * rng.random(n_windows),
        spec=DEFAULT_WINDOW_SPEC,
    )


class TestLifecycle:
    def test_sessions_stream_as_completed(self, calibrated_experiment):
        subjects = [make_subject(f"s{i}", seed=i) for i in range(5)]
        with make_scheduler(calibrated_experiment) as scheduler:
            sessions = [scheduler.submit(s.subject_id, s) for s in subjects]
            seen = []
            for session in scheduler.as_completed():
                assert session.state is SessionState.DONE
                assert session.result.n_windows == session.recording.n_windows
                seen.append(session.subject_id)
        assert sorted(seen) == sorted(s.subject_id for s in subjects)
        assert all(s.done for s in sessions)

    def test_arrivals_during_consumption_extend_the_stream(self, calibrated_experiment):
        """Sessions submitted while iterating still stream — no fixed list."""
        with make_scheduler(calibrated_experiment) as scheduler:
            scheduler.submit("first", make_subject("first", seed=1))
            seen = []
            submitted_late = False
            for session in scheduler.as_completed():
                seen.append(session.subject_id)
                if not submitted_late:
                    submitted_late = True
                    scheduler.submit("second", make_subject("second", seed=2))
        assert seen == ["first", "second"]

    def test_subject_id_can_be_resubmitted_after_completion(self, calibrated_experiment):
        subject = make_subject("repeat", seed=3)
        with make_scheduler(calibrated_experiment) as scheduler:
            first = scheduler.submit("repeat", subject)
            scheduler.join()
            second = scheduler.submit("repeat", subject)
            scheduler.join()
        assert first.state is second.state is SessionState.DONE
        # The predictor streams advanced between the runs (online
        # semantics), so the second replay is a later stream position.
        assert first.result.n_windows == second.result.n_windows

    def test_live_duplicate_subject_id_rejected(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.pause()
        try:
            scheduler.submit("dup", make_subject("dup"))
            with pytest.raises(ValueError, match="already live"):
                scheduler.submit("dup", make_subject("dup"))
        finally:
            scheduler.close()

    def test_submit_after_close_rejected(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit("late", make_subject("late"))

    def test_close_is_idempotent_and_joins(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        session = scheduler.submit("only", make_subject("only"))
        scheduler.close()
        scheduler.close()
        assert session.state is SessionState.DONE


class TestRetireAndPause:
    def test_retire_queued_session_never_runs(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.pause()  # deterministic: nothing dispatches while paused
        try:
            keep = scheduler.submit("keep", make_subject("keep", seed=4))
            drop = scheduler.submit("drop", make_subject("drop", seed=5))
            assert scheduler.retire(drop) is True
            assert drop.state is SessionState.RETIRED
            scheduler.resume()
            scheduler.join()
        finally:
            scheduler.close()
        assert keep.state is SessionState.DONE
        assert drop.result is None
        # A retired session consumes no predictor stream: replaying only
        # the kept subject sequentially reproduces the kept result.
        reference = make_runtime(calibrated_experiment).run_many(
            [keep.recording], CONSTRAINT, use_oracle_difficulty=True, batched=False
        )
        assert_results_identical(reference.results["keep"], keep.result)

    def test_retire_completed_session_returns_false(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            session = scheduler.submit("done", make_subject("done"))
            scheduler.join()
            assert scheduler.retire(session) is False
            assert session.state is SessionState.DONE

    def test_retired_id_is_immediately_reusable(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.pause()
        try:
            first = scheduler.submit("reuse", make_subject("reuse", seed=6))
            assert scheduler.retire(first)
            second = scheduler.submit("reuse", make_subject("reuse", seed=7))
            scheduler.resume()
            scheduler.join()
            assert second.state is SessionState.DONE
        finally:
            scheduler.close()

    def test_pause_holds_dispatch_until_resume(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        try:
            scheduler.pause()
            session = scheduler.submit("held", make_subject("held"))
            assert scheduler.next_done(timeout=0.2) is None
            assert session.state is SessionState.QUEUED
            scheduler.resume()
            scheduler.join()
            assert session.state is SessionState.DONE
        finally:
            scheduler.close()


class TestValidationAndFailure:
    def test_constructor_validation(self, calibrated_experiment):
        runtime = make_runtime(calibrated_experiment)
        with pytest.raises(ValueError):
            FleetScheduler(runtime, CONSTRAINT, max_workers=0)
        with pytest.raises(ValueError, match="in process"):
            FleetScheduler(runtime, CONSTRAINT, max_workers=2)
        with pytest.raises(ValueError):
            FleetScheduler(runtime, CONSTRAINT, max_batch_size=0)

    def test_trace_shape_validated_at_submit(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            with pytest.raises(ValueError, match="one entry per window"):
                scheduler.submit(
                    "traced",
                    make_subject("traced", n_windows=20),
                    connected_trace=np.ones(7, dtype=bool),
                )

    def test_empty_recording_rejected_at_submit(self, calibrated_experiment):
        """Per-session input problems surface at submit, where they cannot
        poison a batch of unrelated queued sessions."""
        empty = WindowedSubject(
            subject_id="empty",
            ppg_windows=np.empty((0, 16)),
            accel_windows=np.empty((0, 16, 3)),
            activity=np.empty(0, dtype=int),
            hr=np.empty(0),
            spec=DEFAULT_WINDOW_SPEC,
        )
        with make_scheduler(calibrated_experiment) as scheduler:
            with pytest.raises(ValueError, match="no windows"):
                scheduler.submit("empty", empty)

    @staticmethod
    def _break_predictor(scheduler) -> None:
        """Break prediction *persistently*: the stream zoo AND the pristine
        snapshot retries rebuild from, so every attempt fails."""

        def boom(*args, **kwargs):
            raise RuntimeError("model service down")

        for zoo in (scheduler._runtime.zoo, scheduler._pristine_zoo):
            for entry in zoo:
                entry.predictor.predict = boom

    def test_failed_session_reports_the_error(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment, retry_backoff_s=0.0)
        self._break_predictor(scheduler)
        with scheduler:
            session = scheduler.submit("broken", make_subject("broken"))
            scheduler.join()
        assert session.state is SessionState.FAILED
        assert isinstance(session.error, RuntimeError)
        assert session.result is None

    def test_execution_failure_quarantines_without_poisoning(
        self, calibrated_experiment
    ):
        """A batch that exhausts its retries fails alone: the scheduler
        keeps accepting and completing later sessions (degrade, don't
        die), and — as-if-planned stream accounting — the later session
        replays exactly as it would have after a *successful* first batch
        of the same plan."""
        scheduler = make_scheduler(
            calibrated_experiment, max_retries=1, retry_backoff_s=0.0
        )
        self._break_predictor(scheduler)
        with scheduler:
            failed = scheduler.submit("bad", make_subject("bad", seed=60))
            scheduler.join()
            assert failed.state is SessionState.FAILED
            # Un-break the pristine snapshot: the next batch's serial
            # restore rebuilt the stream zoo from it, so recovery flows
            # through exactly the rebuild path under test.
            for entry in scheduler._pristine_zoo:
                del entry.predictor.predict
            for entry in scheduler._runtime.zoo:
                if "predict" in vars(entry.predictor):
                    del entry.predictor.predict
            recovered = scheduler.submit("good", make_subject("good", seed=61))
            scheduler.join()
        assert recovered.state is SessionState.DONE
        assert recovered.result is not None

    def test_transient_failure_is_retried_to_done(self, calibrated_experiment):
        """A batch that fails once and then succeeds resolves DONE with
        results bit-identical to an undisturbed run — the retry rebuilds
        the batch's exact planned start position."""
        import tempfile

        subject = make_subject("flaky", seed=42)
        reference = make_runtime(calibrated_experiment).run_many(
            [subject], CONSTRAINT, use_oracle_difficulty=True, batched=False
        )
        with tempfile.TemporaryDirectory() as fault_dir:
            plan = faults.FaultPlan(fault_dir)
            plan.arm("scheduler.batch", times=1, kind="exception")
            with faults.injected_faults(plan):
                with make_scheduler(
                    calibrated_experiment, retry_backoff_s=0.0
                ) as scheduler:
                    session = scheduler.submit("flaky", subject)
                    scheduler.join()
            assert plan.armed() == 0  # the fault really fired
        assert session.state is SessionState.DONE
        assert_results_identical(reference.results["flaky"], session.result)

    def test_batch_after_quarantined_batch_is_delivered_done(
        self, calibrated_experiment
    ):
        """As-if-planned accounting: a session dispatched after a
        quarantined batch completes DONE, positioned exactly as if the
        failed batch had executed."""
        scheduler = make_scheduler(
            calibrated_experiment, max_batch_size=1, max_retries=0, retry_backoff_s=0.0
        )
        calls = {"n": 0}
        for entry in scheduler._runtime.zoo:
            original = entry.predictor.predict

            def flaky(*args, _original=original, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient model failure")
                return _original(*args, **kwargs)

            entry.predictor.predict = flaky
        scheduler.pause()
        try:
            first = scheduler.submit("first", make_subject("first", seed=40))
            second = scheduler.submit("second", make_subject("second", seed=41))
            scheduler.resume()
            scheduler.join()
        finally:
            scheduler.close()
        assert first.state is SessionState.FAILED
        assert first.result is None
        assert second.state is SessionState.DONE
        assert second.result is not None

    def test_session_id_relabel_backs_one_recording_under_many_ids(
        self, calibrated_experiment
    ):
        """The session id is authoritative: submitting a recording under a
        different id relabels it instead of deadlocking the worker (the
        result used to be keyed by the recording's own id)."""
        recording = make_subject("original", seed=8)
        with make_scheduler(calibrated_experiment) as scheduler:
            alias = scheduler.submit("alias-id", recording)
            original = scheduler.submit("original", recording)
            scheduler.join()
        assert alias.state is SessionState.DONE
        assert original.state is SessionState.DONE
        assert alias.result.n_windows == recording.n_windows
        assert alias.recording.subject_id == "alias-id"
        assert recording.subject_id == "original"  # caller's object untouched


class TestHeterogeneousSessions:
    def test_mixed_revisions_share_one_registry(self, calibrated_experiment):
        registry = CostTableRegistry()
        stock = WearableSystem(cost_registry=registry)
        compressed = WearableSystem(
            cost_registry=registry, offload_payload_bytes=64 * 4 * 2
        )
        subjects = [make_subject(f"h{i}", seed=10 + i) for i in range(4)]
        systems = {"h0": stock, "h1": compressed, "h2": compressed}
        with make_scheduler(calibrated_experiment) as scheduler:
            sessions = [
                scheduler.submit(s.subject_id, s, system=systems.get(s.subject_id))
                for s in subjects
            ]
            scheduler.join()
        assert all(s.state is SessionState.DONE for s in sessions)
        assert registry.n_revisions == 2
        reference = make_runtime(calibrated_experiment).run_many(
            subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            batched=False,
            systems=systems,
        )
        for session in sessions:
            assert_results_identical(reference.results[session.subject_id], session.result)

    def test_compressed_offload_changes_radio_energy_only_for_its_device(
        self, calibrated_experiment
    ):
        """Heterogeneity is real: the rev-B session's offloaded windows cost
        less radio energy than the stock session's, in one scheduler run."""
        subject = make_subject("stock-dev", n_windows=80, seed=21)
        twin = make_subject("rev-b-dev", n_windows=80, seed=21)
        compressed = WearableSystem(
            cost_registry=CostTableRegistry(), offload_payload_bytes=64
        )
        with make_scheduler(calibrated_experiment) as scheduler:
            stock_session = scheduler.submit("stock-dev", subject)
            rev_b_session = scheduler.submit("rev-b-dev", twin, system=compressed)
            scheduler.join()
        stock_radio = stock_session.result.watch_radio_j[stock_session.result.offloaded]
        rev_b_radio = rev_b_session.result.watch_radio_j[rev_b_session.result.offloaded]
        assert stock_radio.size and rev_b_radio.size
        assert rev_b_radio.max() < stock_radio.min()


class TestExperimentWiring:
    def test_run_fleet_via_scheduler_matches_executor_path(
        self, calibrated_experiment, small_dataset
    ):
        executor_fleet = copy.deepcopy(calibrated_experiment).run_fleet(
            small_dataset, CONSTRAINT
        )
        with copy.deepcopy(calibrated_experiment).fleet_scheduler(
            CONSTRAINT
        ) as scheduler:
            scheduled_fleet = calibrated_experiment.run_fleet(
                small_dataset, CONSTRAINT, scheduler=scheduler
            )
        assert scheduled_fleet.subject_ids == executor_fleet.subject_ids
        for sid in executor_fleet.subject_ids:
            assert_results_identical(
                executor_fleet.results[sid], scheduled_fleet.results[sid]
            )

    def test_run_fleet_rejects_mismatched_constraint(
        self, calibrated_experiment, small_dataset
    ):
        with calibrated_experiment.fleet_scheduler(CONSTRAINT) as scheduler:
            with pytest.raises(ValueError, match="constraint"):
                calibrated_experiment.run_fleet(
                    small_dataset, Constraint.max_mae(4.0), scheduler=scheduler
                )

    def test_run_fleet_rejects_decision_affecting_overrides(
        self, calibrated_experiment, small_dataset, trained_activity_classifier
    ):
        """Arguments that would change decisions must not be silently
        ignored on the scheduler path."""
        with calibrated_experiment.fleet_scheduler(CONSTRAINT) as scheduler:
            with pytest.raises(ValueError, match="use_oracle_difficulty"):
                calibrated_experiment.run_fleet(
                    small_dataset,
                    CONSTRAINT,
                    use_oracle_difficulty=False,
                    scheduler=scheduler,
                )
            with pytest.raises(ValueError, match="activity_classifier"):
                calibrated_experiment.run_fleet(
                    small_dataset,
                    CONSTRAINT,
                    activity_classifier=trained_activity_classifier,
                    scheduler=scheduler,
                )


class GatedPredictor:
    """Predictor whose ``predict`` blocks until released.

    The gates are *class* attributes, so they survive the scheduler's
    deep copy of the runtime (instances are copied, the class is shared)
    — the test can hold a dispatched batch mid-execution from outside.
    """

    # Installed fresh by each test.
    STARTED = None
    RELEASE = None

    REQUIRES_SIGNALS = False
    FLEET_BATCHABLE = True

    def __init__(self) -> None:
        self.fs = 32.0
        self._last_estimate = None

    def reset(self) -> None:
        self._last_estimate = None

    def advance_fleet_state(self, n_windows: int) -> None:
        self.reset()

    def fleet_state_signature(self):
        return None

    def predict(self, ppg_windows, accel_windows=None, **context):
        type(self).STARTED.set()
        assert type(self).RELEASE.wait(timeout=30), "test gate never released"
        return np.full(np.asarray(ppg_windows).shape[0], 72.0)

    def predict_window(self, ppg_window, accel_window=None, **context):
        return 72.0


class TestRetireRacingDispatchedBatch:
    """retire() on a session already inside an in-flight mega-batch.

    The race: the dispatcher popped the session (state RUNNING) and is
    executing its batch, ``queued`` more sessions arrive behind it, and
    the consumer calls ``retire`` on the in-flight one.  The retire must
    refuse (``False``), must not deliver a RETIRED resolution (the
    session resolves exactly once, as DONE when the batch lands), and
    must not poison the epoch — the sessions queued behind it and later
    submissions still run and deliver.
    """

    @pytest.mark.parametrize("queued", [1, 2, 4])
    def test_retire_neither_delivers_nor_poisons(self, calibrated_experiment, queued):
        GatedPredictor.STARTED = threading.Event()
        GatedPredictor.RELEASE = threading.Event()
        runtime = make_runtime(calibrated_experiment)
        for entry in runtime.zoo:
            entry.predictor = GatedPredictor()

        scheduler = FleetScheduler(runtime, CONSTRAINT, use_oracle_difficulty=True)
        try:
            session = scheduler.submit("inflight", make_subject("inflight", seed=1))
            assert GatedPredictor.STARTED.wait(timeout=30)
            behind = [
                scheduler.submit(f"behind{i}", make_subject(f"behind{i}", seed=10 + i))
                for i in range(queued)
            ]
            # The dispatcher is busy executing: arrivals wait in the queue.
            assert all(s.state is SessionState.QUEUED for s in behind)

            assert scheduler.retire(session) is False
            assert session.state is SessionState.RUNNING

            GatedPredictor.RELEASE.set()
            scheduler.join()
            assert session.state is SessionState.DONE
            assert session.result is not None
            assert session.result.n_windows == session.recording.n_windows
            assert all(s.state is SessionState.DONE for s in behind)
            assert scheduler.latency_stats()["n_batches"] == 2

            # Exactly one delivery each, as DONE — the refused retire did
            # not enqueue a second (RETIRED) resolution.
            delivered = [scheduler.next_done(timeout=5.0) for _ in range(1 + queued)]
            assert delivered[0] is session
            assert set(delivered[1:]) == set(behind)
            assert all(d.state is SessionState.DONE for d in delivered)
            assert scheduler.next_done(timeout=0.05) is None

            # The epoch is not poisoned: the stream keeps serving.
            late = scheduler.submit("late", make_subject("late", seed=2))
            scheduler.join()
            assert late.state is SessionState.DONE
            assert scheduler.next_done(timeout=5.0) is late
        finally:
            GatedPredictor.RELEASE.set()
            scheduler.close()


class GatedFailingPredictor(GatedPredictor):
    """A :class:`GatedPredictor` whose ``predict`` raises once released."""

    def predict(self, ppg_windows, accel_windows=None, **context):
        type(self).STARTED.set()
        assert type(self).RELEASE.wait(timeout=30), "test gate never released"
        raise RuntimeError("predict failed after release")


class TestCloseRacingFailingBatch:
    """``close(wait=True)`` while an in-flight batch is about to fail.

    The race: a dispatched batch is mid-execution, ``queued`` more
    sessions wait behind it, and the consumer calls ``close(wait=True)``;
    every batch then fails.  Each session must resolve exactly once
    (FAILED), ``close`` must return (``join`` observes ``_unresolved``
    reaching zero — a double resolution would push it negative or strand
    it positive and hang the close), and ``as_completed`` must deliver
    the failed sessions and terminate.
    """

    @pytest.mark.parametrize("queued", [1, 2, 4])
    def test_close_wait_drains_failing_batch(self, calibrated_experiment, queued):
        GatedFailingPredictor.STARTED = threading.Event()
        GatedFailingPredictor.RELEASE = threading.Event()
        runtime = make_runtime(calibrated_experiment)
        for entry in runtime.zoo:
            entry.predictor = GatedFailingPredictor()

        scheduler = FleetScheduler(
            runtime,
            CONSTRAINT,
            use_oracle_difficulty=True,
            max_retries=0,
            retry_backoff_s=0.0,
        )
        session = scheduler.submit("doomed", make_subject("doomed", seed=5))
        assert GatedFailingPredictor.STARTED.wait(timeout=30)
        behind = [
            scheduler.submit(f"behind{i}", make_subject(f"behind{i}", seed=20 + i))
            for i in range(queued)
        ]

        closer = threading.Thread(target=scheduler.close, kwargs={"wait": True})
        closer.start()
        try:
            GatedFailingPredictor.RELEASE.set()
            closer.join(timeout=30)
            assert not closer.is_alive(), "close(wait=True) hung on the failing batch"

            assert session.state is SessionState.FAILED
            assert isinstance(session.error, RuntimeError)
            assert session.result is None
            assert all(s.state is SessionState.FAILED for s in behind)
            # Exactly one delivery each, then a clean end of stream.
            delivered = list(scheduler.as_completed())
            assert delivered[0] is session
            assert sorted(delivered[1:], key=lambda s: s.ticket) == behind
            assert scheduler._unresolved == 0  # unguarded read: scheduler is closed
        finally:
            GatedFailingPredictor.RELEASE.set()
            closer.join(timeout=5)


def make_stateful_runtime(experiment) -> CHRISRuntime:
    """A fully stateful zoo (spectral tracker + smoothed calibrated
    trackers) — the hardest continuation case for per-window streaming."""
    return CHRISRuntime(
        zoo=stateful_zoo(copy.deepcopy(experiment.zoo)),
        engine=experiment.engine,
        system=experiment.system,
    )


def push_window(stream, subject: WindowedSubject, w: int):
    return stream.push(
        subject.ppg_windows[w],
        subject.accel_windows[w],
        activity=int(subject.activity[w]),
        hr=float(subject.hr[w]),
    )


class TestVirtualClock:
    def test_clock_advances_only_on_sleep(self):
        clock = VirtualClock(start=5.0)
        assert clock() == 5.0
        clock.sleep(1.5)
        assert clock() == 6.5
        clock.advance(0.5)
        assert clock() == 7.0
        with pytest.raises(ValueError, match="negative"):
            clock.sleep(-1.0)


class TestServingValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "bogus"},
            {"slo_s": 0.0},
            {"deadline_slack_s": -0.1},
            {"max_streams": 0},
        ],
    )
    def test_serving_parameter_validation(self, calibrated_experiment, kwargs):
        with pytest.raises(ValueError):
            make_scheduler(calibrated_experiment, **kwargs)

    def test_submit_slo_validated(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            with pytest.raises(ValueError, match="slo_s"):
                scheduler.submit("s0", make_subject("s0"), slo_s=0.0)

    def test_open_stream_requires_single_worker(self, calibrated_experiment):
        """Streams need no worker check: no scheduler runs more than one."""
        with pytest.raises(ValueError, match="max_workers"):
            make_scheduler(calibrated_experiment, max_workers=2)
        with make_scheduler(calibrated_experiment, max_workers=1) as scheduler:
            scheduler.open_stream("w0").close()

    def test_duplicate_stream_id_rejected(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            scheduler.open_stream("w0")
            with pytest.raises(ValueError, match="already open"):
                scheduler.open_stream("w0")

    def test_slot_exhaustion_rejected(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment, max_streams=1) as scheduler:
            scheduler.open_stream("w0")
            with pytest.raises(RuntimeError, match="streams"):
                scheduler.open_stream("w1")

    def test_push_shape_validated(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=4)
        with make_scheduler(calibrated_experiment) as scheduler:
            stream = scheduler.open_stream("w0")
            with pytest.raises(ValueError):
                stream.push(subject.ppg_windows[:2])
            with pytest.raises(ValueError):
                stream.push(subject.ppg_windows[0], np.zeros((16, 2)))

    def test_push_after_stream_close_rejected(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=1)
        with make_scheduler(calibrated_experiment) as scheduler:
            stream = scheduler.open_stream("w0")
            stream.close()
            stream.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                push_window(stream, subject, 0)

    def test_open_stream_after_scheduler_close_rejected(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.open_stream("w0")


class TestDeadlinePolicy:
    def test_deadline_release_fires_without_close(self, calibrated_experiment):
        # One lone window, a queue that never fills: only the deadline
        # can release it.  join() returning at all is the assertion.
        with make_scheduler(
            calibrated_experiment,
            policy="deadline",
            slo_s=0.05,
            deadline_slack_s=0.0,
            max_batch_size=64,
        ) as scheduler:
            stream = scheduler.open_stream("w0")
            session = push_window(stream, make_subject("w0", n_windows=1), 0)
            scheduler.join()
            assert session.state is SessionState.DONE
            stream.close()

    def test_close_wait_drains_held_windows(self, calibrated_experiment):
        # A far-future deadline on a virtual clock: nothing would ever
        # dispatch on its own, so close(wait=True) must drain the queue
        # without dropping a window.
        clock = VirtualClock()
        subject = make_subject("w0", n_windows=6)
        scheduler = make_scheduler(
            calibrated_experiment, policy="deadline", slo_s=1e6, clock=clock
        )
        stream = scheduler.open_stream("w0")
        sessions = {push_window(stream, subject, w) for w in range(subject.n_windows)}
        time.sleep(0.2)
        assert all(s.state is SessionState.QUEUED for s in sessions)
        scheduler.close(wait=True)
        assert all(s.state is SessionState.DONE for s in sessions)
        assert sum(s.recording.n_windows for s in sessions) == subject.n_windows

    def test_pause_resume_under_deadline_policy(self, calibrated_experiment):
        # Pause outranks an expired deadline; resume releases the batch.
        subject = make_subject("w0", n_windows=4)
        with make_scheduler(
            calibrated_experiment, policy="deadline", slo_s=0.02, deadline_slack_s=0.0
        ) as scheduler:
            scheduler.pause()
            stream = scheduler.open_stream("w0")
            sessions = {push_window(stream, subject, w) for w in range(4)}
            time.sleep(0.1)
            assert all(s.state is SessionState.QUEUED for s in sessions)
            scheduler.resume()
            scheduler.join()
            assert all(s.state is SessionState.DONE for s in sessions)
            stats = scheduler.latency_stats()
            assert stats["n_windows"] == 4
            # The pause held every window past its 20 ms budget.
            assert stats["deadline_miss_fraction"] == 1.0
            stream.close()

    def test_no_deadline_state_leaks_after_drain(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=5)
        scheduler = make_scheduler(
            calibrated_experiment, policy="deadline", slo_s=0.01, deadline_slack_s=0.0
        )
        streams = [scheduler.open_stream(f"w{i}") for i in range(3)]
        for w in range(subject.n_windows):
            push_window(streams[w % 3], subject, w)
        scheduler.join()
        for stream in streams:
            stream.close()
        assert not scheduler._pending
        assert scheduler._unresolved == 0
        assert sorted(scheduler._free_slots) == list(range(scheduler.max_streams))
        assert scheduler.latency_stats()["n_windows"] == subject.n_windows
        scheduler.close()


class TestStreamingBitIdentity:
    def test_one_batch_per_window_matches_replay(self, calibrated_experiment):
        # The hardest continuation case: every window its own batch, on a
        # fully stateful zoo.  Predictions, routing, and the final
        # predictor streams must all equal whole-recording replay.
        subject = make_subject("w0", n_windows=12, seed=3)
        reference_runtime = make_stateful_runtime(calibrated_experiment)
        reference = reference_runtime.run_many(
            [subject], CONSTRAINT, use_oracle_difficulty=True
        ).results["w0"]

        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        stream = scheduler.open_stream("w0")
        sessions = []
        for w in range(subject.n_windows):
            sessions.append(push_window(stream, subject, w))
            scheduler.join()
        stats = scheduler.latency_stats()
        assert stats["n_batches"] == subject.n_windows

        predicted = np.concatenate([s.result.predicted_hr for s in sessions])
        models = np.concatenate([s.result.model_names for s in sessions])
        np.testing.assert_array_equal(models, reference.model_names)
        np.testing.assert_array_equal(predicted, reference.predicted_hr)
        for entry, ref_entry in zip(scheduler._runtime.zoo, reference_runtime.zoo):
            assert (
                entry.predictor.fleet_state_signature()
                == ref_entry.predictor.fleet_state_signature()
            )
        stream.close()
        scheduler.close()

    def test_coalesced_burst_matches_replay(self, calibrated_experiment):
        # Held deadline: every push coalesces into one growing session,
        # released as a single batch — still bit-identical to replay.
        clock = VirtualClock()
        subject = make_subject("w0", n_windows=10, seed=4)
        reference = (
            make_stateful_runtime(calibrated_experiment)
            .run_many([subject], CONSTRAINT, use_oracle_difficulty=True)
            .results["w0"]
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
            policy="deadline",
            slo_s=1e6,
            clock=clock,
        )
        stream = scheduler.open_stream("w0")
        sessions = {push_window(stream, subject, w) for w in range(subject.n_windows)}
        scheduler.close(wait=True)
        assert scheduler.latency_stats()["n_batches"] == 1
        ordered = sorted(sessions, key=lambda s: s.ticket)
        predicted = np.concatenate([s.result.predicted_hr for s in ordered])
        np.testing.assert_array_equal(predicted, reference.predicted_hr)

    def test_pushes_during_an_executing_batch_fuse_into_one(
        self, calibrated_experiment, monkeypatch
    ):
        # The dispatcher executes batches itself, so pushes arriving while
        # it is busy keep coalescing in the queue and dispatch together.
        # The first batch is held at its fault site until every later
        # push has arrived.
        started, release = threading.Event(), threading.Event()
        fire = faults.fire

        def gated_fire(site, shard=None):
            if site == "scheduler.batch" and not started.is_set():
                started.set()
                assert release.wait(timeout=30), "test gate never released"
            fire(site, shard)

        monkeypatch.setattr(faults, "fire", gated_fire)
        subject = make_subject("w0", n_windows=9, seed=6)
        reference = (
            make_stateful_runtime(calibrated_experiment)
            .run_many([subject], CONSTRAINT, use_oracle_difficulty=True)
            .results["w0"]
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        try:
            stream = scheduler.open_stream("w0")
            first = push_window(stream, subject, 0)
            assert started.wait(timeout=30)
            rest = []
            for w in range(1, subject.n_windows):
                rest.append(push_window(stream, subject, w))
                # Room for a free dispatcher to take the push on its own;
                # the busy one must leave it queued.
                time.sleep(0.01)
            assert all(s is rest[0] for s in rest)
            release.set()
            scheduler.join()
            stats = scheduler.latency_stats()
            assert stats["n_batches"] == 2
            assert stats["mean_batch_windows"] == subject.n_windows / 2
            assert first.state is rest[0].state is SessionState.DONE
            predicted = np.concatenate([first.result.predicted_hr, rest[0].result.predicted_hr])
            models = np.concatenate([first.result.model_names, rest[0].result.model_names])
            np.testing.assert_array_equal(predicted, reference.predicted_hr)
            np.testing.assert_array_equal(models, reference.model_names)
            stream.close()
        finally:
            release.set()
            scheduler.close()

    def test_multi_stream_round_robin_matches_replay(self, calibrated_experiment):
        subjects = [make_subject(f"w{i}", n_windows=8, seed=10 + i) for i in range(3)]
        reference = make_stateful_runtime(calibrated_experiment).run_many(
            subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        streams = [scheduler.open_stream(s.subject_id) for s in subjects]
        sessions = []
        for w in range(subjects[0].n_windows):
            for subject, stream in zip(subjects, streams):
                sessions.append(push_window(stream, subject, w))
        scheduler.join()
        for stream in streams:
            stream.close()

        by_stream: dict[str, list] = {s.subject_id: [] for s in subjects}
        for session in sessions:
            by_stream[session.subject_id.split("#")[0]].append(session)
        for subject in subjects:
            chunks = sorted(set(by_stream[subject.subject_id]), key=lambda s: s.ticket)
            predicted = np.concatenate([c.result.predicted_hr for c in chunks])
            np.testing.assert_array_equal(
                predicted, reference.results[subject.subject_id].predicted_hr
            )
        # Every state slot is recycled once its stream closed and drained.
        assert sorted(scheduler._free_slots) == list(range(scheduler.max_streams))
        scheduler.close()

    def test_retired_stream_session_keeps_stream_usable(self, calibrated_experiment):
        # Retiring a held (coalesced) streaming session drops its windows
        # without touching the trackers: the stream keeps serving, and
        # the next window predicts exactly like a fresh stream's first.
        clock = VirtualClock()
        subject = make_subject("w0", n_windows=3, seed=5)
        reference = (
            make_stateful_runtime(calibrated_experiment)
            .run_many(
                [
                    WindowedSubject(
                        subject_id="w0",
                        ppg_windows=subject.ppg_windows[2:],
                        accel_windows=subject.accel_windows[2:],
                        activity=subject.activity[2:],
                        hr=subject.hr[2:],
                        spec=subject.spec,
                    )
                ],
                CONSTRAINT,
                use_oracle_difficulty=True,
            )
            .results["w0"]
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
            policy="deadline",
            slo_s=1e6,
            clock=clock,
        )
        stream = scheduler.open_stream("w0")
        held = push_window(stream, subject, 0)
        assert push_window(stream, subject, 1) is held  # coalesced
        assert scheduler.retire(held)
        later = push_window(stream, subject, 2)
        scheduler.close(wait=True)
        assert held.state is SessionState.RETIRED
        assert later.state is SessionState.DONE
        np.testing.assert_array_equal(later.result.predicted_hr, reference.predicted_hr)
