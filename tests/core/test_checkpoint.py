"""Durability-layer tests: staged results, shard journal, forced failures.

Every recovery path of the crash-safe fleet gets a *forced-failure* test
here: the fault actually happens (via :mod:`repro.core.faults`) and the
test asserts the recovery — retried shards, quarantined subjects,
discarded stale journals, re-executed corrupt shards —
always against the bit-identity contract with an uninterrupted run.
"""

import io

import numpy as np
import pytest

from repro.core import faults
from repro.core.checkpoint import (
    FleetJournal,
    RunStager,
    ShardStatus,
    StagedShardError,
    atomic_write_bytes,
)
from repro.core.fleet import FleetExecutor
from repro.core.runtime import RunResult, _NPZ_ARRAY_FIELDS
from repro.models import MODEL_REGISTRY

from tests.core.test_fleet import CONSTRAINT, assert_fleets_identical, make_runtime
from tests.core.test_runtime_batched import assert_results_identical


@pytest.fixture(scope="module")
def reference_fleet(calibrated_experiment, small_dataset):
    """Uninterrupted scalar-oracle reference every recovery must reproduce."""
    return make_runtime(calibrated_experiment, batched=False).run_many(
        small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
    )


def checkpointed_executor(experiment, directory, **kwargs):
    """A 4-shard (one subject per shard) checkpointed executor."""
    kwargs.setdefault("shards_per_worker", 4)
    return FleetExecutor(
        make_runtime(experiment),
        checkpoint_dir=directory,
        retry_backoff_s=0.0,
        **kwargs,
    )


def round_trip(result: RunResult) -> RunResult:
    buffer = io.BytesIO()
    result.to_npz(buffer)
    buffer.seek(0)
    return RunResult.from_npz(buffer)


def assert_bit_identical(a: RunResult, b: RunResult) -> None:
    """Stricter than value equality: every array survives bit-for-bit."""
    for name in _NPZ_ARRAY_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name
    np.testing.assert_array_equal(a.model_names.astype(str), b.model_names.astype(str))
    assert a.configuration == b.configuration
    assert a.configuration_segments == b.configuration_segments


# ------------------------------------------------------ RunResult persistence
class TestRunResultNpz:
    @pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
    def test_every_registry_model_round_trips(self, calibrated_experiment, model_name):
        """A result routed entirely through each zoo model is bit-stable."""
        configuration = calibrated_experiment.table.configurations[0]
        n = 7
        result = RunResult(
            configuration=configuration,
            window_index=np.arange(n, dtype=int),
            predicted_difficulty=np.array([0, 1] * 3 + [0], dtype=int),
            true_difficulty=np.array([1, 0] * 3 + [1], dtype=int),
            model_names=np.array([model_name] * n, dtype=object),
            offloaded=np.array([True, False] * 3 + [True]),
            predicted_hr=np.linspace(55.0, 180.0, n),
            true_hr=np.linspace(60.0, 175.0, n),
            watch_compute_j=np.full(n, 1e-4),
            watch_radio_j=np.zeros(n),
            watch_idle_j=np.full(n, 2.5e-5),
            phone_compute_j=np.full(n, 3e-3),
            latency_s=np.full(n, 0.21),
            configuration_segments=[(0, configuration)],
        )
        assert_bit_identical(result, round_trip(result))

    def test_adversarial_floats_survive_bitwise(self, calibrated_experiment):
        """-0.0, denormals, inf and NaN payloads all round-trip exactly."""
        configuration = calibrated_experiment.table.configurations[0]
        tricky = np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan, 1.0 + 2**-52])
        n = tricky.size
        names = sorted(MODEL_REGISTRY)
        result = RunResult(
            configuration=configuration,
            window_index=np.arange(n, dtype=int),
            predicted_difficulty=np.zeros(n, dtype=int),
            true_difficulty=np.ones(n, dtype=int),
            model_names=np.array([names[i % len(names)] for i in range(n)], dtype=object),
            offloaded=np.zeros(n, dtype=bool),
            predicted_hr=tricky,
            true_hr=tricky[::-1].copy(),
            watch_compute_j=tricky,
            watch_radio_j=tricky,
            watch_idle_j=tricky,
            phone_compute_j=tricky,
            latency_s=tricky,
        )
        assert_bit_identical(result, round_trip(result))

    def test_executed_run_round_trips(self, reference_fleet):
        for result in reference_fleet.results.values():
            reloaded = round_trip(result)
            assert_bit_identical(result, reloaded)
            assert_results_identical(result, reloaded)

    def test_lazy_decisions_rebuilt_not_serialized(self, reference_fleet):
        result = next(iter(reference_fleet.results.values()))
        _ = result.decisions  # materialize the cache before dumping
        reloaded = round_trip(result)
        assert reloaded._decisions is None
        assert reloaded.decisions == result.decisions

    def test_empty_result_round_trips(self, calibrated_experiment):
        configuration = calibrated_experiment.table.configurations[0]
        result = RunResult(configuration=configuration)
        reloaded = round_trip(result)
        assert_bit_identical(result, reloaded)
        assert reloaded.n_windows == 0

    def test_float32_predictions_round_trip_bit_identical(self, calibrated_experiment):
        """Archives preserve the float32 engine's dtype and payload exactly.

        ``to_npz`` stores the per-window arrays verbatim, so a float32
        ``predicted_hr`` (including -0.0, float32 denormals, infinities
        and NaN) must reload as float32 with identical bytes — the
        invariant staged-checkpoint replay of float32 runs rests on.
        """
        configuration = calibrated_experiment.table.configurations[0]
        tricky = np.array(
            [-0.0, 1e-45, np.inf, -np.inf, np.nan, 1.0 + 2**-23], dtype=np.float32
        )
        n = tricky.size
        names = sorted(MODEL_REGISTRY)
        result = RunResult(
            configuration=configuration,
            window_index=np.arange(n, dtype=int),
            predicted_difficulty=np.zeros(n, dtype=int),
            true_difficulty=np.ones(n, dtype=int),
            model_names=np.array([names[i % len(names)] for i in range(n)], dtype=object),
            offloaded=np.zeros(n, dtype=bool),
            predicted_hr=tricky,
            true_hr=np.linspace(60.0, 175.0, n),
            watch_compute_j=np.full(n, 1e-4),
            watch_radio_j=np.zeros(n),
            watch_idle_j=np.full(n, 2.5e-5),
            phone_compute_j=np.full(n, 3e-3),
            latency_s=np.full(n, 0.21),
        )
        reloaded = round_trip(result)
        assert reloaded.predicted_hr.dtype == np.float32
        assert_bit_identical(result, reloaded)

    def test_executed_float32_run_round_trips(self, calibrated_experiment, small_dataset):
        """An actually executed float32 run survives the archive bit-for-bit."""
        import copy

        from repro.core.runtime import CHRISRuntime

        runtime = CHRISRuntime(
            zoo=copy.deepcopy(calibrated_experiment.zoo),
            engine=calibrated_experiment.engine,
            system=calibrated_experiment.system,
            dtype="float32",
        )
        result = runtime.run(small_dataset.subjects[0], CONSTRAINT)
        assert result.predicted_hr.dtype == np.float32
        reloaded = round_trip(result)
        assert_bit_identical(result, reloaded)
        assert_results_identical(result, reloaded)


# ------------------------------------------------------------- atomic writes
class TestAtomicWrite:
    def test_writes_and_overwrites_without_temp_residue(self, tmp_path):
        path = tmp_path / "manifest.json"
        atomic_write_bytes(path, b"first")
        assert path.read_bytes() == b"first"
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


# ------------------------------------------------------------------- stager
class TestRunStager:
    @pytest.fixture()
    def records(self, reference_fleet):
        return list(reference_fleet.results.items())

    def test_stage_and_load_round_trip(self, tmp_path, records):
        stager = RunStager(tmp_path)
        stager.stage_shard(0, records[:2])
        stager.stage_shard(3, records[2:])
        assert stager.staged_shards() == [0, 3]
        for shard, staged in ((0, records[:2]), (3, records[2:])):
            loaded = stager.load_shard(shard)
            assert [sid for sid, _ in loaded] == [sid for sid, _ in staged]
            for (_, expected), (_, actual) in zip(staged, loaded):
                assert_bit_identical(expected, actual)

    def test_reload_from_disk_sees_staged_shards(self, tmp_path, records):
        RunStager(tmp_path).stage_shard(1, records[:1])
        fresh = RunStager(tmp_path)
        assert fresh.staged_shards() == [1]
        assert_bit_identical(records[0][1], fresh.load_shard(1)[0][1])

    def test_unstaged_shard_raises(self, tmp_path):
        with pytest.raises(StagedShardError, match="never staged"):
            RunStager(tmp_path).load_shard(5)

    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_corruption_fails_checksum(self, tmp_path, records, mode):
        stager = RunStager(tmp_path)
        stager.stage_shard(0, records[:2])
        faults.corrupt_staged_shard(tmp_path, 0, mode=mode)
        with pytest.raises(StagedShardError, match="checksum"):
            stager.load_shard(0)

    def test_missing_file_raises(self, tmp_path, records):
        stager = RunStager(tmp_path)
        path = stager.stage_shard(0, records[:1])
        path.unlink()
        with pytest.raises(StagedShardError, match="unreadable"):
            stager.load_shard(0)

    def test_discard_and_reset(self, tmp_path, records):
        stager = RunStager(tmp_path)
        stager.stage_shard(0, records[:1])
        stager.stage_shard(1, records[1:2])
        stager.discard_shard(0)
        assert stager.staged_shards() == [1]
        assert not stager.shard_path(0).exists()
        stager.reset()
        assert stager.staged_shards() == []
        assert not stager.shard_path(1).exists()


# ------------------------------------------------------------------ journal
class TestFleetJournal:
    PAYLOAD = {"fleet": "alpha", "constraint": "max_mae(6.0)"}
    SHARDS = [["s0", "s1"], ["s2"]]

    def test_fresh_run_starts_pending(self, tmp_path):
        journal = FleetJournal(tmp_path)
        assert journal.open_run(self.PAYLOAD, self.SHARDS, "{}") is False
        assert journal.statuses() == [ShardStatus.PENDING, ShardStatus.PENDING]
        assert journal.subject_ids(0) == ["s0", "s1"]
        assert journal.attempts(0) == 0

    def test_matching_fingerprint_resumes_with_state(self, tmp_path):
        journal = FleetJournal(tmp_path)
        journal.open_run(self.PAYLOAD, self.SHARDS, "{}")
        journal.mark(0, ShardStatus.RUNNING, attempt=True)
        journal.mark(0, ShardStatus.DONE)
        journal.mark(1, ShardStatus.FAILED, error="boom", attempt=True)
        resumed = FleetJournal(tmp_path)
        assert resumed.open_run(self.PAYLOAD, self.SHARDS, "{}") is True
        assert resumed.statuses() == [ShardStatus.DONE, ShardStatus.FAILED]
        assert resumed.attempts(0) == 1
        assert resumed.shards_with(ShardStatus.FAILED) == [1]

    def test_mark_many_persists_every_shard_in_one_write(self, tmp_path, monkeypatch):
        journal = FleetJournal(tmp_path)
        journal.open_run(self.PAYLOAD, self.SHARDS, "{}")
        writes = []
        original = FleetJournal._write
        monkeypatch.setattr(
            FleetJournal, "_write", lambda self: (writes.append(1), original(self))
        )
        journal.mark_many([0, 1], ShardStatus.RUNNING, attempt=True)
        assert len(writes) == 1
        resumed = FleetJournal(tmp_path)
        assert resumed.open_run(self.PAYLOAD, self.SHARDS, "{}") is True
        assert resumed.statuses() == [ShardStatus.RUNNING, ShardStatus.RUNNING]
        assert [resumed.attempts(0), resumed.attempts(1)] == [1, 1]

    def test_foreign_fingerprint_starts_clean(self, tmp_path):
        journal = FleetJournal(tmp_path)
        journal.open_run(self.PAYLOAD, self.SHARDS, "{}")
        journal.mark(0, ShardStatus.DONE)
        fresh = FleetJournal(tmp_path)
        assert fresh.open_run({"fleet": "beta"}, self.SHARDS, "{}") is False
        assert fresh.statuses() == [ShardStatus.PENDING, ShardStatus.PENDING]

    def test_changed_shard_layout_starts_clean(self, tmp_path):
        journal = FleetJournal(tmp_path)
        journal.open_run(self.PAYLOAD, self.SHARDS, "{}")
        journal.mark(1, ShardStatus.DONE)
        fresh = FleetJournal(tmp_path)
        assert fresh.open_run(self.PAYLOAD, [["s0", "s1", "s2"]], "{}") is False
        assert fresh.statuses() == [ShardStatus.PENDING]

    def test_queries_require_open_run(self, tmp_path):
        with pytest.raises(RuntimeError, match="open_run"):
            FleetJournal(tmp_path).status(0)


# ------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_arm_fire_consumes_exactly_once(self, tmp_path):
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("site", times=2)
        assert plan.armed() == 2
        with pytest.raises(faults.InjectedFault):
            plan.fire("site")
        assert plan.armed("site") == 1
        with pytest.raises(faults.InjectedFault):
            plan.fire("site")
        plan.fire("site")  # exhausted: no-op
        assert plan.armed() == 0

    def test_shard_scoped_tokens_only_match_their_shard(self, tmp_path):
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("site", shard=2)
        plan.fire("site", shard=1)
        plan.fire("site")  # shard-scoped token never matches a bare firing
        assert plan.armed() == 1
        with pytest.raises(faults.InjectedFault) as excinfo:
            plan.fire("site", shard=2)
        assert excinfo.value.shard == 2
        assert plan.armed() == 0

    def test_inactive_fire_is_a_noop(self, tmp_path):
        faults.deactivate()
        faults.fire("site")  # no active plan: must not raise
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("site")
        with faults.injected_faults(plan):
            pass
        faults.fire("site")  # deactivated on context exit
        assert plan.armed() == 1

    def test_arm_validation(self, tmp_path):
        plan = faults.FaultPlan(tmp_path / "plan")
        with pytest.raises(ValueError):
            plan.arm("site", times=0)
        with pytest.raises(ValueError):
            plan.arm("site", kind="segfault")
        with pytest.raises(ValueError):
            plan.arm("bad@site")


# --------------------------------------------- checkpointed fleet execution
class TestCheckpointedExecution:
    def test_checkpointed_run_matches_reference(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        executor = checkpointed_executor(calibrated_experiment, tmp_path / "ckpt")
        fleet = executor.run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(reference_fleet, fleet)
        assert RunStager(tmp_path / "ckpt").staged_shards() == [0, 1, 2, 3]

    def test_interrupted_run_resumes_bit_identically(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        directory = tmp_path / "ckpt"
        first = checkpointed_executor(calibrated_experiment, directory)
        stream = first.iter_runs(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        next(stream)
        stream.close()  # simulated crash after at least one shard committed
        staged_before = RunStager(directory).staged_shards()
        assert staged_before  # the interrupted run left durable progress

        resumed = checkpointed_executor(calibrated_experiment, directory)
        fleet = resumed.run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(reference_fleet, fleet)

    def test_completed_run_replays_without_re_execution(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        directory = tmp_path / "ckpt"
        checkpointed_executor(calibrated_experiment, directory).run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        # Arm a fault at the shard-execution site: if the resumed run
        # (everything DONE) executed any shard, it would trip and fail.
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("fleet.shard", times=1)
        with faults.injected_faults(plan):
            fleet = checkpointed_executor(calibrated_experiment, directory).run_fleet(
                small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
            )
        assert plan.armed() == 1  # nothing executed: all four shards loaded
        assert_fleets_identical(reference_fleet, fleet)

    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_corrupt_staged_shard_is_re_executed(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path, mode
    ):
        directory = tmp_path / "ckpt"
        checkpointed_executor(calibrated_experiment, directory).run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        faults.corrupt_staged_shard(directory, 2, mode=mode)
        fleet = checkpointed_executor(calibrated_experiment, directory).run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(reference_fleet, fleet)
        # The re-executed shard was staged afresh and verifies again.
        reloaded = RunStager(directory).load_shard(2)
        sid = reloaded[0][0]
        assert_bit_identical(reference_fleet.results[sid], reloaded[0][1])

    def test_stale_journal_is_discarded_and_rerun(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        directory = tmp_path / "ckpt"
        checkpointed_executor(calibrated_experiment, directory).run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        faults.stale_journal(directory)
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("fleet.shard", times=1)
        with faults.injected_faults(plan):
            # A stale journal must force re-execution — the armed fault
            # fires on the first shard, proving nothing was trusted, and
            # the retry path absorbs it.
            fleet = checkpointed_executor(calibrated_experiment, directory).run_fleet(
                small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
            )
        assert plan.armed() == 0
        assert_fleets_identical(reference_fleet, fleet)

    def test_crash_during_staging_resumes_cleanly(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        directory = tmp_path / "ckpt"
        executor = checkpointed_executor(calibrated_experiment, directory)
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("stager.write", times=1)
        with faults.injected_faults(plan):
            with pytest.raises(faults.InjectedFault):
                executor.run_fleet(
                    small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
                )
        fleet = checkpointed_executor(calibrated_experiment, directory).run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(reference_fleet, fleet)

    def test_resume_with_zero_window_subjects(
        self, calibrated_experiment, small_dataset, tmp_path
    ):
        from tests.core.test_fleet import TestZeroWindowSubjects

        template = small_dataset.subjects[0]
        fleet_subjects = [
            TestZeroWindowSubjects.empty_subject(template, "empty-first"),
            small_dataset.subjects[0],
            TestZeroWindowSubjects.empty_subject(template, "empty-mid"),
            small_dataset.subjects[1],
        ]
        reference = make_runtime(calibrated_experiment, batched=False).run_many(
            fleet_subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        directory = tmp_path / "ckpt"
        stream = checkpointed_executor(calibrated_experiment, directory).iter_runs(
            fleet_subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        next(stream)
        stream.close()
        resumed = checkpointed_executor(calibrated_experiment, directory).run_fleet(
            fleet_subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(reference, resumed)
        assert resumed.results["empty-first"].n_windows == 0
        assert resumed.results["empty-mid"].n_windows == 0


# ------------------------------------------------------ retry and quarantine
class TestRetryAndQuarantine:
    def test_transient_exception_is_retried_to_identity(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        executor = FleetExecutor(
            make_runtime(calibrated_experiment),
            shards_per_worker=4,
            retry_backoff_s=0.0,
        )
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("fleet.shard", shard=1, times=1)
        with faults.injected_faults(plan):
            fleet = executor.run_fleet(
                small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
            )
        assert plan.armed() == 0
        assert fleet.n_failed == 0
        assert_fleets_identical(reference_fleet, fleet)

    def test_exhausted_retries_quarantine_only_that_shard(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        """Without a checkpoint the run keeps its 4-shard layout, so the
        failure costs one shard's subjects, not the whole fleet."""
        executor = FleetExecutor(
            make_runtime(calibrated_experiment),
            shards_per_worker=4,
            max_retries=1,
            retry_backoff_s=0.0,
        )
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("fleet.shard", shard=1, times=2)  # every attempt fails
        with faults.injected_faults(plan):
            fleet = executor.run_fleet(
                small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
            )
        quarantined = small_dataset.subjects[1].subject_id
        assert fleet.failed_subject_ids == [quarantined]
        assert "InjectedFault" in fleet.failed[quarantined]
        # Every healthy subject still matches the reference bit-for-bit.
        for subject in small_dataset.subjects:
            sid = subject.subject_id
            if sid != quarantined:
                assert_results_identical(
                    reference_fleet.results[sid], fleet.results[sid]
                )

    def test_quarantine_with_checkpoint_retries_on_next_run(
        self, calibrated_experiment, small_dataset, reference_fleet, tmp_path
    ):
        """A quarantined (FAILED) shard is re-executed by the next run."""
        directory = tmp_path / "ckpt"
        executor = checkpointed_executor(
            calibrated_experiment, directory, max_retries=0
        )
        plan = faults.FaultPlan(tmp_path / "plan")
        plan.arm("fleet.shard", shard=3, times=1)
        with faults.injected_faults(plan):
            fleet = executor.run_fleet(
                small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
            )
        assert fleet.n_failed == 1
        # A fresh executor over the same directory retries the FAILED
        # shard (now fault-free) and completes the fleet.
        healed = checkpointed_executor(calibrated_experiment, directory).run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert healed.n_failed == 0
        assert_fleets_identical(reference_fleet, healed)

    def test_retry_validation(self, calibrated_experiment):
        runtime = make_runtime(calibrated_experiment)
        with pytest.raises(ValueError):
            FleetExecutor(runtime, max_retries=-1)
        with pytest.raises(ValueError):
            FleetExecutor(runtime, retry_backoff_s=-0.1)
