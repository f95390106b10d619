"""Fleet execution engine tests: the fleet kernel, sharding, streaming.

Every fast fleet path — the fleet-wide kernel and sharded replay via
:class:`FleetExecutor` — must produce a
:class:`FleetResult` bit-identical to the scalar per-window oracle
(``batched=False``): same per-window decisions, predictions, costs, MAE
and energy, including fleets with per-subject BLE connection traces.
The paths are compared on independent deep copies of the zoo so every
run starts from identical predictor state (including the calibrated
models' random streams).
"""

import copy

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor
from repro.core.runtime import CHRISRuntime, FleetResult
from repro.hw.platform import CostTableRegistry, WearableSystem

from tests.core.test_runtime_batched import assert_results_identical

CONSTRAINT = Constraint.max_mae(6.0)


def make_runtime(experiment, batched: bool = True) -> CHRISRuntime:
    """A runtime over a private deep copy of the experiment's zoo."""
    return CHRISRuntime(
        zoo=copy.deepcopy(experiment.zoo),
        engine=experiment.engine,
        system=experiment.system,
        batched=batched,
    )


def assert_fleets_identical(a: FleetResult, b: FleetResult) -> None:
    assert a.subject_ids == b.subject_ids
    for sid in a.subject_ids:
        assert_results_identical(a.results[sid], b.results[sid])
    # NaN-tolerant: an all-empty fleet has undefined (NaN) aggregates.
    np.testing.assert_array_equal(a.mae_bpm, b.mae_bpm)
    np.testing.assert_array_equal(a.mean_watch_energy_j, b.mean_watch_energy_j)
    np.testing.assert_array_equal(a.offload_fraction, b.offload_fraction)


def half_disconnected_trace(n: int) -> np.ndarray:
    connected = np.ones(n, dtype=bool)
    connected[n // 4 : n // 2] = False
    connected[-n // 8 :] = False
    return connected


@pytest.fixture()
def sequential_fleet(calibrated_experiment, small_dataset) -> FleetResult:
    return make_runtime(calibrated_experiment, batched=False).run_many(
        small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
    )


class TestMegaBatchedEquivalence:
    def test_mega_identical_to_sequential(
        self, calibrated_experiment, small_dataset, sequential_fleet
    ):
        mega = make_runtime(calibrated_experiment).run_many(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(sequential_fleet, mega)

    def test_mega_identical_with_connection_traces(
        self, calibrated_experiment, small_dataset
    ):
        """A fleet where some devices lose BLE mid-run replays identically."""
        traces = {
            subject.subject_id: half_disconnected_trace(subject.n_windows)
            for subject in small_dataset.subjects[::2]
        }
        sequential = make_runtime(calibrated_experiment, batched=False).run_many(
            small_dataset.subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            connected_traces=traces,
        )
        mega = make_runtime(calibrated_experiment).run_many(
            small_dataset.subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            connected_traces=traces,
        )
        assert_fleets_identical(sequential, mega)
        traced = sequential.results[small_dataset.subjects[0].subject_id]
        assert len(traced.configuration_segments) > 1

    def test_mega_identical_with_rf_difficulty(
        self, calibrated_experiment, small_dataset, trained_activity_classifier
    ):
        fleets = []
        for batched in (False, True):
            runtime = make_runtime(calibrated_experiment, batched=batched)
            runtime.activity_classifier = trained_activity_classifier
            fleets.append(
                runtime.run_many(
                    small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=False
                )
            )
        assert_fleets_identical(*fleets)

    def test_mega_identical_with_non_fleet_batchable_predictor(
        self, calibrated_experiment, small_dataset
    ):
        """Stateful dispatch through the base ``predict_fleet`` (per-subject
        replay with re-enacted reset boundaries) is decision-identical."""
        fleets = []
        for batched in (False, True):
            runtime = make_runtime(calibrated_experiment, batched=batched)
            # Force one model through the stateful-predictor path; the
            # calibrated model's predictions are reset-insensitive, so
            # the per-slot dispatch must reproduce the oracle.
            runtime.zoo.entry("TimePPG-Big").predictor.FLEET_BATCHABLE = False
            fleets.append(
                runtime.run_many(
                    small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
                )
            )
        assert_fleets_identical(*fleets)
        counts = fleets[1].results[small_dataset.subjects[0].subject_id].per_model_counts()
        assert counts.get("TimePPG-Big", 0) > 0  # the stateful dispatch ran

    def test_mega_rejects_duplicate_subjects(self, calibrated_experiment, small_dataset):
        runtime = make_runtime(calibrated_experiment)
        subject = small_dataset.subjects[0]
        with pytest.raises(ValueError):
            runtime.run_many([subject, subject], CONSTRAINT, use_oracle_difficulty=True)

    def test_trace_for_unknown_subject_rejected(self, calibrated_experiment, small_dataset):
        runtime = make_runtime(calibrated_experiment)
        with pytest.raises(KeyError):
            runtime.run_many(
                small_dataset.subjects,
                CONSTRAINT,
                use_oracle_difficulty=True,
                connected_traces={"nobody": np.ones(4, dtype=bool)},
            )

    def test_planned_counts_match_executed_routing(
        self, calibrated_experiment, small_dataset, sequential_fleet
    ):
        counts = make_runtime(calibrated_experiment).planned_model_window_counts(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        for subject, planned in zip(small_dataset.subjects, counts):
            executed = sequential_fleet.results[subject.subject_id].per_model_counts()
            assert {k: v for k, v in planned.items() if v} == executed


class TestFleetExecutor:
    def test_pool_identical_to_sequential(
        self, calibrated_experiment, small_dataset, sequential_fleet
    ):
        """Sharded replay is bit-identical, shard boundaries and all."""
        executor = FleetExecutor(
            make_runtime(calibrated_experiment), shards_per_worker=4
        )
        sharded_fleet = executor.run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(sequential_fleet, sharded_fleet)

    def test_pool_identical_with_connection_traces(
        self, calibrated_experiment, small_dataset
    ):
        traces = {
            subject.subject_id: half_disconnected_trace(subject.n_windows)
            for subject in small_dataset.subjects[1::2]
        }
        sequential = make_runtime(calibrated_experiment, batched=False).run_many(
            small_dataset.subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            connected_traces=traces,
        )
        executor = FleetExecutor(make_runtime(calibrated_experiment))
        sharded_fleet = executor.run_fleet(
            small_dataset.subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            connected_traces=traces,
        )
        assert_fleets_identical(sequential, sharded_fleet)

    def test_pool_identical_with_rf_difficulty(
        self, calibrated_experiment, small_dataset, trained_activity_classifier
    ):
        """The fleet-wide plans carry the classifier's difficulty stream;
        shards must not re-infer (they would get the same answer, but the
        test pins that the planned-once path stays decision-identical)."""
        reference_runtime = make_runtime(calibrated_experiment, batched=False)
        reference_runtime.activity_classifier = trained_activity_classifier
        sequential = reference_runtime.run_many(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=False
        )
        sharded_runtime = make_runtime(calibrated_experiment)
        sharded_runtime.activity_classifier = trained_activity_classifier
        sharded_fleet = FleetExecutor(sharded_runtime).run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=False
        )
        assert_fleets_identical(sequential, sharded_fleet)

    def test_pool_rejects_trace_for_unknown_subject(
        self, calibrated_experiment, small_dataset
    ):
        executor = FleetExecutor(make_runtime(calibrated_experiment))
        with pytest.raises(KeyError):
            list(
                executor.iter_runs(
                    small_dataset.subjects,
                    CONSTRAINT,
                    use_oracle_difficulty=True,
                    connected_traces={"typo-id": np.ones(4, dtype=bool)},
                )
            )

    def test_iter_runs_early_break_does_not_hang(
        self, calibrated_experiment, small_dataset
    ):
        executor = FleetExecutor(
            make_runtime(calibrated_experiment), shards_per_worker=4
        )
        stream = executor.iter_runs(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        first = next(stream)
        assert first[1].n_windows > 0
        stream.close()  # must leave the remaining shards unexecuted, not hang

    def test_iter_runs_streams_every_subject(
        self, calibrated_experiment, small_dataset, sequential_fleet
    ):
        executor = FleetExecutor(
            make_runtime(calibrated_experiment), shards_per_worker=4
        )
        streamed = dict(
            executor.iter_runs(small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True)
        )
        assert sorted(streamed) == sorted(sequential_fleet.subject_ids)
        for sid, result in streamed.items():
            assert_results_identical(sequential_fleet.results[sid], result)

    def test_repeated_calls_replay_identically(
        self, calibrated_experiment, small_dataset
    ):
        """Executor calls never advance their runtime's predictor streams,
        so back-to-back runs are bit-identical whatever the shard
        layout."""
        sharded = FleetExecutor(make_runtime(calibrated_experiment))
        first = sharded.run_fleet(small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True)
        second = sharded.run_fleet(small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True)
        assert_fleets_identical(first, second)
        one_shard = FleetExecutor(
            make_runtime(calibrated_experiment), shards_per_worker=1
        )
        assert_fleets_identical(
            first,
            one_shard.run_fleet(small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True),
        )

    def test_single_worker_runs_in_process(
        self, calibrated_experiment, small_dataset, sequential_fleet
    ):
        """``max_workers=1`` is still accepted: execution is in process."""
        executor = FleetExecutor(
            make_runtime(calibrated_experiment), max_workers=1
        )
        assert executor.max_workers == 1
        fleet = executor.run_fleet(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(sequential_fleet, fleet)

    def test_shard_bounds_partition_subjects(self, calibrated_experiment):
        executor = FleetExecutor(
            make_runtime(calibrated_experiment), shards_per_worker=6
        )
        bounds = executor.shard_bounds(10)
        assert len(bounds) == 6
        assert executor.shard_bounds(4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10
        for (_, stop), (start, _) in zip(bounds[:-1], bounds[1:]):
            assert stop == start
        assert executor.shard_bounds(0) == []

    def test_duplicate_subjects_rejected(self, calibrated_experiment, small_dataset):
        executor = FleetExecutor(make_runtime(calibrated_experiment))
        subject = small_dataset.subjects[0]
        with pytest.raises(ValueError):
            list(executor.iter_runs([subject, subject], CONSTRAINT))

    def test_validation(self, calibrated_experiment):
        runtime = make_runtime(calibrated_experiment)
        with pytest.raises(ValueError):
            FleetExecutor(runtime, max_workers=0)
        with pytest.raises(ValueError, match="in process"):
            FleetExecutor(runtime, max_workers=2)
        with pytest.raises(ValueError):
            FleetExecutor(runtime, shards_per_worker=0)

    def test_empty_fleet(self, calibrated_experiment):
        executor = FleetExecutor(make_runtime(calibrated_experiment))
        assert list(executor.iter_runs([], CONSTRAINT)) == []
        assert executor.run_fleet([], CONSTRAINT).n_subjects == 0


class TestHeterogeneousFleets:
    def make_systems(self, small_dataset):
        registry = CostTableRegistry()
        stock = WearableSystem(cost_registry=registry)
        compressed = WearableSystem(
            cost_registry=registry, offload_payload_bytes=64 * 4 * 2
        )
        systems = {
            subject.subject_id: compressed if i % 2 else stock
            for i, subject in enumerate(small_dataset.subjects)
        }
        return registry, systems

    def test_mixed_revisions_in_one_run_identical_to_sequential(
        self, calibrated_experiment, small_dataset
    ):
        """One executor now serves a mixed-revision population directly —
        no more one-executor-per-revision (cf. examples/fleet_simulation)."""
        registry, systems = self.make_systems(small_dataset)
        sequential = make_runtime(calibrated_experiment, batched=False).run_many(
            small_dataset.subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            systems=systems,
        )
        executor = FleetExecutor(
            make_runtime(calibrated_experiment), shards_per_worker=4
        )
        sharded = executor.run_fleet(
            small_dataset.subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            systems=systems,
        )
        assert_fleets_identical(sequential, sharded)
        assert registry.n_revisions == 2
        # The revisions genuinely differ on offloaded windows.
        stock_result = sharded.results[small_dataset.subjects[0].subject_id]
        rev_b_result = sharded.results[small_dataset.subjects[1].subject_id]
        stock_radio = stock_result.watch_radio_j[stock_result.offloaded]
        rev_b_radio = rev_b_result.watch_radio_j[rev_b_result.offloaded]
        assert stock_radio.size and rev_b_radio.size
        assert rev_b_radio.max() < stock_radio.min()

    def test_systems_for_unknown_subject_rejected(
        self, calibrated_experiment, small_dataset
    ):
        executor = FleetExecutor(make_runtime(calibrated_experiment))
        with pytest.raises(KeyError, match="systems for unknown subjects"):
            list(
                executor.iter_runs(
                    small_dataset.subjects,
                    CONSTRAINT,
                    use_oracle_difficulty=True,
                    systems={"nobody": WearableSystem()},
                )
            )
        runtime = make_runtime(calibrated_experiment)
        with pytest.raises(KeyError, match="systems for unknown subjects"):
            runtime.run_many(
                small_dataset.subjects,
                CONSTRAINT,
                use_oracle_difficulty=True,
                systems={"nobody": WearableSystem()},
            )


class TestExperimentWiring:
    def test_run_fleet_with_workers(self, calibrated_experiment, small_dataset):
        """The executor path matches the scalar oracle.  Each path runs on
        a private experiment copy: the calibrated models' random streams
        advance across runs, so sharing one zoo between the two calls
        would change the second's predictions."""
        sequential = copy.deepcopy(calibrated_experiment).run_fleet(
            small_dataset, CONSTRAINT, batched=False
        )
        sharded = copy.deepcopy(calibrated_experiment).run_fleet(
            small_dataset, CONSTRAINT
        )
        assert sharded.subject_ids == sequential.subject_ids
        assert sharded.mae_bpm == sequential.mae_bpm

    def test_crossval_accepts_fleet_executor(self, calibrated_experiment, small_dataset):
        from repro.data.dataset import WindowedDataset
        from repro.data.splits import leave_subjects_out_folds
        from repro.eval.crossval import run_cross_validation
        from repro.models import AdaptiveThresholdPredictor

        corpus = WindowedDataset(small_dataset.subjects)
        via_executor = run_cross_validation(
            corpus,
            classical_models={"AT": AdaptiveThresholdPredictor()},
            fold_size=2,
            max_folds=2,
            chris_runtime=FleetExecutor(make_runtime(calibrated_experiment)),
            chris_constraint=CONSTRAINT,
        )
        assert "CHRIS" in via_executor.model_names
        # Executor calls never mutate their runtime, so every fold's CHRIS
        # replay starts from the pristine predictor state — each fold must
        # match a fresh runtime's run on that fold's test subject.
        splits = leave_subjects_out_folds(corpus.subject_ids, fold_size=2)[:2]
        for split, fold in zip(splits, via_executor.folds):
            expected = (
                make_runtime(calibrated_experiment)
                .run_many([corpus.subject(split.test_subject)], CONSTRAINT)
                .mae_bpm
            )
            assert fold.mae_per_model["CHRIS"] == expected


class TestZeroWindowSubjects:
    """Fleets legitimately contain devices that produced no windows yet.

    Regression for the fused template broadcast: a fleet whose *first*
    subject had zero windows broadcast an empty ``(0, ...)`` template
    for signal-free predictors and failed.  Zero-window subjects must
    ride every multi-subject path and contribute an empty result.
    """

    @staticmethod
    def empty_subject(template, subject_id="empty"):
        from repro.data.dataset import WindowedSubject

        return WindowedSubject(
            subject_id=subject_id,
            ppg_windows=np.zeros((0,) + template.ppg_windows.shape[1:]),
            accel_windows=np.zeros((0,) + template.accel_windows.shape[1:]),
            activity=np.zeros(0, dtype=int),
            hr=np.zeros(0, dtype=float),
            spec=template.spec,
        )

    def fleet(self, small_dataset):
        subjects = small_dataset.subjects
        return [
            self.empty_subject(subjects[0], "empty-first"),
            subjects[0],
            self.empty_subject(subjects[0], "empty-mid"),
            subjects[1],
        ]

    def test_mega_matches_sequential_with_empty_subjects(
        self, calibrated_experiment, small_dataset
    ):
        fleet = self.fleet(small_dataset)
        sequential = make_runtime(calibrated_experiment, batched=False).run_many(
            fleet, CONSTRAINT, use_oracle_difficulty=True
        )
        mega = make_runtime(calibrated_experiment).run_many(
            fleet, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_fleets_identical(sequential, mega)
        for sid in ("empty-first", "empty-mid"):
            assert mega.results[sid].n_windows == 0
            assert mega.results[sid].configuration.label()

    def test_pool_executor_handles_empty_subjects(
        self, calibrated_experiment, small_dataset
    ):
        fleet = self.fleet(small_dataset)
        sequential = make_runtime(calibrated_experiment, batched=False).run_many(
            fleet, CONSTRAINT, use_oracle_difficulty=True
        )
        executor = FleetExecutor(
            make_runtime(calibrated_experiment), shards_per_worker=4
        )
        sharded = executor.run_fleet(fleet, CONSTRAINT, use_oracle_difficulty=True)
        assert_fleets_identical(sequential, sharded)

    def test_empty_subject_with_empty_trace_is_accepted(
        self, calibrated_experiment, small_dataset
    ):
        fleet = self.fleet(small_dataset)
        traces = {"empty-first": np.zeros(0, dtype=bool)}
        sequential = make_runtime(calibrated_experiment, batched=False).run_many(
            fleet, CONSTRAINT, use_oracle_difficulty=True, connected_traces=traces
        )
        mega = make_runtime(calibrated_experiment).run_many(
            fleet, CONSTRAINT, use_oracle_difficulty=True, connected_traces=traces
        )
        assert_fleets_identical(sequential, mega)

    def test_empty_subject_with_nonempty_trace_raises(
        self, calibrated_experiment, small_dataset
    ):
        fleet = self.fleet(small_dataset)
        traces = {"empty-first": np.ones(3, dtype=bool)}
        for batched in (False, True):
            with pytest.raises(ValueError, match="one entry per window"):
                make_runtime(calibrated_experiment, batched=batched).run_many(
                    fleet,
                    CONSTRAINT,
                    use_oracle_difficulty=True,
                    connected_traces=traces,
                )

    def test_all_empty_fleet_produces_empty_results(self, calibrated_experiment, small_dataset):
        template = small_dataset.subjects[0]
        fleet = [self.empty_subject(template, f"empty-{i}") for i in range(3)]
        for batched in (False, True):
            result = make_runtime(calibrated_experiment, batched=batched).run_many(
                fleet, CONSTRAINT, use_oracle_difficulty=True
            )
            assert result.n_windows == 0
            assert result.n_subjects == 3
