"""Property-based equivalence suite for the fleet engines.

The fleet correctness contract — *every* fast multi-subject path is
decision-for-decision identical to the scalar per-window oracle
(``run_many(..., batched=False)``) — is
pinned here across seeded randomized scenarios instead of a handful of
hand-picked fixtures.  Hypothesis draws fleet compositions (subject
counts and lengths, BLE traces or not, heterogeneous hardware revisions,
RF vs oracle difficulty, stateful vs ``FLEET_BATCHABLE`` predictors —
including a fully stateful zoo with a signal-reading spectral tracker —
the ``equivalence`` policy axis (bitwise vs tolerance) with a
real signal-reading TimePPG network in the zoo, the inference precision
axis (float64 vs float32 — float32 always under the tolerance policy
with the wider ``EQUIVALENCE_TOLERANCES`` bounds), executor shard
layouts (``shards_per_worker`` 1/2/4), arrival orderings, batch-size
limits, mid-queue retirements) and every example asserts bit-identical results — except the predictions of
tolerance-fused models under ``equivalence="tolerance"``, which must
stay within the runtime's documented ``EQUIVALENCE_ATOL`` /
``EQUIVALENCE_RTOL`` while every other field stays exact:

* :class:`~repro.core.scheduler.FleetScheduler` — dynamic sessions
  submitted one by one must replay exactly like sequential ``run_many``
  over the completed sessions in submission order, and the scheduler's
  predictor streams must land on exactly the state sequential replay
  reaches (checked through
  :meth:`~repro.models.base.HeartRatePredictor.fleet_state_signature`);
* :class:`~repro.core.fleet.FleetExecutor` — sharded replay with mixed
  hardware revisions in one run, where every shard boundary is a
  predictor fast-forward, plus kill-and-resume of checkpointed runs.

The suite is deterministic (``derandomize=True``): every run replays the
same example corpus, so tier-1 stays reproducible.
"""

from __future__ import annotations

import copy
import functools
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor
from repro.core.runtime import (
    CHRISRuntime,
    EQUIVALENCE_TOLERANCES,
    RunResult,
)
from repro.core.scheduler import FleetScheduler, SessionState
from repro.data.dataset import WindowedSubject
from repro.eval.benchmarking import stateful_zoo
from repro.eval.experiment import CalibratedExperiment
from repro.hw.platform import CostTableRegistry, WearableSystem
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.timeppg import TimePPGConfig, TimePPGPredictor
from repro.signal.windowing import DEFAULT_WINDOW_SPEC

from tests.core.test_runtime_batched import assert_results_identical

CONSTRAINT = Constraint.max_mae(6.0)
WINDOW_LENGTH = 16

#: A real (signal-reading) TimePPG variant small enough for the property
#: suite's 16-sample windows; its forward is the genuine BLAS-backed TCN,
#: which is exactly what the tolerance equivalence axis needs to stress.
TINY_TIMEPPG_CONFIG = TimePPGConfig(
    name="TimePPG-Big",
    input_length=WINDOW_LENGTH,
    block_channels=(2, 2, 2),
    kernel_size=3,
    head_pool=2,
    head_hidden=0,
)


def assert_results_equivalent(
    reference: RunResult,
    result: RunResult,
    tolerance_models: frozenset,
    dtype: str = "float64",
) -> None:
    """Bit-exact equality except tolerance-fused models' predictions.

    Under ``equivalence="tolerance"`` the only field allowed to move —
    and only on windows routed to a tolerance-fused model — is the
    predicted HR, within the runtime's documented per-dtype atol/rtol
    (``EQUIVALENCE_TOLERANCES``).  Everything else (routing, difficulty,
    offload, costs, configuration) must stay bit-identical, whatever the
    policy or precision.
    """
    if not tolerance_models:
        assert_results_identical(reference, result)
        return
    atol, rtol = EQUIVALENCE_TOLERANCES[dtype]
    relaxed = np.isin(reference.model_names.astype(str), sorted(tolerance_models))
    np.testing.assert_array_equal(
        reference.predicted_hr[~relaxed], result.predicted_hr[~relaxed]
    )
    np.testing.assert_allclose(
        result.predicted_hr[relaxed],
        reference.predicted_hr[relaxed],
        atol=atol,
        rtol=rtol,
    )
    exact = copy.copy(result)
    exact.predicted_hr = reference.predicted_hr
    assert_results_identical(reference, exact)

SCENARIO_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=1)
def _experiment() -> CalibratedExperiment:
    """One calibrated experiment shared by every example (read-only)."""
    return CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40.0)


@functools.lru_cache(maxsize=1)
def _classifier() -> ActivityClassifier:
    """An RF difficulty detector trained on the property-suite geometry."""
    rng = np.random.default_rng(99)
    accel = rng.standard_normal((270, WINDOW_LENGTH, 3))
    activity = np.arange(270) % 9
    return ActivityClassifier(random_state=0).fit(accel, activity)


@functools.lru_cache(maxsize=4)
def _hardware(kind: str) -> WearableSystem:
    """Hardware revisions of the heterogeneous population (shared registry)."""
    registry = _hardware_registry()
    if kind == "stock":
        return WearableSystem(cost_registry=registry)
    if kind == "compressed":
        return WearableSystem(cost_registry=registry, offload_payload_bytes=64 * 4 * 2)
    if kind == "fast-period":
        return WearableSystem(cost_registry=registry, prediction_period_s=1.5)
    raise KeyError(kind)


@functools.lru_cache(maxsize=1)
def _hardware_registry() -> CostTableRegistry:
    return CostTableRegistry()


def make_subject(subject_id: str, n_windows: int, seed: int) -> WindowedSubject:
    """A windowed pseudo-recording; signals are noise (calibrated zoo)."""
    rng = np.random.default_rng(seed)
    return WindowedSubject(
        subject_id=subject_id,
        ppg_windows=rng.standard_normal((n_windows, WINDOW_LENGTH)),
        accel_windows=rng.standard_normal((n_windows, WINDOW_LENGTH, 3)),
        activity=rng.integers(0, 9, size=n_windows),
        hr=70.0 + 30.0 * rng.random(n_windows),
        spec=DEFAULT_WINDOW_SPEC,
    )


def make_trace(n_windows: int, seed: int) -> np.ndarray:
    """A BLE trace with at least one status change when possible."""
    rng = np.random.default_rng(seed)
    trace = rng.random(n_windows) < 0.7
    trace[0] = True
    if n_windows > 1:
        trace[n_windows // 2] = False
    return trace


@st.composite
def fleet_scenarios(draw):
    n_subjects = draw(st.integers(min_value=1, max_value=5))
    subjects = []
    for i in range(n_subjects):
        subjects.append(
            {
                "n_windows": draw(st.integers(min_value=8, max_value=60)),
                "seed": draw(st.integers(min_value=0, max_value=2**16)),
                "traced": draw(st.booleans()),
                "hardware": draw(
                    st.sampled_from([None, "stock", "compressed", "fast-period"])
                ),
            }
        )
    return {
        "subjects": subjects,
        "order": draw(st.permutations(range(n_subjects))),
        # Executor shard-layout axis: every shard boundary is a
        # fast-forward of the predictor streams.
        "shards": draw(st.sampled_from([1, 2, 4])),
        "max_batch": draw(st.sampled_from([None, 1, 2])),
        # Serving-policy axis: the deadline dispatcher may hold arrivals
        # back (here with a tiny SLO so examples never stall), but batch
        # composition must never move a decision bit.
        "policy": draw(st.sampled_from(["drain", "deadline"])),
        "use_rf": draw(st.booleans()),
        # "none": all FLEET_BATCHABLE; "flag": one calibrated model forced
        # through the stateful dispatch; "zoo": the fully stateful zoo
        # (spectral tracker + smoothed calibrated trackers).
        "stateful": draw(st.sampled_from(["none", "flag", "zoo"])),
        # Equivalence policy axis: bitwise keeps every path bit-exact;
        # tolerance fuses TOLERANCE_FUSABLE predictors across subjects.
        "equivalence": draw(st.sampled_from(["bitwise", "tolerance"])),
        # Inference precision axis: float32 runs the signal hot path in
        # single precision (always under the tolerance policy, with the
        # wider per-dtype bounds of EQUIVALENCE_TOLERANCES).
        "dtype": draw(st.sampled_from(["float64", "float32"])),
        # Swap a real (signal-reading) TimePPG network into the zoo so
        # the tolerance axis exercises a genuine BLAS forward (ignored
        # by the fully stateful zoo, which replaces every predictor).
        "timeppg": draw(st.booleans()),
        "retire": draw(st.integers(min_value=-1, max_value=n_subjects - 1)),
    }


def build_fleet(scenario):
    """Materialize a scenario: subjects in arrival order, traces, systems."""
    subjects = [
        make_subject(f"prop-{i:02d}", spec["n_windows"], spec["seed"])
        for i, spec in enumerate(scenario["subjects"])
    ]
    arrival = [subjects[i] for i in scenario["order"]]
    traces = {
        subjects[i].subject_id: make_trace(spec["n_windows"], spec["seed"] + 1)
        for i, spec in enumerate(scenario["subjects"])
        if spec["traced"]
    }
    systems = {
        subjects[i].subject_id: _hardware(spec["hardware"])
        for i, spec in enumerate(scenario["subjects"])
        if spec["hardware"] is not None
    }
    return arrival, traces, systems


def tolerance_fused_models(runtime: CHRISRuntime) -> frozenset:
    """Zoo members whose predictions may legally move under tolerance."""
    if runtime.equivalence != "tolerance":
        return frozenset()
    return frozenset(
        entry.name for entry in runtime.zoo if entry.predictor.TOLERANCE_FUSABLE
    )


def make_runtime(scenario) -> CHRISRuntime:
    """A pristine runtime configured for the scenario's difficulty source."""
    experiment = _experiment()
    if scenario["stateful"] == "zoo":
        # Fully stateful: a real spectral tracker plus smoothed calibrated
        # trackers (fresh predictors continuing the cached zoo's streams).
        zoo = stateful_zoo(experiment.zoo)
    else:
        zoo = copy.deepcopy(experiment.zoo)
        if scenario["timeppg"]:
            # A real TCN behind the TimePPG-Big deployment (the model the
            # selected configurations actually route windows to), frozen
            # so the fold + GEMM inference path is the one under test.
            zoo.entry("TimePPG-Big").predictor = TimePPGPredictor(
                TINY_TIMEPPG_CONFIG, seed=7
            ).freeze()
    dtype = scenario.get("dtype", "float64")
    # float32 inference cannot honor a bitwise contract against the
    # float64 reference; it always runs under the tolerance policy.
    equivalence = scenario["equivalence"] if dtype == "float64" else "tolerance"
    runtime = CHRISRuntime(
        zoo=zoo,
        engine=experiment.engine,
        system=experiment.system,
        activity_classifier=_classifier() if scenario["use_rf"] else None,
        equivalence=equivalence,
        dtype=dtype,
    )
    if scenario["stateful"] == "flag":
        # Force one model through the stateful dispatch path.
        runtime.zoo.entry("TimePPG-Big").predictor.FLEET_BATCHABLE = False
    return runtime


@settings(max_examples=15, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios())
def test_scheduler_matches_sequential_replay(scenario):
    """Dynamic sessions == sequential run_many over the completed sessions.

    Covers every scenario axis at once: arrival order defines the
    reference order, retired sessions drop out without touching any
    predictor stream, and the scheduler's final stream state must equal
    the state sequential replay leaves behind.
    """
    arrival, traces, systems = build_fleet(scenario)

    scheduler = FleetScheduler(
        make_runtime(scenario),
        CONSTRAINT,
        max_batch_size=scenario["max_batch"],
        use_oracle_difficulty=not scenario["use_rf"],
        policy=scenario["policy"],
        slo_s=0.01,
        deadline_slack_s=0.0,
    )
    with scheduler:
        sessions = [
            scheduler.submit(
                subject.subject_id,
                subject,
                system=systems.get(subject.subject_id),
                connected_trace=traces.get(subject.subject_id),
            )
            for subject in arrival
        ]
        if scenario["retire"] >= 0:
            scheduler.retire(sessions[scenario["retire"]])
        scheduler.join()

    completed = [s for s in sessions if s.state is SessionState.DONE]
    retired = [s for s in sessions if s.state is SessionState.RETIRED]
    assert len(completed) + len(retired) == len(sessions), [
        (s.subject_id, s.state, s.error) for s in sessions
    ]

    reference = make_runtime(scenario)
    reference_fleet = reference.run_many(
        [s.recording for s in completed],
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        batched=False,
        connected_traces={
            sid: t for sid, t in traces.items() if sid in {s.subject_id for s in completed}
        },
        systems={
            sid: sys for sid, sys in systems.items() if sid in {s.subject_id for s in completed}
        },
    )
    fused = tolerance_fused_models(reference)
    for session in completed:
        assert_results_equivalent(
            reference_fleet.results[session.subject_id],
            session.result,
            fused,
            dtype=str(reference.dtype),
        )

    # The scheduler's stream runtime must land on exactly the cross-run
    # predictor state sequential replay reaches — the invariant that makes
    # the *next* submission equivalent too.
    for entry, ref_entry in zip(scheduler._runtime.zoo, reference.zoo):
        assert entry.predictor.fleet_state_signature() == ref_entry.predictor.fleet_state_signature()


@settings(max_examples=10, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios())
def test_tolerance_fused_timeppg_within_documented_bounds(scenario):
    """The tolerance policy's contract, pinned on every scenario shape.

    Forces ``equivalence="tolerance"`` with a real TimePPG network in
    the zoo (everything else — arrival order, batch limits,
    retirements, traces, hardware mix — still varies), submits
    the fleet as dynamic sessions, and checks the fused results against
    sequential replay: every field bit-identical except the predictions
    of windows routed to the fused TCN, which must stay within the
    runtime's documented ``EQUIVALENCE_ATOL`` / ``EQUIVALENCE_RTOL``.
    """
    scenario = dict(scenario, equivalence="tolerance", timeppg=True)
    if scenario["stateful"] == "zoo":
        # The fully stateful zoo replaces every predictor; keep the real
        # TCN in the zoo so the fused path is actually exercised.
        scenario["stateful"] = "none"
    arrival, traces, systems = build_fleet(scenario)

    scheduler = FleetScheduler(
        make_runtime(scenario),
        CONSTRAINT,
        max_batch_size=scenario["max_batch"],
        use_oracle_difficulty=not scenario["use_rf"],
        policy=scenario["policy"],
        slo_s=0.01,
        deadline_slack_s=0.0,
    )
    with scheduler:
        sessions = [
            scheduler.submit(
                subject.subject_id,
                subject,
                system=systems.get(subject.subject_id),
                connected_trace=traces.get(subject.subject_id),
            )
            for subject in arrival
        ]
        if scenario["retire"] >= 0:
            scheduler.retire(sessions[scenario["retire"]])
        scheduler.join()

    completed = [s for s in sessions if s.state is SessionState.DONE]
    assert all(s.state is not SessionState.FAILED for s in sessions), [
        (s.subject_id, s.state, s.error) for s in sessions
    ]

    reference = make_runtime(scenario)
    fused = tolerance_fused_models(reference)
    assert fused, "the tolerance scenario must carry a TOLERANCE_FUSABLE model"
    reference_fleet = reference.run_many(
        [s.recording for s in completed],
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        batched=False,
        connected_traces={
            sid: t for sid, t in traces.items() if sid in {s.subject_id for s in completed}
        },
        systems={
            sid: sys for sid, sys in systems.items() if sid in {s.subject_id for s in completed}
        },
    )
    for session in completed:
        assert_results_equivalent(
            reference_fleet.results[session.subject_id],
            session.result,
            fused,
            dtype=str(reference.dtype),
        )


@settings(max_examples=6, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios())
def test_pool_executor_matches_sequential_replay(scenario):
    """Sharded replay with mixed hardware == sequential replay."""
    arrival, traces, systems = build_fleet(scenario)
    reference_runtime = make_runtime(scenario)
    sequential = reference_runtime.run_many(
        arrival,
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        batched=False,
        connected_traces=traces,
        systems=systems,
    )
    executor = FleetExecutor(
        make_runtime(scenario), shards_per_worker=scenario["shards"]
    )
    sharded = executor.run_fleet(
        arrival,
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        connected_traces=traces,
        systems=systems,
    )
    assert sharded.subject_ids == sequential.subject_ids
    fused = tolerance_fused_models(reference_runtime)
    for sid in sequential.subject_ids:
        assert_results_equivalent(
            sequential.results[sid],
            sharded.results[sid],
            fused,
            dtype=str(reference_runtime.dtype),
        )


@pytest.mark.parametrize("shards_per_worker", [1, 2, 4])
def test_float32_fleet_decision_compatible_across_workers(shards_per_worker):
    """A float32 fleet run is decision-compatible at any shard layout.

    The sequential float64 bitwise run is the reference: a float32
    executor fleet must route every window to the same model and target
    with the same costs, report float32 predictions, and keep the
    predicted HR of every model within the documented float32 tolerance
    bounds — whether the fleet runs as one, two, or four shards.  (The
    test keeps its name from when the axis was the worker count.)
    """
    scenario64 = {
        "stateful": "none",
        "timeppg": True,
        "use_rf": False,
        "equivalence": "tolerance",
        "dtype": "float64",
    }
    scenario32 = dict(scenario64, dtype="float32")
    subjects = [make_subject(f"f32-{i:02d}", 24 + 8 * i, seed=100 + i) for i in range(3)]

    reference = make_runtime(scenario64).run_many(
        subjects, CONSTRAINT, use_oracle_difficulty=True, batched=False
    )
    executor = FleetExecutor(
        make_runtime(scenario32), shards_per_worker=shards_per_worker
    )
    sharded = executor.run_fleet(subjects, CONSTRAINT, use_oracle_difficulty=True)

    atol, rtol = EQUIVALENCE_TOLERANCES["float32"]
    assert sharded.subject_ids == reference.subject_ids
    for sid in reference.subject_ids:
        ref, res = reference.results[sid], sharded.results[sid]
        assert res.predicted_hr.dtype == np.float32
        np.testing.assert_array_equal(ref.model_names, res.model_names)
        np.testing.assert_array_equal(ref.offloaded, res.offloaded)
        np.testing.assert_array_equal(ref.predicted_difficulty, res.predicted_difficulty)
        np.testing.assert_array_equal(ref.watch_compute_j, res.watch_compute_j)
        np.testing.assert_allclose(
            res.predicted_hr.astype(np.float64),
            ref.predicted_hr,
            atol=atol,
            rtol=rtol,
        )


@settings(max_examples=6, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios(), interrupt_after=st.integers(min_value=0, max_value=4))
def test_resumed_checkpoint_run_is_bit_identical_to_uninterrupted(
    scenario, interrupt_after
):
    """Kill-and-resume == uninterrupted, *bit-identical* — even under the
    tolerance policy.

    Both runs use the same checkpointed shard layout, and every shard is
    a pure function of (pristine runtime, shipped plans, prior window
    counts): whether a shard executes before or after a crash cannot move
    a single bit, and loaded ``DONE`` shards are byte-verified staged
    copies of exactly such executions.  So unlike the sharded-vs-sequential
    comparison (which tolerates fused-model drift), this one asserts
    strict identity on every field.
    """
    arrival, traces, systems = build_fleet(scenario)
    use_oracle = not scenario["use_rf"]

    def executor(directory):
        return FleetExecutor(
            make_runtime(scenario),
            shards_per_worker=scenario["shards"],
            checkpoint_dir=directory,
            retry_backoff_s=0.0,
        )

    def run(ex):
        return ex.run_fleet(
            arrival,
            CONSTRAINT,
            use_oracle_difficulty=use_oracle,
            connected_traces=traces,
            systems=systems,
        )

    with tempfile.TemporaryDirectory() as ref_dir:
        uninterrupted = run(executor(ref_dir))

    with tempfile.TemporaryDirectory() as directory:
        # Crash: consume a prefix of the stream, then kill the run.  The
        # consumed shards are durably staged; the rest are interrupted.
        stream = executor(directory).iter_runs(
            arrival,
            CONSTRAINT,
            use_oracle_difficulty=use_oracle,
            connected_traces=traces,
            systems=systems,
        )
        for consumed, _ in enumerate(stream, start=1):
            if consumed > interrupt_after:
                break
        stream.close()
        resumed = run(executor(directory))

    assert resumed.subject_ids == uninterrupted.subject_ids
    assert resumed.n_failed == 0
    for sid in uninterrupted.subject_ids:
        assert_results_equivalent(
            uninterrupted.results[sid], resumed.results[sid], frozenset()
        )
