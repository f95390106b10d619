"""Routing checked window by window against the decision engine itself.

The runtime routes every window through one ``(BLE status, difficulty
level)`` lookup table per planning call, and the scalar oracle executes
the same plans, so the only independent reference left for routing is
:meth:`DecisionEngine.select_model`.  These tests call it directly for
every window of plain and connection-traced subjects, under every
configuration of the profiled table, at every difficulty level, both
connected and disconnected: phone targets must degrade to the watch
while the link is down.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime
from repro.eval.benchmarking import synthetic_workload
from repro.hw.platform import WearableSystem
from repro.hw.profiles import ExecutionTarget

CONSTRAINT = Constraint.max_mae(6.0)


@pytest.fixture(scope="module")
def runtime(calibrated_experiment) -> CHRISRuntime:
    return CHRISRuntime(
        zoo=copy.deepcopy(calibrated_experiment.zoo),
        engine=calibrated_experiment.engine,
        system=calibrated_experiment.system,
    )


@pytest.fixture(scope="module")
def subjects():
    """A plain and a traced subject covering every (level, status) pair."""
    # 180 windows in 2-window activity blocks: every level 1-9, ten times.
    base = synthetic_workload(n_windows=180, window_length=8)
    plain = dataclasses.replace(base, subject_id="plain")
    traced = dataclasses.replace(base, subject_id="traced")
    trace = (np.arange(base.n_windows) // 5) % 2 == 0
    pairs = set(zip(traced.difficulty.tolist(), trace.tolist()))
    assert pairs == {(level, s) for level in range(1, 10) for s in (False, True)}
    return plain, traced, trace


def engine_routing(engine, configuration, levels, connected):
    """Per-window ``(model name, offloaded)`` straight from the engine."""
    names, offloaded, degraded = [], [], 0
    for level, status in zip(levels.tolist(), connected.tolist()):
        name, target = engine.select_model(configuration, level)
        names.append(name)
        offloaded.append(status and target is ExecutionTarget.PHONE)
        degraded += (not status) and target is ExecutionTarget.PHONE
    return np.array(names, dtype=object), np.array(offloaded), degraded


def test_every_planned_window_matches_select_model(
    calibrated_experiment, runtime, subjects
):
    plain, traced, trace = subjects
    names = np.array(runtime.zoo.names, dtype=object)
    degraded = 0
    for configuration in calibrated_experiment.table:
        for connected in (True, False):
            system = WearableSystem(cost_registry=runtime.system.cost_registry)
            if not connected:
                system.ble.disconnect()
            # Plain and traced subjects share one planning call, hence
            # one routing table.
            plans = runtime._plan_fleet(
                [plain, traced],
                None,
                True,
                {"traced": trace},
                systems={"plain": system},
                configuration=configuration,
            )
            for plan, subject, status in zip(
                plans, (plain, traced), (np.full(plain.n_windows, connected), trace)
            ):
                want_names, want_offloaded, n_degraded = engine_routing(
                    runtime.engine, configuration, subject.difficulty, status
                )
                np.testing.assert_array_equal(names[plan.model_codes], want_names)
                np.testing.assert_array_equal(plan.offloaded, want_offloaded)
                assert not plan.offloaded[~status].any()
                degraded += n_degraded
    # The disconnected rows really degraded phone targets to the watch.
    assert degraded > 0


def test_runs_route_like_the_engine(calibrated_experiment, runtime, subjects):
    """The public entry points, batched and scalar, execute those plans."""
    plain, traced, trace = subjects
    engine = runtime.engine
    hybrid = max(calibrated_experiment.table, key=lambda c: c.offload_fraction)
    system = WearableSystem(cost_registry=runtime.system.cost_registry)
    for batched in (True, False):
        result = runtime.run_with_configuration(
            plain, hybrid, use_oracle_difficulty=True, batched=batched, system=system
        )
        want_names, want_offloaded, _ = engine_routing(
            engine, hybrid, plain.difficulty, np.ones(plain.n_windows, dtype=bool)
        )
        np.testing.assert_array_equal(result.model_names, want_names)
        np.testing.assert_array_equal(result.offloaded, want_offloaded)
        assert result.offloaded.any()

        result = runtime.run_with_connection_trace(
            traced,
            CONSTRAINT,
            trace,
            use_oracle_difficulty=True,
            batched=batched,
            system=system,
        )
        assert len(result.configuration_segments) > 1
        for (start, configuration), end in zip(
            result.configuration_segments,
            [s for s, _ in result.configuration_segments[1:]] + [traced.n_windows],
        ):
            want_names, want_offloaded, _ = engine_routing(
                engine, configuration, traced.difficulty[start:end], trace[start:end]
            )
            np.testing.assert_array_equal(result.model_names[start:end], want_names)
            np.testing.assert_array_equal(result.offloaded[start:end], want_offloaded)
        assert not result.offloaded[~trace].any()
