"""Unit tests for the runtime's explicit equivalence policy.

The property suite (``test_fleet_properties.py``) pins the tolerance
contract across randomized fleet shapes; these tests pin the mechanics
deterministically: policy validation, the dispatch shape (one fused
cross-subject ``predict`` call under tolerance vs one per-subject batch
under bitwise), bit-identity of the default policy with a real TimePPG
network in the zoo, and the documented atol/rtol bound itself.
"""

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.runtime import (
    CHRISRuntime,
    EQUIVALENCE_ATOL,
    EQUIVALENCE_POLICIES,
    EQUIVALENCE_RTOL,
)

from tests.core.test_fleet_properties import (
    TINY_TIMEPPG_CONFIG,
    _experiment,
    assert_results_equivalent,
    make_subject,
    tolerance_fused_models,
)
from tests.core.test_runtime_batched import assert_results_identical

CONSTRAINT = Constraint.max_mae(6.0)


def timeppg_runtime(equivalence: str) -> CHRISRuntime:
    """A runtime whose TimePPG-Big entry is a real (tiny, frozen) TCN."""
    import copy

    from repro.models.timeppg import TimePPGPredictor

    experiment = _experiment()
    zoo = copy.deepcopy(experiment.zoo)
    zoo.entry("TimePPG-Big").predictor = TimePPGPredictor(
        TINY_TIMEPPG_CONFIG, seed=3
    ).freeze()
    return CHRISRuntime(
        zoo=zoo,
        engine=experiment.engine,
        system=experiment.system,
        equivalence=equivalence,
    )


def small_fleet(n_subjects: int = 4, n_windows: int = 30):
    return [
        make_subject(f"eq-{i:02d}", n_windows, seed=100 + i)
        for i in range(n_subjects)
    ]


def count_predict_calls(runtime: CHRISRuntime, name: str) -> list:
    """Instrument a zoo member's batch ``predict`` with a call recorder."""
    predictor = runtime.zoo.entry(name).predictor
    original = predictor.predict
    calls: list[int] = []

    def counting(ppg_windows, accel_windows=None, **context):
        calls.append(int(np.asarray(ppg_windows).shape[0]))
        return original(ppg_windows, accel_windows, **context)

    predictor.predict = counting
    return calls


class TestPolicyValidation:
    def test_invalid_policy_rejected(self):
        experiment = _experiment()
        with pytest.raises(ValueError, match="equivalence"):
            CHRISRuntime(
                zoo=experiment.zoo,
                engine=experiment.engine,
                equivalence="approximately",
            )

    def test_policies_enumerated(self):
        assert EQUIVALENCE_POLICIES == ("bitwise", "tolerance")

    def test_experiment_runtime_passthrough(self):
        runtime = _experiment().runtime(equivalence="tolerance")
        assert runtime.equivalence == "tolerance"
        assert _experiment().runtime().equivalence == "bitwise"


class TestDispatchShape:
    def test_bitwise_keeps_per_subject_timeppg_batches(self):
        runtime = timeppg_runtime("bitwise")
        subjects = small_fleet()
        calls = count_predict_calls(runtime, "TimePPG-Big")
        fleet = runtime.run_many(subjects, CONSTRAINT, use_oracle_difficulty=True)
        routed = [
            int(np.count_nonzero(r.model_names.astype(str) == "TimePPG-Big"))
            for r in fleet.results.values()
        ]
        assert sum(routed) > 0, "the fleet must route windows to the TCN"
        # One forward batch per subject that received windows: chunk
        # boundaries fall exactly where sequential replay puts them.
        assert calls == [n for n in routed if n]

    def test_tolerance_fuses_one_cross_subject_batch(self):
        runtime = timeppg_runtime("tolerance")
        subjects = small_fleet()
        calls = count_predict_calls(runtime, "TimePPG-Big")
        fleet = runtime.run_many(subjects, CONSTRAINT, use_oracle_difficulty=True)
        total = sum(
            int(np.count_nonzero(r.model_names.astype(str) == "TimePPG-Big"))
            for r in fleet.results.values()
        )
        assert total > 0
        assert calls == [total], "tolerance must fuse the whole fleet into one call"


class TestResults:
    def test_bitwise_mega_is_bit_identical_with_real_timeppg(self):
        subjects = small_fleet()
        sequential = timeppg_runtime("bitwise").run_many(
            subjects, CONSTRAINT, use_oracle_difficulty=True, batched=False
        )
        mega = timeppg_runtime("bitwise").run_many(
            subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        for sid in sequential.subject_ids:
            assert_results_identical(sequential.results[sid], mega.results[sid])

    def test_tolerance_mega_within_documented_bounds(self):
        subjects = small_fleet()
        runtime = timeppg_runtime("tolerance")
        sequential = timeppg_runtime("tolerance").run_many(
            subjects, CONSTRAINT, use_oracle_difficulty=True, batched=False
        )
        mega = runtime.run_many(
            subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        fused = tolerance_fused_models(runtime)
        assert "TimePPG-Big" in fused
        for sid in sequential.subject_ids:
            assert_results_equivalent(sequential.results[sid], mega.results[sid], fused)

    def test_documented_bounds_are_tight_enough_to_catch_divergence(self):
        """A whole-BPM prediction shift must violate the documented bound."""
        reference = np.array([70.0, 120.0])
        shifted = reference + 1.0
        assert not np.allclose(
            shifted, reference, atol=EQUIVALENCE_ATOL, rtol=EQUIVALENCE_RTOL
        )
