"""Inference-engine throughput: batched AT, TimePPG inference, tolerance fusion, detector.

The fused inference engine removes the two Python-level hot loops from
the per-window compute path: the adaptive-threshold raw peak detector
now runs as one batched threshold recurrence + region extraction over
the whole window stack (bit-identical per row to the scalar detector),
and TimePPG's frozen inference network (batch norm folded into the
convolutions, run channel-major with batched GEMMs per conv layer) replaces
the training-oriented layer stack.  On top, the ``equivalence="tolerance"`` policy fuses
TimePPG's forward across subjects in fleet replays.  This benchmark
pins regression floors for all three paths so they fail loudly, plus
one for the difficulty detector's batched accelerometer features
(bit-identical to the per-window loop they replaced).
"""

import json

import pytest

from benchmarks.conftest import emit
from repro.eval.benchmarking import benchmark_inference

#: Required batched-AT speedup over the scalar per-window detector on
#: the 10k-window workload (measured ~7-9x; the floor leaves room for
#: slower CI hardware, not for regressions back to the Python loop).
MIN_AT_SPEEDUP = 5.0

#: Required TimePPG inference-mode speedup over the training-mode
#: forward at equal (evaluation) outputs (measured ~3-4.5x).
MIN_TIMEPPG_SPEEDUP = 2.0

#: Required tolerance-fused fleet speedup over the bitwise per-subject
#: dispatch on the small-session fleet workload (measured ~1.6-1.8x).
MIN_TOLERANCE_FLEET_SPEEDUP = 1.15

#: Required batched detector-feature speedup over the per-window
#: ``accelerometer_features`` loop on the 4,296-window synthetic corpus
#: (measured 10-12x on a 2-vCPU Xeon; windows without derivative plateaus
#: skip the forward fill).
MIN_DETECTOR_SPEEDUP = 3.0


@pytest.mark.slow
def test_inference_engine_throughput(experiment, results_dir):
    outcome = benchmark_inference(experiment, seed=0)
    at, nn, fleet = outcome["at"], outcome["timeppg"], outcome["tolerance_fleet"]
    detector = outcome["detector"]

    emit(
        results_dir,
        "inference_throughput",
        "\n".join(
            [
                f"AT: {at['n_windows']} x {at['window_length']}-sample windows, "
                f"scalar {at['scalar_windows_per_s']:,.0f} w/s, "
                f"batched {at['batched_windows_per_s']:,.0f} w/s "
                f"({at['speedup']:.1f}x, floor {MIN_AT_SPEEDUP:.0f}x)",
                f"TimePPG ({nn['variant']}): training {nn['training_windows_per_s']:,.0f} w/s, "
                f"inference {nn['inference_windows_per_s']:,.0f} w/s "
                f"({nn['speedup']:.1f}x, floor {MIN_TIMEPPG_SPEEDUP:.0f}x)",
                f"tolerance fleet: {fleet['n_subjects']} subjects x "
                f"{fleet['n_windows_per_subject']} windows, "
                f"bitwise {fleet['bitwise_windows_per_s']:,.0f} w/s, "
                f"tolerance {fleet['tolerance_windows_per_s']:,.0f} w/s "
                f"({fleet['speedup']:.2f}x, floor {MIN_TOLERANCE_FLEET_SPEEDUP:.2f}x)",
                f"detector features: {detector['n_windows']} windows, "
                f"scalar {detector['scalar_windows_per_s']:,.0f} w/s, "
                f"batched {detector['batched_windows_per_s']:,.0f} w/s "
                f"({detector['speedup']:.1f}x, floor {MIN_DETECTOR_SPEEDUP:.0f}x)",
            ]
        ),
    )
    (results_dir / "inference_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert at["bit_identical"], "batched AT diverged from the scalar detector"
    assert at["speedup"] >= MIN_AT_SPEEDUP
    assert nn["outputs_equal"], "folded inference diverged from the eval forward"
    assert nn["speedup"] >= MIN_TIMEPPG_SPEEDUP
    assert fleet["bitwise_decisions_identical"], (
        "bitwise fleet replay must stay bit-identical with a real TimePPG"
    )
    assert fleet["within_documented_tolerance"], (
        "tolerance-fused fleet left the documented atol/rtol"
    )
    assert fleet["speedup"] >= MIN_TOLERANCE_FLEET_SPEEDUP
    assert detector["bit_identical"], "batched detector features diverged from the scalar loop"
    assert detector["speedup"] >= MIN_DETECTOR_SPEEDUP
