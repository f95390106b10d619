"""Stateful-fleet throughput: stacked-state dispatch vs the scalar oracle.

Stateful predictors (``FLEET_BATCHABLE = False``) fuse into the fleet
kernel through stacked-state ``predict_fleet``: one call per model,
state-free work vectorized over the whole stack and the tracking
recurrences advancing all subjects in lock-step.  This benchmark
replays a 50-subject x 2k-window fleet through a stateful-heavy zoo
(spectral tracker + smoothed calibrated trackers) on the fleet kernel
and on the scalar per-window oracle (``batched=False``: for the
spectral tracker one Python ``predict_window`` and its FFTs per
window), verifies bit-identical decisions, and pins the stacked speedup
floor at 2x so regressions fail loudly.  The workload's signals are
white noise, so no accuracy is reported.
"""

import json

import pytest

from benchmarks.conftest import emit
from repro.eval.benchmarking import benchmark_stateful_fleet

#: Required stacked-state-vs-scalar-oracle speedup on the stateful 50x2k
#: workload (measured ~11-14x; the floor leaves room for slower CI
#: hardware, not for regressions back to per-window scans).
MIN_STATEFUL_SPEEDUP = 2.0


@pytest.mark.slow
def test_stateful_fleet_throughput_speedup(experiment, results_dir):
    outcome = benchmark_stateful_fleet(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )

    emit(
        results_dir,
        "stateful_fleet_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_subjects']} subjects x "
                f"{outcome['n_windows_per_subject']} windows "
                f"({outcome['n_windows_total']} total), "
                f"configuration {outcome['configuration']}, "
                f"{outcome['n_stateful_models']} stateful models",
                f"scalar oracle:  {outcome['scalar_windows_per_s']:,.0f} windows/s "
                f"({outcome['scalar_seconds']:.3f} s)",
                f"stacked-state:  {outcome['stacked_windows_per_s']:,.0f} windows/s "
                f"({outcome['stacked_seconds']:.3f} s, "
                f"{outcome['stacked_speedup']:.1f}x, floor {MIN_STATEFUL_SPEEDUP:.0f}x)",
                f"{100 * outcome['offload_fraction']:.1f}% offloaded",
            ]
        ),
    )
    (results_dir / "stateful_fleet_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert outcome["decisions_identical"], (
        "stacked-state dispatch diverged from the scalar oracle"
    )
    assert outcome["n_windows_total"] == 100_000
    assert outcome["n_stateful_models"] == 3
    assert outcome["stacked_speedup"] >= MIN_STATEFUL_SPEEDUP
