#!/usr/bin/env python3
"""Dump the runtime perf summary to ``BENCH_runtime.json``.

Runs the fixed synthetic workloads of :mod:`repro.eval.benchmarking` —
the 10k-window single-subject workload through both execution paths of
the CHRIS runtime, and the 50-subject x 2k-window fleet through a
per-subject ``run_many`` loop, one fleet-wide ``run_many`` and the
sharded ``FleetExecutor`` (``"fleet"`` block),
through the online dynamic-session scheduler (``"scheduler"`` block),
through the stacked-state dispatch on a stateful-heavy zoo
(``"stateful_fleet"`` block: fused ``predict_fleet`` vs the scalar
per-window oracle), and through the fused inference engine (``"inference"`` block:
batched AT peak detection vs the scalar detector, TimePPG's frozen
inference network vs the training-mode forward, and the
``equivalence="tolerance"`` cross-subject TimePPG fusion vs the bitwise
per-subject dispatch, plus the difficulty detector's batched accelerometer
features vs the per-window loop), through the float32 engine (``"inference_dtype"``
block: batched AT and frozen TimePPG at float32 vs the float64
reference, with per-dtype throughputs and equivalence flags), and
through the crash-safe checkpointed fleet
path (``"checkpoint"`` block: journal + atomic shard staging vs the
unstaged executor, plus the all-shards-staged resume replay), and through
the online serving engine (``"latency"`` block: paced streaming
arrivals under the deadline policy with p50/p95/p99 completion latency,
deadline-miss fraction, and the saturated deadline-vs-drain throughput
ratio) — and writes the measured throughputs, MAE and
offload statistics to ``BENCH_runtime.json`` at the repository root, so
successive PRs can track the perf trajectory of every hot path.  Each
run also appends a timestamped headline snapshot (one JSON line) to
``BENCH_history.jsonl``, so the trajectory survives the per-PR
overwrite of the full summary.

Run with:  PYTHONPATH=src python benchmarks/summarize_runtime.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.eval.benchmarking import (  # noqa: E402
    benchmark_checkpoint,
    benchmark_dtype_inference,
    benchmark_fleet,
    benchmark_inference,
    benchmark_latency,
    benchmark_runtime,
    benchmark_scheduler,
    benchmark_stateful_fleet,
)
from repro.eval.experiment import CalibratedExperiment  # noqa: E402


def main(output_path: Path | None = None) -> dict:
    """Measure the fixed workloads and persist the summary JSON."""
    output_path = output_path or _REPO / "BENCH_runtime.json"
    experiment = CalibratedExperiment.build(seed=0, n_subjects=6, activity_duration_s=60.0)
    outcome = benchmark_runtime(experiment, n_windows=10_000, seed=0)
    outcome["fleet"] = benchmark_fleet(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["scheduler"] = benchmark_scheduler(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["stateful_fleet"] = benchmark_stateful_fleet(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["inference"] = benchmark_inference(experiment, seed=0)
    outcome["inference_dtype"] = benchmark_dtype_inference(seed=0)
    outcome["checkpoint"] = benchmark_checkpoint(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["latency"] = benchmark_latency(experiment, seed=0)
    output_path.write_text(json.dumps(outcome, indent=2) + "\n")
    append_history(outcome, output_path.parent / "BENCH_history.jsonl")
    print(json.dumps(outcome, indent=2))
    print(f"\nwritten to {output_path}")
    return outcome


def append_history(outcome: dict, history_path: Path) -> None:
    """Append a timestamped headline snapshot of one run as a JSON line."""
    snapshot = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "batched_windows_per_s": outcome["batched_windows_per_s"],
        "speedup": outcome["speedup"],
        "fleet_best_windows_per_s": max(
            outcome["fleet"]["sequential_windows_per_s"],
            outcome["fleet"]["mega_windows_per_s"],
            outcome["fleet"]["executor_windows_per_s"],
        ),
        "scheduler_windows_per_s": outcome["scheduler"]["scheduler_windows_per_s"],
        "stateful_stacked_windows_per_s": outcome["stateful_fleet"][
            "stacked_windows_per_s"
        ],
        "detector_features_speedup": outcome["inference"]["detector"]["speedup"],
        "checkpoint_relative_throughput": outcome["checkpoint"][
            "checkpoint_relative_throughput"
        ],
        "latency_p95_s": outcome["latency"]["p95_s"],
        "latency_p99_s": outcome["latency"]["p99_s"],
        "deadline_miss_fraction": outcome["latency"]["deadline_miss_fraction"],
        "deadline_throughput_ratio": outcome["latency"][
            "deadline_throughput_ratio"
        ],
    }
    with history_path.open("a") as sink:
        sink.write(json.dumps(snapshot) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else None)
