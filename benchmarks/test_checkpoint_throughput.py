"""Checkpointed-fleet throughput benchmark: the durability tax floor.

Crash-safe fleet execution pays for its journal writes and atomic shard
staging on every run; this benchmark replays the 50-subject x 2k-window
fleet through the unstaged executor and the checkpointed one — same
shard layout, both via the scalar (per-window streaming) replay, so the
two sides take the identical execution path and only durability
differs — verifies both (and the all-shards-staged resume replay)
reproduce identical decisions, and pins the checkpointed throughput at
>= 0.9x the unstaged executor so the durability layer can never quietly
eat more than ~10% of the fleet replay.  The mega-batched replay vectorizes per-window compute down to
~1µs, making the same absolute staging cost a much larger fraction of a
much smaller wall time; its ratio is emitted for visibility, not pinned.
"""

import json

import pytest

from benchmarks.conftest import emit
from repro.eval.benchmarking import benchmark_checkpoint

#: Required checkpointed/unstaged throughput ratio on the 50x2k workload.
MIN_RELATIVE_THROUGHPUT = 0.9


@pytest.mark.slow
def test_checkpoint_throughput_floor(experiment, results_dir):
    outcome = benchmark_checkpoint(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )

    emit(
        results_dir,
        "checkpoint_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_subjects']} subjects x "
                f"{outcome['n_windows_per_subject']} windows "
                f"({outcome['n_windows_total']} total), scalar replay",
                f"unstaged:     {outcome['unstaged_windows_per_s']:,.0f} windows/s "
                f"({outcome['unstaged_seconds']:.3f} s)",
                f"checkpointed: {outcome['checkpointed_windows_per_s']:,.0f} windows/s "
                f"({outcome['checkpointed_seconds']:.3f} s, "
                f"{outcome['checkpoint_relative_throughput']:.2f}x of unstaged, "
                f"floor {MIN_RELATIVE_THROUGHPUT:.1f}x)",
                f"resume:       {outcome['resume_windows_per_s']:,.0f} windows/s "
                f"({outcome['resume_seconds']:.3f} s, "
                f"{outcome['resume_speedup']:.1f}x over re-execution)",
                f"mega-batched: {outcome['batched_relative_throughput']:.2f}x of "
                f"unstaged ({outcome['batched_checkpointed_seconds']:.3f} s vs "
                f"{outcome['batched_unstaged_seconds']:.3f} s, informational)",
            ]
        ),
    )
    (results_dir / "checkpoint_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert outcome["decisions_identical"], (
        "checkpointed/resumed fleet diverged from the unstaged replay"
    )
    assert outcome["n_windows_total"] == 100_000
    assert outcome["checkpoint_relative_throughput"] >= MIN_RELATIVE_THROUGHPUT
