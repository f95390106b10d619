#!/usr/bin/env python3
"""Crash-safe fleets: kill a run mid-flight, resume it, lose nothing.

The fleet engine journals every shard through a PENDING → RUNNING →
DONE/FAILED lifecycle and stages completed shards' results to disk as
checksummed npz, so a restarted run re-executes only the work a crash
destroyed.  This example walks the whole durability story on a
24-device fleet:

1. build the calibrated CHRIS experiment and run the fleet with a
   ``checkpoint_dir``, then "kill" the process partway through by
   abandoning the result stream — exactly what a power loss leaves
   behind: some shards DONE and staged, the rest not;
2. inspect the journal the crash left on disk;
3. resume: a *fresh* executor over the same directory loads every DONE
   shard from verified staged bytes and executes only the remainder —
   and the merged fleet is bit-identical to a never-interrupted run;
4. corrupt one staged shard on disk and resume again: the checksum
   catches it, and the shard is quietly re-executed, never trusted;
5. inject a deterministic shard fault with the ``repro.core.faults``
   harness: a transiently failing shard is retried with backoff, while a
   persistently failing one is quarantined per-subject instead of
   poisoning the fleet.

Run with:  python examples/fleet_resume.py
"""

import copy
import json
import tempfile
import time
from pathlib import Path

from repro.core import Constraint, FleetExecutor, faults
from repro.core.checkpoint import JOURNAL_NAME
from repro.core.faults import corrupt_staged_shard
from repro.eval import CalibratedExperiment
from repro.eval.benchmarking import synthetic_fleet


def journal_summary(checkpoint_dir: str) -> str:
    """Render the on-disk shard lifecycle, e.g. ``DONE:3 PENDING:5``."""
    journal = json.loads((Path(checkpoint_dir) / JOURNAL_NAME).read_text())
    counts: dict[str, int] = {}
    for shard in journal["shards"]:
        counts[shard["status"]] = counts.get(shard["status"], 0) + 1
    return " ".join(f"{status}:{n}" for status, n in sorted(counts.items()))


def make_executor(experiment, checkpoint_dir=None, **kwargs) -> FleetExecutor:
    """A 4-shard executor over a pristine copy of the calibrated runtime."""
    kwargs.setdefault("shards_per_worker", 4)
    return FleetExecutor(
        copy.deepcopy(experiment.runtime()), checkpoint_dir=checkpoint_dir, **kwargs
    )


def main() -> None:
    print("== assembling the calibrated CHRIS experiment ==")
    experiment = CalibratedExperiment.build(seed=0, n_subjects=6, activity_duration_s=60.0)
    constraint = Constraint.max_mae(5.60)
    subjects = synthetic_fleet(n_subjects=24, n_windows_per_subject=500, seed=0)

    print("== reference: one uninterrupted run ==")
    reference = make_executor(experiment).run_fleet(
        subjects, constraint, use_oracle_difficulty=True
    )
    print(f"  {len(reference.subject_ids)} subjects, MAE {reference.mae_bpm:.2f} BPM\n")

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        print("== checkpointed run, killed after 6 subjects ==")
        stream = make_executor(experiment, checkpoint_dir).iter_runs(
            subjects, constraint, use_oracle_difficulty=True
        )
        for consumed, _ in enumerate(stream, start=1):
            if consumed >= 6:
                break
        stream.close()  # the "power loss": the rest of the run never happens
        print(f"  journal left behind: {journal_summary(checkpoint_dir)}")

        print("== resume: fresh executor over the same directory ==")
        start = time.perf_counter()
        resumed = make_executor(experiment, checkpoint_dir).run_fleet(
            subjects, constraint, use_oracle_difficulty=True
        )
        elapsed = time.perf_counter() - start
        identical = reference.subject_ids == resumed.subject_ids and all(
            reference.results[sid] == resumed.results[sid]
            for sid in reference.subject_ids
        )
        print(f"  journal now: {journal_summary(checkpoint_dir)}  ({elapsed:.2f} s)")
        print(f"  bit-identical to the uninterrupted run: {identical}\n")
        assert identical

        print("== corrupt staged shard 0, resume again ==")
        corrupt_staged_shard(checkpoint_dir, 0, mode="flip")
        healed = make_executor(experiment, checkpoint_dir).run_fleet(
            subjects, constraint, use_oracle_difficulty=True
        )
        identical = all(
            reference.results[sid] == healed.results[sid]
            for sid in reference.subject_ids
        )
        print(f"  checksum rejected the shard; re-executed: identical={identical}\n")
        assert identical

    print("== fault injection: transient retry vs exhausted quarantine ==")
    with tempfile.TemporaryDirectory() as plan_dir:
        plan = faults.FaultPlan(plan_dir)
        plan.arm("fleet.shard", shard=1, times=1)  # transient: first try only
        plan.arm("fleet.shard", shard=3, times=10)  # persistent: every retry
        with faults.injected_faults(plan):
            fleet = make_executor(
                experiment, max_retries=2, retry_backoff_s=0.0
            ).run_fleet(subjects, constraint, use_oracle_difficulty=True)
    quarantined = fleet.failed_subject_ids
    survivors = [sid for sid in reference.subject_ids if sid not in quarantined]
    identical = all(reference.results[sid] == fleet.results[sid] for sid in survivors)
    print("  shard 1 failed once, retried, healed: all its subjects delivered")
    print(f"  shard 3 exhausted retries: {len(quarantined)} subjects quarantined "
          f"({', '.join(quarantined)})")
    print(f"  surviving {len(survivors)} subjects bit-identical: {identical}")
    assert identical and quarantined


if __name__ == "__main__":
    main()
