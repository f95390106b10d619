"""In-process fleet execution engine.

:class:`FleetExecutor` replays a fixed fleet of subjects through the
fleet kernel of :class:`repro.core.runtime.CHRISRuntime` in contiguous
*shards*, streaming per-subject :class:`~repro.core.runtime.RunResult`
objects back as each shard completes (:meth:`FleetExecutor.iter_runs`)
or merging them into one :class:`~repro.core.runtime.FleetResult` in
fleet order (:meth:`FleetExecutor.run_fleet`).  Everything runs in the
calling process: a shard is the unit of failure isolation and of
durability, not of parallelism.

Decision-for-decision equivalence with sequential replay
--------------------------------------------------------
The executor plans the entire fleet once (planning is vectorized and
side-effect free) and every shard executes its slice of those plans
through the runtime's fleet kernel — or, with ``batched=False``, its
per-window oracle — so difficulty inference and routing never repeat
per shard.  Stateful predictors fuse through
:meth:`~repro.models.base.HeartRatePredictor.predict_fleet` with one
state slot per shard subject: shard boundaries, like subject
boundaries, are state-slot boundaries, not serialization points.
Sequential ``run_many`` resets per-run predictor state before every
subject, but *cross-run* state — the calibrated models' Laplace streams —
advances monotonically across the whole fleet, so a shard that starts at
subject ``k`` must first put every predictor in the state sequential
replay would have reached after subjects ``0..k-1``.  The plans give
each model's per-subject window counts, and every shard fast-forwards a
private deep copy of the runtime with
:meth:`~repro.models.base.HeartRatePredictor.advance_fleet_state` before
executing its subjects.  A shard is therefore a pure function of the
pristine runtime, its plans and its prior window counts: the result is
bit-identical to the sequential path whatever the shard layout, and
whether a shard runs first, after a retry, or after a restart.
(With a runtime built under ``equivalence="tolerance"`` the contract
relaxes exactly as documented in :mod:`repro.core.runtime`:
tolerance-fused models' predictions may move within the documented
atol/rtol because shard boundaries change their fused batch shapes;
every other field stays bit-identical.)

Durability and fault tolerance
------------------------------
A failed shard does not take the fleet down with it: shards are retried
with capped exponential backoff (``max_retries`` / ``retry_backoff_s``),
and a shard that exhausts its retries is **quarantined** — its subjects
surface as per-subject ``FAILED`` entries in
:attr:`~repro.core.runtime.FleetResult.failed` while the rest of the
fleet completes normally.  Every run shares one shard layout, so the
blast radius of a failure is one shard whether or not the run is
checkpointed.

With a ``checkpoint_dir``, runs are additionally *crash-safe*: each
completed shard's results are staged to disk through
:class:`~repro.core.checkpoint.RunStager` (atomic npz + checksummed
manifest) and its lifecycle tracked in a
:class:`~repro.core.checkpoint.FleetJournal`.  A restarted
:meth:`FleetExecutor.iter_runs` / :meth:`FleetExecutor.run_fleet` over
the same fleet loads ``DONE`` shards from the stager and re-executes
only the rest; because every shard fast-forwards predictor state from
the fleet-wide plan regardless of *when* it runs, the resumed result is
**bit-identical** to the uninterrupted one (pinned by the property
suite).  A journal whose fingerprint does not match the current fleet —
different subjects, constraint, zoo, equivalence policy or cost tables —
is stale and discarded; a staged record failing its checksum is
re-executed rather than loaded.
"""

from __future__ import annotations

import copy
import os
import time
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

import repro.core.faults as faults
from repro.core.checkpoint import (
    FleetJournal,
    RunStager,
    ShardStatus,
    StagedShardError,
)
from repro.core.decision_engine import Constraint
from repro.core.runtime import (
    CHRISRuntime,
    FleetResult,
    RunResult,
    _check_unique_subject_ids,
)
from repro.data.dataset import WindowedSubject
from repro.hw.platform import WearableSystem

#: Upper bound on one retry backoff sleep, whatever the attempt count.
_BACKOFF_CAP_S = 2.0


class FleetExecutor:
    """Replay a fleet of subjects shard by shard and stream the results.

    Every :meth:`iter_runs` / :meth:`run_fleet` call replays from the
    runtime's *current* predictor state without mutating it (every shard
    works on a pristine copy), so repeated calls on one executor produce
    identical results whatever the shard layout.  This differs from
    calling ``runtime.run_many`` directly, which advances the calibrated
    models' random streams in place.  The executor plans the whole fleet
    once; every shard — first run, retry or resume — executes its slice
    of those plans.

    Parameters
    ----------
    runtime:
        The CHRIS runtime to replay; each shard executes on a deep copy.
    max_workers:
        Kept for callers that still pass it: ``None`` or ``1``.  Fleets
        execute in process; any other value raises :class:`ValueError`.
    shards_per_worker:
        Number of contiguous shards a fleet is split into (capped at the
        subject count).  A shard is the unit that is retried,
        quarantined, staged and resumed, and the granularity at which
        :meth:`iter_runs` streams results.
    checkpoint_dir:
        Directory for the durable shard journal and staged results (see
        the module docstring).  ``None`` (default) runs without
        checkpointing; a restarted run over the same fleet and the same
        directory resumes instead of replaying, bit-identically.
    max_retries:
        How many times a failed shard is re-executed before its subjects
        are quarantined (surfaced in
        :attr:`~repro.core.runtime.FleetResult.failed`).  ``0`` fails a
        shard on its first error.
    retry_backoff_s:
        Base of the capped exponential backoff between retries of one
        shard (attempt ``k`` sleeps ``min(2 s, retry_backoff_s * 2**k)``).
    """

    def __init__(
        self,
        runtime: CHRISRuntime,
        max_workers: int | None = None,
        shards_per_worker: int = 4,
        checkpoint_dir: "str | os.PathLike | None" = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if max_workers not in (None, 1):
            raise ValueError(
                f"max_workers must be None or 1, got {max_workers}: fleets "
                f"execute in process"
            )
        if shards_per_worker < 1:
            raise ValueError(f"shards_per_worker must be >= 1, got {shards_per_worker}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.runtime = runtime
        self.max_workers = 1
        self.shards_per_worker = shards_per_worker
        self.checkpoint_dir = checkpoint_dir
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s

    def _backoff_delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based), capped."""
        if self.retry_backoff_s <= 0:
            return 0.0
        return min(_BACKOFF_CAP_S, self.retry_backoff_s * (2.0 ** attempt))

    # ------------------------------------------------------------- sharding
    def shard_bounds(self, n_subjects: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` subject ranges, one per shard."""
        if n_subjects <= 0:
            return []
        n_shards = min(n_subjects, self.shards_per_worker)
        edges = np.linspace(0, n_subjects, n_shards + 1, dtype=int)
        return [
            (int(start), int(stop))
            for start, stop in zip(edges[:-1], edges[1:])
            if stop > start
        ]

    def _prior_window_counts(
        self, plans: Sequence, bounds: Sequence[tuple[int, int]]
    ) -> list[dict[str, int]]:
        """Cumulative per-model window counts preceding each shard."""
        names = self.runtime.zoo.names
        cumulative = {name: 0 for name in names}
        prefix = [dict(cumulative)]
        for counts in self.runtime.model_window_counts(plans):
            for name in names:
                cumulative[name] += counts[name]
            prefix.append(dict(cumulative))
        return [prefix[start] for start, _ in bounds]

    # ------------------------------------------------------------ streaming
    def iter_runs(
        self,
        subjects: Iterable[WindowedSubject],
        constraint: Constraint,
        use_oracle_difficulty: bool = False,
        batched: bool = True,
        connected_traces: Mapping[str, np.ndarray] | None = None,
        systems: Mapping[str, WearableSystem] | None = None,
        failures: "dict[str, str] | None" = None,
    ) -> Iterator[tuple[str, RunResult]]:
        """Replay the fleet, yielding ``(subject_id, result)`` as shards finish.

        Results arrive shard by shard in subject order, shards loaded
        from a checkpoint first, so consumers that need fleet order
        should use :meth:`run_fleet` (or reorder themselves).  One run can
        mix hardware revisions: ``systems`` maps subject ids to the
        :class:`~repro.hw.platform.WearableSystem` each device runs.

        A shard that still fails after ``max_retries`` re-executions is
        quarantined: its subjects are *not* yielded and — when the caller
        passes a ``failures`` dict — recorded there as
        ``subject_id -> error`` instead (:meth:`run_fleet` surfaces them
        as :attr:`~repro.core.runtime.FleetResult.failed`).
        """
        subjects = list(subjects)
        traces = dict(connected_traces or {})
        systems = dict(systems or {})
        _check_unique_subject_ids(s.subject_id for s in subjects)
        known = {s.subject_id for s in subjects}
        unknown = sorted(set(traces) - known)
        if unknown:
            raise KeyError(f"connection traces for unknown subjects: {unknown}")
        unknown = sorted(set(systems) - known)
        if unknown:
            raise KeyError(f"systems for unknown subjects: {unknown}")
        if not subjects:
            return
        # Plan the entire fleet once: the plans give every shard's
        # fast-forward counts and are what every shard executes, so
        # difficulty inference and routing never repeat per shard.
        plans = self.runtime._plan_fleet(
            subjects, constraint, use_oracle_difficulty, traces, systems=systems
        )
        bounds = self.shard_bounds(len(subjects))
        priors = self._prior_window_counts(plans, bounds)

        journal = stager = None
        todo = list(range(len(bounds)))
        if self.checkpoint_dir is not None:
            journal, stager, loaded = self._open_checkpoint(
                subjects, bounds, constraint, use_oracle_difficulty, traces, systems
            )
            for index in sorted(loaded):
                yield from loaded[index]
            todo = [
                index
                for index in range(len(bounds))
                if journal.status(index) is not ShardStatus.DONE
            ]

        yield from self._drain_shards(
            self._run_shards(
                subjects, bounds, priors, plans, batched, systems, todo, journal
            ),
            subjects,
            bounds,
            journal,
            stager,
            failures,
        )

    def _drain_shards(
        self,
        runner: Iterator[tuple[int, "list[tuple[str, RunResult]] | None", "str | None"]],
        subjects: Sequence[WindowedSubject],
        bounds: Sequence[tuple[int, int]],
        journal: "FleetJournal | None",
        stager: "RunStager | None",
        failures: "dict[str, str] | None",
    ) -> Iterator[tuple[str, RunResult]]:
        """Stage/journal shard outcomes from a runner and yield its records."""
        for index, records, error in runner:
            if error is not None:
                if journal is not None:
                    journal.mark(index, ShardStatus.FAILED, error=error)
                if failures is not None:
                    start, stop = bounds[index]
                    for subject in subjects[start:stop]:
                        failures[subject.subject_id] = error
                continue
            if stager is not None:
                stager.stage_shard(index, records)
            if journal is not None:
                journal.mark(index, ShardStatus.DONE)
            yield from records

    # ----------------------------------------------------------- durability
    def _fingerprint_payload(
        self,
        subjects: Sequence[WindowedSubject],
        bounds: Sequence[tuple[int, int]],
        constraint: Constraint,
        use_oracle_difficulty: bool,
        traces: Mapping[str, np.ndarray],
        systems: Mapping[str, WearableSystem],
    ) -> dict:
        """Everything that determines the run's results, JSON-serializable.

        Two runs share a journal exactly when this payload matches; any
        drift (subjects, shard layout, constraint, zoo, equivalence
        policy, connectivity, hardware, cost tables) makes an existing
        journal stale.
        """
        registry = self.runtime.system.cost_registry
        return {
            "subjects": [(s.subject_id, int(s.n_windows)) for s in subjects],
            "bounds": [[int(start), int(stop)] for start, stop in bounds],
            "constraint": repr(constraint),
            "zoo": list(self.runtime.zoo.names),
            "equivalence": self.runtime.equivalence,
            "dtype": str(self.runtime.dtype),
            "use_oracle_difficulty": bool(use_oracle_difficulty),
            "traced_subjects": sorted(traces),
            "hardware": sorted(
                [sid, repr(system.hardware_revision())]
                for sid, system in systems.items()
            )
            + [["<default>", repr(self.runtime.system.hardware_revision())]],
            "cost_registry": registry.fingerprint(),
        }

    def _profile_cost_tables(self, systems: Mapping[str, WearableSystem]) -> None:
        """Eagerly profile every revision the fleet can touch.

        Covers the default system plus every distinct hardware revision
        of a heterogeneous fleet, folding private registries into the
        runtime's, so the checkpoint fingerprint covers every cost table
        and stays the same whether or not an earlier run warmed it.
        """
        deployments = [entry.deployment for entry in self.runtime.zoo]
        registry = self.runtime.system.cost_registry
        registry.profile_system(self.runtime.system, deployments)
        for system in systems.values():
            system.cost_registry.profile_system(system, deployments)
            if system.cost_registry is not registry:
                registry.merge(system.cost_registry)

    def _open_checkpoint(
        self,
        subjects: Sequence[WindowedSubject],
        bounds: Sequence[tuple[int, int]],
        constraint: Constraint,
        use_oracle_difficulty: bool,
        traces: Mapping[str, np.ndarray],
        systems: Mapping[str, WearableSystem],
    ) -> tuple[FleetJournal, RunStager, dict[int, list[tuple[str, RunResult]]]]:
        """Open (or resume) the journal/stager pair in ``checkpoint_dir``.

        Returns the journal, the stager, and the verified results of every
        ``DONE`` shard.  A ``DONE`` shard whose staged file fails
        verification is discarded and demoted to ``PENDING``; interrupted
        ``RUNNING`` and previously quarantined ``FAILED`` shards are also
        re-set to ``PENDING`` so a restart retries them.
        """
        self._profile_cost_tables(systems)
        journal = FleetJournal(self.checkpoint_dir)
        stager = RunStager(self.checkpoint_dir)
        payload = self._fingerprint_payload(
            subjects, bounds, constraint, use_oracle_difficulty, traces, systems
        )
        shard_subjects = [
            [s.subject_id for s in subjects[start:stop]] for start, stop in bounds
        ]
        resumed = journal.open_run(
            payload, shard_subjects, self.runtime.system.cost_registry.to_json()
        )
        if not resumed:
            stager.reset()
        loaded: dict[int, list[tuple[str, RunResult]]] = {}
        for index in journal.shards_with(ShardStatus.DONE):
            try:
                loaded[index] = stager.load_shard(index)
            except StagedShardError:
                # Corrupt or torn staged data is re-executed, never trusted.
                stager.discard_shard(index)
                journal.mark(index, ShardStatus.PENDING)
        for status in (ShardStatus.RUNNING, ShardStatus.FAILED):
            for index in journal.shards_with(status):
                journal.mark(index, ShardStatus.PENDING)
        return journal, stager, loaded

    # ------------------------------------------------------------ execution
    def _execute_shard(
        self,
        index: int,
        subjects: Sequence[WindowedSubject],
        bound: tuple[int, int],
        prior: Mapping[str, int],
        plans: list,
        batched: bool,
        systems: Mapping[str, WearableSystem],
    ) -> list[tuple[str, RunResult]]:
        """Execute ``subjects[start:stop]`` from a pristine, fast-forwarded state.

        ``prior`` maps each zoo model to the number of windows the plan
        routes to it across all subjects *before* this shard; advancing
        by those counts reproduces the predictor state sequential replay
        would carry into subject ``start``.
        """
        # Called through the module so a patched ``faults.fire`` sees it.
        faults.fire("fleet.shard", shard=index)
        start, stop = bound
        runtime = copy.deepcopy(self.runtime)
        for entry in runtime.zoo:
            entry.predictor.advance_fleet_state(int(prior.get(entry.name, 0)))
        shard_subjects = subjects[start:stop]
        shard_ids = {s.subject_id for s in shard_subjects}
        shard_systems = {sid: sys for sid, sys in systems.items() if sid in shard_ids}
        fleet = runtime._run_many_planned(
            shard_subjects, plans[start:stop], systems=shard_systems, batched=batched
        )
        return list(fleet.results.items())

    def _run_shards(
        self,
        subjects: Sequence[WindowedSubject],
        bounds: Sequence[tuple[int, int]],
        priors: Sequence[Mapping[str, int]],
        plans: list,
        batched: bool,
        systems: Mapping[str, WearableSystem],
        todo: Sequence[int],
        journal: "FleetJournal | None",
    ) -> Iterator[tuple[int, "list[tuple[str, RunResult]] | None", "str | None"]]:
        """Run shards in order with retry/backoff and quarantine.

        Yields ``(shard_index, records, error)`` — exactly one of
        ``records``/``error`` is set.
        """
        for index in todo:
            attempts = 0
            while True:
                if journal is not None:
                    journal.mark(index, ShardStatus.RUNNING, attempt=True)
                try:
                    records = self._execute_shard(
                        index, subjects, bounds[index], priors[index],
                        plans, batched, systems,
                    )
                except Exception as exc:
                    attempts += 1
                    if attempts > self.max_retries:
                        yield index, None, f"{type(exc).__name__}: {exc}"
                        break
                    time.sleep(self._backoff_delay(attempts - 1))
                else:
                    yield index, records, None
                    break

    # ------------------------------------------------------------ aggregate
    def run_fleet(
        self,
        subjects: Iterable[WindowedSubject],
        constraint: Constraint,
        use_oracle_difficulty: bool = False,
        batched: bool = True,
        connected_traces: Mapping[str, np.ndarray] | None = None,
        systems: Mapping[str, WearableSystem] | None = None,
    ) -> FleetResult:
        """Replay the fleet and merge into fleet (subject) order.

        The merged result is decision-for-decision identical to
        ``runtime.run_many`` over the same subjects.  Subjects whose shard
        exhausted its retries are quarantined into
        :attr:`~repro.core.runtime.FleetResult.failed` instead of raising,
        so one faulty shard degrades the fleet rather than killing it.
        """
        subjects = list(subjects)
        failures: dict[str, str] = {}
        collected = dict(
            self.iter_runs(
                subjects,
                constraint,
                use_oracle_difficulty=use_oracle_difficulty,
                batched=batched,
                connected_traces=connected_traces,
                systems=systems,
                failures=failures,
            )
        )
        fleet = FleetResult()
        for subject in subjects:
            sid = subject.subject_id
            if sid in failures:
                fleet.add_failure(sid, failures[sid])
            else:
                fleet.add(sid, collected[sid])
        return fleet
