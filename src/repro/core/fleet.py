"""Process-pool fleet execution engine.

:class:`FleetExecutor` scales :meth:`repro.core.runtime.CHRISRuntime.run_many`
across CPU cores: the subject list is split into contiguous shards, each
shard is replayed by a ``concurrent.futures`` worker process, and
per-subject :class:`~repro.core.runtime.RunResult` objects are streamed
back to the parent as shards complete (:meth:`FleetExecutor.iter_runs`)
or merged into one :class:`~repro.core.runtime.FleetResult` in fleet
order (:meth:`FleetExecutor.run_fleet`).

Decision-for-decision equivalence with sequential replay
--------------------------------------------------------
The parent plans the entire fleet once (planning is vectorized and
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
each model's per-subject window counts, and every shard task
fast-forwards its private predictor copies with
:meth:`~repro.models.base.HeartRatePredictor.advance_fleet_state` before
executing its subjects.  The result is bit-identical to the sequential
path no matter how many workers execute or how shards are interleaved.
(With a runtime built under ``equivalence="tolerance"`` the contract
relaxes exactly as documented in :mod:`repro.core.runtime`:
tolerance-fused models' predictions may move within the documented
atol/rtol because shard boundaries change their fused batch shapes;
every other field stays bit-identical.)

Cost tables are not re-profiled per worker: the parent eagerly profiles
its :class:`~repro.hw.platform.CostTableRegistry` for the zoo's
deployments (every hardware revision of a heterogeneous fleet),
serializes it to JSON, and each worker loads the table instead of
recomputing it.

Shard tasks deep-copy the pristine worker runtime before touching any
state, so a worker that happens to execute several shards (pools do not
balance tasks evenly) cannot leak predictor state between them.

Shared-memory signals
---------------------
Under the ``fork`` start method workers inherit the subjects' signal
arrays through process memory for free.  ``spawn``-based platforms would
instead pickle the whole fleet once per worker; to avoid that,
:class:`SharedSubjectStore` copies the per-subject arrays into
:mod:`multiprocessing.shared_memory` blocks once, and every worker
*attaches* zero-copy NumPy views.  :class:`FleetExecutor` turns this on
automatically whenever the effective start method is not ``fork`` (and
on request via ``share_signals=True``).

Durability and fault tolerance
------------------------------
A failed shard no longer takes the fleet down with it: shard tasks are
retried with capped exponential backoff (``max_retries`` /
``retry_backoff_s``), a worker *death* (``BrokenProcessPool``) rebuilds
the pool and retries every in-flight shard, and a shard that exhausts
its retries is **quarantined** — its subjects surface as per-subject
``FAILED`` entries in :attr:`~repro.core.runtime.FleetResult.failed`
while the rest of the fleet completes normally.

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
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Iterable, Iterator, Mapping, Sequence

import multiprocessing

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
from repro.hw.platform import CostTableRegistry, WearableSystem

#: Upper bound on one retry backoff sleep, whatever the attempt count.
_BACKOFF_CAP_S = 2.0

#: Worker-process state installed by :func:`_init_fleet_worker`.
#: Deliberately lock-free (REP002 scans this module but nothing here is
#: declared ``# guarded-by``): the dict is written once per *process* by
#: the pool initializer and the executor uses process — not thread —
#: workers, so no two threads ever share it.
_WORKER_STATE: dict = {}


#: ``WindowedSubject`` array fields mirrored into shared memory.  Each
#: block keeps the fleet's own dtype (checked uniform by ``supports``),
#: so attached views are bit-identical to the originals — a float32
#: fleet must not silently become float64 in the workers.
_SHARED_FIELDS: tuple[str, ...] = ("ppg_windows", "accel_windows", "activity", "hr")


class SharedSubjectStore:
    """Fleet signal arrays in :mod:`multiprocessing.shared_memory` blocks.

    One block per array field, holding all subjects' windows concatenated
    along axis 0; the picklable :attr:`manifest` records block names,
    shapes and per-subject offsets, so worker processes :meth:`attach`
    zero-copy views instead of receiving pickled copies.  The creating
    process owns the blocks: call :meth:`close` and :meth:`unlink` when
    every consumer is done (closing the pool first).
    """

    def __init__(self, subjects: Sequence[WindowedSubject]) -> None:
        subjects = list(subjects)
        if not subjects:
            raise ValueError("cannot share an empty fleet")
        if not self.supports(subjects):
            raise ValueError(
                "subjects have inconsistent window geometry; shared-memory "
                "blocks require uniform trailing array dimensions and dtypes"
            )
        self._shms: list[shared_memory.SharedMemory] = []
        blocks: dict[str, tuple[str, tuple[int, ...], str]] = {}
        counts = [s.n_windows for s in subjects]
        bounds = np.concatenate([[0], np.cumsum(counts)])
        try:
            for field in _SHARED_FIELDS:
                dtype = getattr(subjects[0], field).dtype
                arrays = [np.ascontiguousarray(getattr(s, field)) for s in subjects]
                shape = (int(bounds[-1]), *arrays[0].shape[1:])
                size = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
                shm = shared_memory.SharedMemory(create=True, size=size)  # lifecycle-ok: owned via self._shms; close()/unlink() release, and the except below cleans up a partial build
                self._shms.append(shm)
                view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
                for array, start, stop in zip(arrays, bounds[:-1], bounds[1:]):
                    view[start:stop] = array
                blocks[field] = (shm.name, shape, np.dtype(dtype).str)
        except BaseException:
            # A failure on a later block must not strand the earlier ones
            # in /dev/shm until interpreter exit.
            self.close()
            self.unlink()
            raise
        self.manifest = {
            "blocks": blocks,
            "subjects": [
                (s.subject_id, int(start), int(stop), s.spec)
                for s, start, stop in zip(subjects, bounds[:-1], bounds[1:])
            ],
        }

    @staticmethod
    def supports(subjects: Sequence[WindowedSubject]) -> bool:
        """Whether the fleet's arrays can share one block per field."""
        if not subjects:
            return False
        first = subjects[0]
        return all(
            getattr(s, field).shape[1:] == getattr(first, field).shape[1:]
            and getattr(s, field).dtype == getattr(first, field).dtype
            for s in subjects
            for field in _SHARED_FIELDS
        )

    @classmethod
    def attach(cls, manifest: dict) -> tuple[list, list[WindowedSubject]]:
        """Open the blocks of a :attr:`manifest` and rebuild subject views.

        Returns ``(handles, subjects)``; the caller must keep ``handles``
        referenced for as long as the subjects' arrays are in use (the
        views borrow the mapped buffers).  Pool workers share the parent's
        resource tracker, so attaching re-registers the same names
        idempotently and the creator's :meth:`unlink` retires them once.
        """
        handles = []
        views: dict[str, np.ndarray] = {}
        for field, (name, shape, dtype_str) in manifest["blocks"].items():
            shm = shared_memory.SharedMemory(name=name)  # lifecycle-ok: ownership transfers to the returned store; detach() closes every handle
            handles.append(shm)
            views[field] = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=shm.buf)
        subjects = [
            WindowedSubject(
                subject_id=sid,
                ppg_windows=views["ppg_windows"][start:stop],
                accel_windows=views["accel_windows"][start:stop],
                activity=views["activity"][start:stop],
                hr=views["hr"][start:stop],
                spec=spec,
            )
            for sid, start, stop, spec in manifest["subjects"]
        ]
        return handles, subjects

    def close(self) -> None:
        """Detach this process's mappings (the blocks stay alive)."""
        for shm in self._shms:
            shm.close()

    def unlink(self) -> None:
        """Destroy the blocks (call after every consumer detached)."""
        for shm in self._shms:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass


def _init_fleet_worker(
    runtime: CHRISRuntime,
    subjects: "Sequence[WindowedSubject] | None",
    registry_json: str,
    systems: Mapping[str, WearableSystem],
    shared_manifest: "dict | None",
) -> None:
    """Install the shared fleet context in a pool worker.

    With the (default) ``fork`` start method the arguments are inherited
    via process memory, not pickled, so the big signal arrays are never
    serialized; under ``spawn`` the executor ships a
    :class:`SharedSubjectStore` manifest instead and the worker attaches
    zero-copy views (``subjects`` is then ``None``).
    """
    if shared_manifest is not None:
        handles, subjects = SharedSubjectStore.attach(shared_manifest)
        _WORKER_STATE["shared_handles"] = handles
    _WORKER_STATE["runtime"] = runtime
    _WORKER_STATE["subjects"] = subjects
    registry = CostTableRegistry.from_json(registry_json)
    # The parent profiled every revision the fleet can touch before
    # serializing; a miss in the worker therefore means the wrong or a
    # partial table was shipped — fail loudly instead of re-profiling.
    registry.strict = True
    _WORKER_STATE["cost_registry"] = registry
    _WORKER_STATE["systems"] = systems


def _run_fleet_shard(
    shard_index: int,
    start: int,
    stop: int,
    prior_windows: Mapping[str, int],
    plans: list,
    batched: bool,
) -> list[tuple[str, RunResult]]:
    """Execute ``subjects[start:stop]`` from a pristine, fast-forwarded state.

    ``prior_windows`` maps each zoo model to the number of windows the
    plan routes to it across all subjects *before* this shard; advancing
    by those counts reproduces the predictor state sequential replay
    would carry into subject ``start``.  ``plans`` are this shard's slice
    of the parent's fleet plans.
    """
    faults.fire("fleet.shard", shard=shard_index)
    runtime: CHRISRuntime = copy.deepcopy(_WORKER_STATE["runtime"])
    runtime.system.cost_registry = _WORKER_STATE["cost_registry"]
    systems: Mapping[str, WearableSystem] = _WORKER_STATE["systems"]
    for system in systems.values():
        system.cost_registry = _WORKER_STATE["cost_registry"]
    for entry in runtime.zoo:
        entry.predictor.advance_fleet_state(int(prior_windows.get(entry.name, 0)))
    subjects = _WORKER_STATE["subjects"][start:stop]
    shard_ids = {s.subject_id for s in subjects}
    shard_systems = {sid: sys for sid, sys in systems.items() if sid in shard_ids}
    fleet = runtime._run_many_planned(
        subjects, plans, systems=shard_systems, batched=batched
    )
    return list(fleet.results.items())


class FleetExecutor:
    """Shard a fleet of subjects across worker processes and stream results.

    Every :meth:`iter_runs` / :meth:`run_fleet` call replays from the
    runtime's *current* predictor state without mutating it (shards — and
    the in-process fast path — work on pristine copies), so repeated
    calls on one executor produce identical results regardless of worker
    or shard count.  This differs from calling ``runtime.run_many``
    directly, which advances the calibrated models' random streams
    in place.  The executor plans the whole fleet once, in the calling
    process; every shard — pooled, in-process or resumed — executes its
    slice of those plans.

    Parameters
    ----------
    runtime:
        The CHRIS runtime to replicate into workers (its zoo, engine,
        system and difficulty detector must be picklable, which every
        in-repo component is).
    max_workers:
        Worker process count; ``os.cpu_count()`` when omitted.  With one
        worker (or one subject) the executor runs in-process — same
        results, no pool overhead.
    shards_per_worker:
        Target shards per worker; more shards stream results at a finer
        granularity and balance uneven subjects at the cost of a little
        per-shard setup.
    start_method:
        ``multiprocessing`` start method; the platform default when
        omitted (``fork`` on Linux, which shares the subjects' signal
        arrays with workers without serializing them).
    share_signals:
        Whether to put the fleet's signal arrays into
        :class:`SharedSubjectStore` shared-memory blocks that workers
        attach instead of receiving pickled copies.  When omitted, shared
        memory is used exactly when the effective start method is not
        ``fork`` (``spawn``/``forkserver`` platforms), where it replaces
        the per-worker pickling of the whole fleet.  Fleets with
        non-uniform window geometry fall back to pickling.
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
        start_method: str | None = None,
        share_signals: bool | None = None,
        checkpoint_dir: "str | os.PathLike | None" = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if shards_per_worker < 1:
            raise ValueError(f"shards_per_worker must be >= 1, got {shards_per_worker}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.runtime = runtime
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.shards_per_worker = shards_per_worker
        self.start_method = start_method
        self.share_signals = share_signals
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
        n_shards = min(n_subjects, self.max_workers * self.shards_per_worker)
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

        Results within a shard arrive in subject order; across shards they
        arrive in completion order, so consumers that need fleet order
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
        # Plan the entire fleet once, in the parent: the plans give every
        # shard's fast-forward counts and are what every shard executes,
        # so difficulty inference and routing never repeat per shard.
        plans = self.runtime._plan_fleet(
            subjects, constraint, use_oracle_difficulty, traces, systems=systems
        )
        bounds = self.shard_bounds(len(subjects))
        if self.checkpoint_dir is None and (len(bounds) <= 1 or self.max_workers == 1):
            # In-process fast path: no pool, same decisions.  The whole
            # fleet replays as a single local shard on a pristine runtime
            # copy, so the executor never advances the parent runtime's
            # predictor streams — with retry and quarantine semantics
            # identical to the sharded paths.
            whole = [(0, len(subjects))]
            yield from self._drain_shards(
                self._run_shards_inprocess(
                    subjects, whole, [{}], [plans], batched, systems, [0], None
                ),
                subjects,
                whole,
                None,
                None,
                failures,
            )
            return

        priors = self._prior_window_counts(plans, bounds)
        self._profile_cost_tables(systems)
        plan_slices = [plans[start:stop] for start, stop in bounds]

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
            if not todo:
                return

        if self.max_workers == 1 or len(todo) <= 1:
            runner = self._run_shards_inprocess(
                subjects, bounds, priors, plan_slices, batched, systems, todo, journal
            )
        else:
            runner = self._run_shards_pooled(
                subjects, bounds, priors, plan_slices, batched, systems, todo, journal
            )
        yield from self._drain_shards(
            runner, subjects, bounds, journal, stager, failures
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
    def _execute_shard_local(
        self,
        index: int,
        subjects: Sequence[WindowedSubject],
        bound: tuple[int, int],
        prior: Mapping[str, int],
        plans: list,
        batched: bool,
        systems: Mapping[str, WearableSystem],
    ) -> list[tuple[str, RunResult]]:
        """In-process twin of :func:`_run_fleet_shard` (same fault site)."""
        faults.fire("fleet.shard", shard=index)
        start, stop = bound
        runtime = copy.deepcopy(self.runtime)
        for entry in runtime.zoo:
            entry.predictor.advance_fleet_state(int(prior.get(entry.name, 0)))
        shard_subjects = subjects[start:stop]
        shard_ids = {s.subject_id for s in shard_subjects}
        shard_systems = {sid: sys for sid, sys in systems.items() if sid in shard_ids}
        fleet = runtime._run_many_planned(
            shard_subjects, plans, systems=shard_systems, batched=batched
        )
        return list(fleet.results.items())

    def _run_shards_inprocess(
        self,
        subjects: Sequence[WindowedSubject],
        bounds: Sequence[tuple[int, int]],
        priors: Sequence[Mapping[str, int]],
        plan_slices: Sequence[list],
        batched: bool,
        systems: Mapping[str, WearableSystem],
        todo: Sequence[int],
        journal: "FleetJournal | None",
    ) -> Iterator[tuple[int, "list[tuple[str, RunResult]] | None", "str | None"]]:
        """Serial shard runner with retry/backoff and quarantine.

        Yields ``(shard_index, records, error)`` — exactly one of
        ``records``/``error`` is set.
        """
        for index in todo:
            attempts = 0
            while True:
                if journal is not None:
                    journal.mark(index, ShardStatus.RUNNING, attempt=True)
                try:
                    records = self._execute_shard_local(
                        index, subjects, bounds[index], priors[index],
                        plan_slices[index], batched, systems,
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

    def _run_shards_pooled(
        self,
        subjects: Sequence[WindowedSubject],
        bounds: Sequence[tuple[int, int]],
        priors: Sequence[Mapping[str, int]],
        plan_slices: Sequence[list],
        batched: bool,
        systems: Mapping[str, WearableSystem],
        todo: Sequence[int],
        journal: "FleetJournal | None",
    ) -> Iterator[tuple[int, "list[tuple[str, RunResult]] | None", "str | None"]]:
        """Pooled shard runner: retry/backoff, pool rebuild, quarantine.

        Same ``(shard_index, records, error)`` protocol as
        :meth:`_run_shards_inprocess`.  A worker *death*
        (``BrokenProcessPool``) charges an attempt to every shard whose
        future it broke, rebuilds the pool, and resubmits what is left.
        """
        registry_json = self.runtime.system.cost_registry.to_json()
        context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method is not None
            else None
        )
        start_method = (
            self.start_method
            if self.start_method is not None
            else multiprocessing.get_start_method()
        )
        share = (
            self.share_signals
            if self.share_signals is not None
            else start_method != "fork"
        )
        store = (
            SharedSubjectStore(subjects)
            if share and SharedSubjectStore.supports(subjects)
            else None
        )
        attempts = {index: 0 for index in todo}
        inflight: dict[Future, int] = {}
        pool: "ProcessPoolExecutor | None" = None

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(  # lifecycle-ok: ownership transfers to the caller; _run_shards_pooled shuts the pool down in its finally
                max_workers=min(self.max_workers, len(todo)),
                mp_context=context,
                initializer=_init_fleet_worker,
                initargs=(
                    self.runtime,
                    None if store is not None else subjects,
                    registry_json,
                    systems,
                    store.manifest if store is not None else None,
                ),
            )

        def submit(index: int) -> None:
            if journal is not None:
                journal.mark(index, ShardStatus.RUNNING, attempt=True)
            start, stop = bounds[index]
            future = pool.submit(
                _run_fleet_shard,
                index,
                start,
                stop,
                priors[index],
                plan_slices[index],
                batched,
            )
            inflight[future] = index

        try:
            pool = make_pool()
            for index in todo:
                submit(index)
            while inflight:
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                rebuild = False
                retry: list[int] = []
                for future in done:
                    index = inflight.pop(future)
                    try:
                        records = future.result()
                    except BrokenProcessPool:
                        rebuild = True
                        attempts[index] += 1
                        if attempts[index] > self.max_retries:
                            yield index, None, "worker process died (BrokenProcessPool)"
                        else:
                            retry.append(index)
                    except Exception as exc:
                        attempts[index] += 1
                        if attempts[index] > self.max_retries:
                            yield index, None, f"{type(exc).__name__}: {exc}"
                        else:
                            time.sleep(self._backoff_delay(attempts[index] - 1))
                            retry.append(index)
                    else:
                        yield index, records, None
                if rebuild:
                    # The pool is unusable after a worker death; shards
                    # whose futures never resolved are victims, not
                    # causes — resubmit them without charging an attempt.
                    retry.extend(inflight.values())
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = make_pool()
                for index in retry:
                    submit(index)
        finally:
            # Abandoning the generator early (consumer break/close) must
            # not block on shards whose results nobody will read — and
            # the shared-memory blocks must be unlinked even if pool
            # construction itself failed.
            for future in inflight:
                future.cancel()
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            if store is not None:
                store.close()
                store.unlink()

    def _profile_cost_tables(
        self, systems: Mapping[str, WearableSystem] | None = None
    ) -> None:
        """Eagerly profile the cost registry so workers only do table hits.

        Covers the default system plus every distinct hardware revision of
        a heterogeneous fleet — each revision is profiled exactly once.
        """
        deployments = [entry.deployment for entry in self.runtime.zoo]
        registry = self.runtime.system.cost_registry
        registry.profile_system(self.runtime.system, deployments)
        for system in (systems or {}).values():
            system.cost_registry.profile_system(system, deployments)
            if system.cost_registry is not registry:
                # Workers only receive the runtime registry's JSON; fold
                # private registries in so their tables ship too.
                registry.merge(system.cost_registry)

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
        """Replay the fleet in parallel and merge into fleet (subject) order.

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
