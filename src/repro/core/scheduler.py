"""Online fleet scheduler for dynamically arriving/leaving sessions.

:class:`FleetScheduler` generalizes the fixed-subject-list fleet engine
(:meth:`repro.core.runtime.CHRISRuntime.run_many`,
:class:`repro.core.fleet.FleetExecutor`) to an *online* service: sessions
are :meth:`~FleetScheduler.submit`-ted at any time, may be
:meth:`~FleetScheduler.retire`-d while still queued, and completed
:class:`RunResult`\\ s stream back through the
:meth:`~FleetScheduler.as_completed` generator as they finish — there is
no fixed subject list.  Each session can bring its own
:class:`~repro.hw.platform.WearableSystem`, so one scheduler serves a
heterogeneous device population; per-revision costs are shared through
the system's :class:`~repro.hw.platform.CostTableRegistry`.

Execution model
---------------
A dispatcher thread drains the arrival queue into *batches*: every
session waiting when the dispatcher wakes (bounded by
``max_batch_size``) is planned and executed as one cross-subject
mega-batch through the runtime's fleet kernel
(:meth:`~repro.core.runtime.CHRISRuntime._run_many_planned`).  The
dispatcher executes each batch itself, so batches run one at a time in
dispatch order, and arrivals that land while a batch executes keep
coalescing in the queue until the dispatcher comes back for them.
Stateful predictors ride the same fused path: each mega-batch allocates
a stacked :class:`~repro.models.base.FleetState` with one state slot
per session it fuses — an arriving session gets a fresh slot in the
batch that executes it, and a session retired while still queued is
never planned and never occupies one.  Under
load, arrivals therefore coalesce into large fused ``predict`` calls —
the same amortization that makes fleet-wide ``run_many`` several times
faster than a per-subject ``run_many`` loop — while a lightly loaded scheduler
degenerates to one small batch per arrival with minimal latency.

Serving policies and latency
----------------------------
The dispatcher knows two batching policies.  ``policy="drain"`` (the
default, the historical behaviour) releases a batch the moment anything
is waiting.  ``policy="deadline"`` batches *as late as the deadline
allows*: every arrival carries a timestamp and an SLO budget
(per-session ``slo_s`` or the scheduler-wide default), and the
dispatcher holds the queue until either the batch is full
(``max_batch_size`` sessions) or the oldest queued window is within
``deadline_slack_s`` of its deadline — maximizing fusion under an
explicit latency bound instead of dispatch eagerness.  ``close()``
always drains immediately, pause/resume hold and release the buffer
unchanged, and per-session ordering is preserved (batches are still
submission-order prefixes of the queue), so both policies satisfy the
same equivalence contract below.  Every arrival is stamped
(enqueue → dispatch → complete, via an injectable monotonic ``clock`` —
:class:`VirtualClock` makes tests and benchmarks deterministic) and
:meth:`FleetScheduler.latency_stats` aggregates p50/p95/p99 latency,
deadline-miss fraction and batch-size statistics off the hot path.

Streaming dispatch
------------------
:meth:`FleetScheduler.open_stream` turns the scheduler into a true
online server: each stream owns one long-lived
:class:`~repro.models.base.FleetState` slot per stateful model, and
:meth:`StreamSession.push` submits *single arriving windows* that
execute through ``predict_fleet`` continuations — the slot carries the
tracker state across batches, so nothing ever replays a whole session.
Pushes that are still queued coalesce in place (one growing window
batch per stream), which keeps at most one queued session per stream
and lets the deadline policy fuse an entire SLO window's worth of
arrivals into one mega-batch.

Equivalence contract
--------------------
The scheduler is **decision-for-decision identical to sequential
replay**: collecting every completed session's result reproduces exactly
``runtime.run_many(subjects, constraint)`` over the completed sessions
in submission order, no matter how arrivals were batched.  (Under the runtime's ``equivalence="tolerance"``
policy the contract relaxes exactly as documented in
:mod:`repro.core.runtime`: tolerance-fused models' *predictions* may
move within the documented atol/rtol because batch composition depends
on arrival coalescing; routing, costs and every other field stay
bit-identical.)  Batches are planned and executed in submission order
on the scheduler's private stream runtime, so executing a batch
advances its predictor streams exactly as sequential replay would, and
the next batch starts from the state sequential replay reaches.

Sessions retired while still queued are never planned and never advance
any predictor stream — the contract holds over the sessions that
actually ran.

Fault tolerance: degrade, don't die
-----------------------------------
A batch that fails during execution is retried with capped exponential
backoff (``max_retries`` / ``retry_backoff_s``); a batch that exhausts
its retries is **quarantined** — its sessions resolve ``FAILED`` with
the error attached while the scheduler keeps serving every other
session.  Stream accounting is *as-if-planned*: the scheduler's
predictor streams advance by each dispatched batch's planned window
counts whether or not the batch ultimately succeeds, so batches planned
after a quarantined one replay exactly as they would have had it
succeeded — one bad recording cannot invalidate its neighbours.  (The
flip side: after a quarantine, later sessions match sequential replay
over *all dispatched* sessions, not over the successful subset.)

Retries execute on runtimes rebuilt from the construction-time zoo
snapshot fast-forwarded to the batch's planned start position —
cross-run predictor state is a pure function of cumulative windows
consumed (see :meth:`~repro.models.base.HeartRatePredictor.advance_fleet_state`),
so a rebuilt attempt is bit-identical to a first attempt.  Only when
that rebuild *itself* fails (a zoo that cannot be copied or
fast-forwarded) does the scheduler poison itself: queued sessions fail
and further submissions raise, because stream positions can no longer be
reconstructed.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping

import numpy as np

import repro.core.faults as faults
from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime, RunResult
from repro.data.dataset import DEFAULT_WINDOW_SPEC, WindowedSubject, WindowSpec
from repro.hw.platform import WearableSystem
from repro.models.base import FleetState

#: Upper bound on one retry backoff sleep, whatever the attempt count.
_BACKOFF_CAP_S = 2.0

#: Re-poll cadence of a deadline-policy dispatcher holding a batch back.
#: ``Condition.wait`` sleeps in *wall* time while deadlines live in
#: ``clock`` time; a :class:`VirtualClock` advances without notifying the
#: dispatcher, so the hold re-checks the (possibly virtual) deadline at
#: least this often.
_DEADLINE_POLL_S = 0.05


class SessionState(Enum):
    """Lifecycle of one scheduled session."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    RETIRED = "retired"


@dataclass(eq=False)
class FleetSession:
    """Handle for one submitted recording (returned by :meth:`FleetScheduler.submit`).

    The scheduler mutates :attr:`state`, :attr:`result` and :attr:`error`;
    consumers read them after the session is yielded by
    :meth:`FleetScheduler.as_completed` (or after
    :meth:`FleetScheduler.join`).

    Latency bookkeeping: :attr:`arrivals_s` holds one ``clock()`` stamp
    per *arrival event* — a whole-recording :meth:`FleetScheduler.submit`
    is one event, every :meth:`StreamSession.push` coalesced into the
    session adds one — and :attr:`dispatch_s`/:attr:`complete_s` record
    when the session left the queue and resolved.  ``slo_s`` overrides
    the scheduler-wide deadline budget; ``stream_slot`` names the
    long-lived :class:`~repro.models.base.FleetState` slot of a streaming
    session (``None`` for ordinary submissions).
    """

    subject_id: str
    recording: WindowedSubject
    system: WearableSystem | None = None
    connected_trace: np.ndarray | None = None
    ticket: int = 0
    state: SessionState = SessionState.QUEUED
    result: RunResult | None = field(default=None, repr=False)
    error: BaseException | None = field(default=None, repr=False)
    slo_s: float | None = None
    arrivals_s: list[float] = field(default_factory=list, repr=False)
    dispatch_s: float | None = field(default=None, repr=False)
    complete_s: float | None = field(default=None, repr=False)
    stream_slot: int | None = None
    stream: "StreamSession | None" = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """Whether the session reached a terminal state."""
        return self.state in (SessionState.DONE, SessionState.FAILED, SessionState.RETIRED)


class VirtualClock:
    """Deterministic manual time source for latency tests and benchmarks.

    Drop-in for ``time.monotonic``: calling the instance returns the
    current virtual time, and :meth:`sleep` — the drop-in for
    ``time.sleep`` — advances it instantly, so a paced arrival schedule
    replays in microseconds of wall time with bit-identical timestamps
    run after run (the same ``Date``-free determinism the fault harness
    gets from seeded triggers).  Thread-safe: the benchmark's submitter
    advances the clock while the dispatcher reads it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()  # lock-order: _lock
        self._now = float(start)  # guarded-by: _lock

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, duration_s: float) -> None:
        """Advance the clock by ``duration_s`` without blocking."""
        if duration_s < 0:
            raise ValueError(f"cannot sleep a negative duration ({duration_s})")
        with self._lock:
            self._now += float(duration_s)

    def advance(self, duration_s: float) -> None:
        """Alias of :meth:`sleep` for call sites that read better this way."""
        self.sleep(duration_s)


class StreamSession:
    """One open per-window serving stream (see :meth:`FleetScheduler.open_stream`).

    Holds the stream's identity, its long-lived state slot, and the
    coalescing cursor; all mutable fields are touched under the owning
    scheduler's lock.  :meth:`push` submits one arriving window;
    :meth:`close` retires the stream and recycles its state slot once
    every pushed window has resolved.
    """

    def __init__(
        self,
        scheduler: "FleetScheduler",
        stream_id: str,
        slot: int,
        spec: WindowSpec,
        system: WearableSystem | None,
        slo_s: float | None,
    ) -> None:
        self.stream_id = stream_id
        self.slot = slot
        self.spec = spec
        self.system = system
        self.slo_s = slo_s
        self._scheduler = scheduler
        self._open = True
        #: The stream's queued (still coalescible) session, if any.
        self._live: FleetSession | None = None
        #: Sessions pushed but not yet resolved (slot recycling gate).
        self._unresolved = 0
        self._pushes = itertools.count()

    def push(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        activity: int = 0,
        hr: float = float("nan"),
    ) -> FleetSession:
        """Submit one arriving PPG window; returns its session handle.

        The window is stamped with the scheduler clock and dispatched
        through the stream's ``predict_fleet`` continuation — consecutive
        pushes that are still queued coalesce into one growing session
        (the returned handle is then the shared one), so under load a
        whole SLO window's worth of arrivals fuses into a single batch.
        """
        return self._scheduler._push_window(self, ppg_window, accel_window, activity, hr)

    def close(self) -> None:
        """Close the stream (idempotent).

        Further pushes raise; the long-lived state slot is freed — the
        per-subject ``reset()`` boundary of sequential replay — and
        recycled once every already-pushed window has resolved.
        """
        self._scheduler._close_stream(self)


class FleetScheduler:
    """Dynamic-session fleet scheduler over one CHRIS runtime.

    Parameters
    ----------
    runtime:
        The CHRIS runtime to serve; the scheduler works on a private deep
        copy, so the caller's runtime (and its predictor streams) is
        never mutated.
    constraint:
        Operating constraint shared by every session — the same role it
        plays in :meth:`~repro.core.runtime.CHRISRuntime.run_many`, whose
        sequential replay the scheduler reproduces bit-identically.
    max_workers:
        Kept for callers that still pass it: must be ``1``.  The
        dispatcher thread executes every batch; any other value raises
        :class:`ValueError`.
    max_batch_size:
        Upper bound on sessions fused into one mega-batch; ``None``
        (default) fuses everything waiting at dispatch time.
    use_oracle_difficulty:
        Whether planning uses ground-truth difficulty instead of the
        runtime's activity classifier.
    max_retries:
        How many times a failing batch is re-executed before its sessions
        are quarantined as ``FAILED``.  ``0`` fails a batch on its first
        error.
    retry_backoff_s:
        Base of the capped exponential backoff between retries of one
        batch (attempt ``k`` sleeps ``min(2 s, retry_backoff_s * 2**k)``).
    policy:
        Batching policy: ``"drain"`` releases a batch the moment anything
        is waiting (the historical behaviour); ``"deadline"`` holds the
        queue until it is full or the oldest window nears its deadline —
        see *Serving policies and latency* in the module docstring.
    slo_s:
        Scheduler-wide deadline budget (seconds from a window's arrival
        to its completion); sessions/streams may override it.  The paper
        serves one window every ~2 s per wearer, hence the default.
    deadline_slack_s:
        How long before the oldest deadline the dispatcher releases a
        held batch — the headroom left for planning and execution.
    max_streams:
        Capacity of the long-lived per-model state used by
        :meth:`open_stream` (concurrently open streams).
    clock:
        Monotonic time source for arrival stamps and deadlines; defaults
        to ``time.monotonic``.  Inject a :class:`VirtualClock` for
        deterministic latency tests and benchmarks.

    Use as a context manager (or call :meth:`close`) so the dispatcher
    thread is torn down deterministically.
    """

    def __init__(
        self,
        runtime: CHRISRuntime,
        constraint: Constraint,
        max_workers: int = 1,
        max_batch_size: int | None = None,
        use_oracle_difficulty: bool = False,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        policy: str = "drain",
        slo_s: float = 2.0,
        deadline_slack_s: float = 0.25,
        max_streams: int = 64,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if max_workers != 1:
            raise ValueError(
                f"max_workers must be 1, got {max_workers}: batches execute "
                f"in process, on the dispatcher thread"
            )
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if policy not in ("drain", "deadline"):
            raise ValueError(f"policy must be 'drain' or 'deadline', got {policy!r}")
        if slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {slo_s}")
        if deadline_slack_s < 0:
            raise ValueError(f"deadline_slack_s must be >= 0, got {deadline_slack_s}")
        if max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams}")
        self.constraint = constraint
        self.max_workers = max_workers
        self.max_batch_size = max_batch_size
        self.use_oracle_difficulty = use_oracle_difficulty
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.policy = policy
        self.slo_s = slo_s
        self.deadline_slack_s = deadline_slack_s
        self.max_streams = max_streams
        #: Monotonic time source; set once here, read-only afterwards.
        self._clock = clock if clock is not None else time.monotonic
        #: Stream runtime: planned in submission order and fast-forwarded
        #: batch by batch; always holds the predictor state sequential
        #: replay would have after every dispatched session.
        self._runtime = copy.deepcopy(runtime)
        #: Construction-time zoo snapshot plus cumulative per-model window
        #: totals of every batch planned so far.  Together they let the
        #: scheduler *rebuild* any stream position (retry attempts, the
        #: restore after a mid-execution failure): predictor state is a
        #: pure function of cumulative windows consumed.  ``_stream_totals``
        #: is touched only by the dispatcher thread.
        self._pristine_zoo = copy.deepcopy(self._runtime.zoo)
        self._stream_totals: dict[str, int] = {}
        self._tickets = itertools.count()
        # ``_arrivals`` and ``_resolved`` are Conditions built around
        # ``_lock``: entering any of the three holds the same mutex, so
        # the guarded-by pragmas below list all three as aliases.
        self._lock = threading.Lock()  # lock-order: _lock
        self._arrivals = threading.Condition(self._lock)
        self._resolved = threading.Condition(self._lock)
        self._pending: deque[FleetSession] = deque()  # guarded-by: _lock, _arrivals, _resolved
        self._active_ids: set[str] = set()  # guarded-by: _lock, _arrivals, _resolved
        self._unresolved = 0  # guarded-by: _lock, _arrivals, _resolved
        self._closed = False  # guarded-by: _lock, _arrivals, _resolved
        self._paused = False  # guarded-by: _lock, _arrivals, _resolved
        #: Last-resort poisoning flag: set only when a stream position can
        #: no longer be *rebuilt* (the pristine zoo fails to copy or
        #: fast-forward).  Ordinary batch failures never set it — they
        #: retry and then quarantine (see the module docstring).
        self._corrupted = False  # guarded-by: _lock, _arrivals, _resolved
        # ----------------------------------------- serving / latency state
        #: Open streams by id and the freelist of long-lived state slots.
        self._streams: dict[str, StreamSession] = {}  # guarded-by: _lock, _arrivals, _resolved
        self._free_slots = list(range(max_streams - 1, -1, -1))  # guarded-by: _lock, _arrivals, _resolved
        #: Long-lived per-model fleet states backing streaming
        #: continuations.  Created under the lock by the first
        #: ``open_stream`` — before any streaming session can exist — and
        #: thereafter its *contents* are touched only by the dispatcher
        #: thread executing a batch and by slot recycling after a
        #: stream's last session resolved, so the gather/execute/scatter
        #: cycle itself runs unlocked.
        self._fleet_states: dict[str, FleetState] | None = None
        #: Latency samples (one per arrival event): enqueue→dispatch and
        #: enqueue→complete, plus deadline misses and per-batch window
        #: counts.  Appended under the lock at dispatch/resolve time —
        #: bookkeeping stays off the execution hot path — and aggregated
        #: lazily by :meth:`latency_stats`.
        self._dispatch_latencies: list[float] = []  # guarded-by: _lock, _arrivals, _resolved
        self._complete_latencies: list[float] = []  # guarded-by: _lock, _arrivals, _resolved
        self._deadline_misses = 0  # guarded-by: _lock, _arrivals, _resolved
        self._batch_windows: list[int] = []  # guarded-by: _lock, _arrivals, _resolved
        self._done_q: "queue.Queue[FleetSession]" = queue.Queue()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fleet-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------ submission
    def submit(
        self,
        subject_id: str,
        recording: WindowedSubject,
        system: WearableSystem | None = None,
        connected_trace: np.ndarray | None = None,
        slo_s: float | None = None,
    ) -> FleetSession:
        """Enqueue one session; returns its handle immediately.

        ``system`` attaches the subject's own hardware (heterogeneous
        fleets); ``connected_trace`` replays the session through the
        BLE-trace path; ``slo_s`` overrides the scheduler-wide deadline
        budget for this session.  A subject id may be resubmitted once
        its previous session resolved; two live sessions with one id are
        rejected (their results would be indistinguishable).  The session
        id is authoritative: a recording carrying a different
        ``subject_id`` is relabeled, so one recording can back several
        session ids.
        """
        if slo_s is not None and slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {slo_s}")
        if recording.n_windows == 0:
            raise ValueError(
                f"session {subject_id!r}: the recording contains no windows"
            )
        if recording.subject_id != subject_id:
            recording = dataclasses.replace(recording, subject_id=subject_id)
        if connected_trace is not None:
            connected_trace = np.asarray(connected_trace, dtype=bool)
            if connected_trace.shape != (recording.n_windows,):
                raise ValueError(
                    f"connected_trace must have one entry per window "
                    f"({recording.n_windows}), got shape {connected_trace.shape}"
                )
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._corrupted:
                raise RuntimeError(
                    "scheduler predictor streams could not be rebuilt after "
                    "an earlier failure; results could no longer match "
                    "sequential replay — create a fresh scheduler"
                )
            if subject_id in self._active_ids:
                raise ValueError(f"session for subject {subject_id!r} is already live")
            session = FleetSession(
                subject_id=subject_id,
                recording=recording,
                system=system,
                connected_trace=connected_trace,
                ticket=next(self._tickets),
                slo_s=slo_s,
                arrivals_s=[self._clock()],
            )
            self._active_ids.add(subject_id)
            self._pending.append(session)
            self._unresolved += 1
            self._arrivals.notify_all()
        return session

    def retire(self, session: FleetSession) -> bool:
        """Withdraw a session that has not been dispatched yet.

        Returns ``True`` when the session was still queued (it is removed
        without ever touching predictor state) and ``False`` when it
        already started or finished — an online fleet cannot un-run a
        device.
        """
        with self._lock:
            if session.state is not SessionState.QUEUED or session not in self._pending:
                return False
            self._pending.remove(session)
            session.state = SessionState.RETIRED
            self._resolve_locked(session, deliver=False)
        return True

    # -------------------------------------------------------------- streaming
    def open_stream(
        self,
        stream_id: str,
        system: WearableSystem | None = None,
        slo_s: float | None = None,
        spec: WindowSpec | None = None,
    ) -> StreamSession:
        """Open a per-window serving stream backed by a long-lived state slot.

        The returned :class:`StreamSession` accepts single arriving
        windows (:meth:`StreamSession.push`) that dispatch through
        ``predict_fleet`` continuations: each stateful model keeps one
        state slot per open stream, so a wearer's tracker state survives
        across batches without replaying whole sessions.  ``slo_s``
        overrides the scheduler deadline budget for this stream's
        windows; ``spec`` declares the window geometry (defaults to the
        corpus-wide :data:`~repro.data.dataset.DEFAULT_WINDOW_SPEC`).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._corrupted:
                raise RuntimeError(
                    "scheduler predictor streams could not be rebuilt after "
                    "an earlier failure; results could no longer match "
                    "sequential replay — create a fresh scheduler"
                )
            if stream_id in self._streams:
                raise ValueError(f"stream {stream_id!r} is already open")
            if not self._free_slots:
                raise RuntimeError(
                    f"all {self.max_streams} stream slots are in use "
                    f"(close a stream or raise max_streams)"
                )
            if self._fleet_states is None:
                self._fleet_states = {
                    entry.name: entry.predictor.make_fleet_state(self.max_streams)
                    for entry in self._runtime.zoo
                }
            stream = StreamSession(
                self,
                stream_id,
                self._free_slots.pop(),
                spec if spec is not None else DEFAULT_WINDOW_SPEC,
                system,
                slo_s,
            )
            self._streams[stream_id] = stream
        return stream

    def _push_window(
        self,
        stream: StreamSession,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None,
        activity: int,
        hr: float,
    ) -> FleetSession:
        """Enqueue one arriving window of a stream (see :meth:`StreamSession.push`)."""
        ppg = np.atleast_2d(np.asarray(ppg_window, dtype=float))
        if ppg.shape[0] != 1:
            raise ValueError(
                f"push() takes one window at a time, got {ppg.shape[0]} "
                f"(shape {ppg.shape})"
            )
        if accel_window is None:
            accel = np.zeros(ppg.shape + (3,))
        else:
            accel = np.asarray(accel_window, dtype=float)
            if accel.ndim == 2:
                accel = accel[None, ...]
            if accel.shape != ppg.shape + (3,):
                raise ValueError(
                    f"accel window shape {accel.shape} does not match "
                    f"PPG window shape {ppg.shape} (expected "
                    f"{ppg.shape + (3,)})"
                )
        activity_arr = np.asarray([activity], dtype=int)
        hr_arr = np.asarray([hr], dtype=float)
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._corrupted:
                raise RuntimeError(
                    "scheduler predictor streams could not be rebuilt after "
                    "an earlier failure; results could no longer match "
                    "sequential replay — create a fresh scheduler"
                )
            if not stream._open:
                raise RuntimeError(f"stream {stream.stream_id!r} is closed")
            now = self._clock()
            live = stream._live
            if (
                live is not None
                and live.state is SessionState.QUEUED
                and live in self._pending
            ):
                # Coalesce: the stream's queued window batch grows in
                # place, so a stream has at most one queued session —
                # which is what lets the deadline policy fuse a whole SLO
                # window's worth of arrivals into one dispatch.
                rec = live.recording
                live.recording = dataclasses.replace(
                    rec,
                    ppg_windows=np.concatenate([rec.ppg_windows, ppg]),
                    accel_windows=np.concatenate([rec.accel_windows, accel]),
                    activity=np.concatenate([rec.activity, activity_arr]),
                    hr=np.concatenate([rec.hr, hr_arr]),
                )
                live.arrivals_s.append(now)
                return live
            subject_id = f"{stream.stream_id}#{next(stream._pushes)}"
            session = FleetSession(
                subject_id=subject_id,
                recording=WindowedSubject(
                    subject_id=subject_id,
                    ppg_windows=ppg,
                    accel_windows=accel,
                    activity=activity_arr,
                    hr=hr_arr,
                    spec=stream.spec,
                ),
                system=stream.system,
                ticket=next(self._tickets),
                slo_s=stream.slo_s,
                arrivals_s=[now],
                stream_slot=stream.slot,
                stream=stream,
            )
            stream._live = session
            stream._unresolved += 1
            self._active_ids.add(subject_id)
            self._pending.append(session)
            self._unresolved += 1
            self._arrivals.notify_all()
        return session

    def _close_stream(self, stream: StreamSession) -> None:
        """Close a stream; recycle its slot once every push resolved."""
        with self._lock:
            if not stream._open:
                return
            stream._open = False
            self._streams.pop(stream.stream_id, None)
            if stream._unresolved == 0:
                self._release_slot_locked(stream)

    # ------------------------------------------------------------ dispatching
    def _release_due_locked(  # hot-path
        self,
    ) -> bool:  # unguarded-ok: _pending, _paused, _closed
        """Whether the dispatcher should release a batch now (lock held).

        The dispatch fast path, evaluated on every arrival and every
        deadline re-poll: drain releases anything waiting; deadline
        releases a full batch, or holds until the oldest queued window is
        within ``deadline_slack_s`` of its deadline.  ``close()``
        overrides everything so shutdown always drains.
        """
        if self._closed:
            return True
        if not self._pending or self._paused:
            return False
        if self.policy == "drain":
            return True
        if self.max_batch_size is not None and len(self._pending) >= self.max_batch_size:
            return True
        return self._clock() >= self._release_at_locked()

    def _release_at_locked(self) -> float:  # unguarded-ok: _pending
        """Deadline-policy release time of the oldest queued window (lock held)."""
        head = self._pending[0]
        budget = self.slo_s if head.slo_s is None else head.slo_s
        return head.arrivals_s[0] + budget - self.deadline_slack_s

    def _release_wait_locked(self) -> float | None:  # unguarded-ok: _pending, _paused, _closed
        """How long the dispatcher may sleep before re-checking (lock held)."""
        if self.policy == "drain" or self._paused or not self._pending:
            return None
        return min(_DEADLINE_POLL_S, max(0.0, self._release_at_locked() - self._clock()))

    def _dispatch_loop(self) -> None:
        while True:
            with self._arrivals:
                while not self._release_due_locked():
                    self._arrivals.wait(self._release_wait_locked())
                if not self._pending and self._closed:
                    return
                batch: list[FleetSession] = []
                limit = self.max_batch_size or len(self._pending)
                now = self._clock()
                # Streaming and whole-recording sessions never share a
                # batch (streams dispatch through long-lived state slots,
                # recordings through fresh ones): a batch is the longest
                # same-kind submission-order prefix of the queue.
                streaming = self._pending[0].stream_slot is not None
                while (
                    self._pending
                    and len(batch) < limit
                    and (self._pending[0].stream_slot is not None) == streaming
                ):
                    session = self._pending.popleft()
                    session.state = SessionState.RUNNING
                    session.dispatch_s = now
                    self._dispatch_latencies.extend(now - t for t in session.arrivals_s)
                    batch.append(session)
                self._batch_windows.append(sum(s.recording.n_windows for s in batch))
            with self._lock:
                corrupted = self._corrupted
            if corrupted:
                self._fail_batch(
                    batch,
                    RuntimeError(
                        "not dispatched: predictor streams could not be "
                        "rebuilt after an earlier failure"
                    ),
                )
                continue
            try:
                plans, systems, prior, post, slots = self._prepare_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - reported per session
                self._fail_batch(batch, exc)
                continue
            self._execute_batch(batch, plans, systems, prior, post, slots)

    def _prepare_batch(
        self, batch: list[FleetSession]
    ) -> tuple[
        list,
        dict[str, WearableSystem],
        dict[str, int],
        dict[str, int],
        np.ndarray | None,
    ]:
        """Plan a batch on the stream runtime and advance the stream totals.

        Planning is side-effect free.  Returns ``(plans, systems,
        prior_totals, post_totals, fleet_slots)`` — the cumulative
        per-model window totals before and after this batch, which
        retries and the restore after a failed attempt use to rebuild
        stream positions, plus the long-lived state slot of each session
        for a streaming batch (``None`` otherwise; batches are
        kind-homogeneous by construction).
        """
        subjects = [s.recording for s in batch]
        fleet_slots = (
            np.array([s.stream_slot for s in batch], dtype=np.intp)
            if batch[0].stream_slot is not None
            else None
        )
        traces = {
            s.subject_id: s.connected_trace
            for s in batch
            if s.connected_trace is not None
        }
        systems = {s.subject_id: s.system for s in batch if s.system is not None}
        plans = self._runtime._plan_fleet(
            subjects, self.constraint, self.use_oracle_difficulty, traces, systems=systems
        )
        # As-if-planned accounting: the stream position moves past this
        # batch now, whether or not execution ultimately succeeds — a
        # quarantined batch must not invalidate its successors.
        prior = dict(self._stream_totals)
        for counts in self._runtime.model_window_counts(plans):
            for name, count in counts.items():
                self._stream_totals[name] = self._stream_totals.get(name, 0) + count
        post = dict(self._stream_totals)
        return plans, systems, prior, post, fleet_slots

    def _rebuild_runtime(self, totals: Mapping[str, int]) -> CHRISRuntime:
        """A runtime positioned at cumulative stream position ``totals``.

        Built from the construction-time pristine zoo: predictor state is
        a pure function of cumulative windows consumed, so this is
        bit-identical to the live stream runtime at the same position.
        Everything but the zoo is read-only during execution and shared
        with the stream runtime.
        """
        zoo = copy.deepcopy(self._pristine_zoo)
        for entry in zoo:
            entry.predictor.advance_fleet_state(int(totals.get(entry.name, 0)))
        return CHRISRuntime(
            zoo=zoo,
            engine=self._runtime.engine,
            system=self._runtime.system,
            activity_classifier=self._runtime.activity_classifier,
            batched=self._runtime.batched,
            equivalence=self._runtime.equivalence,
            dtype=self._runtime.dtype,
        )

    def _mark_corrupt(self) -> None:
        """Record that stream positions can no longer be reconstructed."""
        with self._lock:
            self._corrupted = True

    def _backoff_delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based), capped."""
        if self.retry_backoff_s <= 0:
            return 0.0
        return min(_BACKOFF_CAP_S, self.retry_backoff_s * (2.0 ** attempt))

    def _execute_batch(
        self,
        batch: list[FleetSession],
        plans: list,
        systems: dict[str, WearableSystem],
        prior_totals: dict[str, int],
        post_totals: dict[str, int],
        fleet_slots: np.ndarray | None = None,
    ) -> None:
        """Execute one batch with retry/backoff and quarantine-on-exhaustion.

        Attempt 0 runs on the stream runtime itself; every retry runs on a
        runtime rebuilt at the batch's planned start position
        (``prior_totals``), which is bit-identical to a first attempt.  A
        first attempt that fails mid-execution leaves the stream runtime
        partway through the batch, so the stream zoo is restored to the
        as-if-planned position (``post_totals``) before anything else
        happens — subsequent batches were planned assuming this batch's
        windows were consumed.  A streaming batch (``fleet_slots``)
        additionally snapshots the long-lived continuation states up
        front and restores them on failure, so a retried or quarantined
        batch never leaves a stream's tracker half-advanced.
        """
        subjects = [s.recording for s in batch]
        state_snapshot = (
            {name: copy.deepcopy(state) for name, state in self._fleet_states.items()}
            if fleet_slots is not None
            else None
        )
        attempt = 0
        while True:
            attempt_runtime = self._runtime
            if attempt > 0:
                try:
                    attempt_runtime = self._rebuild_runtime(prior_totals)
                except BaseException as exc:  # noqa: BLE001 - poisons, reported per session
                    self._mark_corrupt()
                    self._fail_batch(batch, exc)
                    return
            try:
                faults.fire("scheduler.batch")
                fleet = attempt_runtime._run_many_planned(
                    subjects,
                    plans,
                    systems=systems,
                    fleet_states=self._fleet_states if fleet_slots is not None else None,
                    fleet_slots=fleet_slots,
                )
                results = [fleet.results[s.subject_id] for s in batch]
            except BaseException as exc:  # noqa: BLE001 - retried, then reported
                if state_snapshot is not None:
                    # The failed attempt may have scattered partial slot
                    # values; reinstall the pre-batch continuation states
                    # (a fresh copy per attempt, so retries are
                    # bit-identical to a first attempt and a quarantined
                    # batch's windows never reach any tracker).
                    for name, snap in state_snapshot.items():
                        self._fleet_states[name] = copy.deepcopy(snap)
                if attempt == 0:
                    # The failed attempt advanced the stream runtime
                    # partway through the batch; put it back on the
                    # as-if-planned position before retrying (or letting
                    # the next batch run).
                    try:
                        self._runtime.zoo = self._rebuild_runtime(post_totals).zoo
                    except BaseException as rebuild_exc:  # noqa: BLE001
                        self._mark_corrupt()
                        self._fail_batch(batch, rebuild_exc)
                        return
                attempt += 1
                if attempt > self.max_retries:
                    self._fail_batch(batch, exc)
                    return
                time.sleep(self._backoff_delay(attempt - 1))
                continue
            with self._lock:
                now = self._clock()
                for session, result in zip(batch, results):
                    if session.done:
                        continue  # resolved elsewhere (e.g. failed at close)
                    session.result = result
                    session.state = SessionState.DONE
                    session.complete_s = now
                    self._record_latency_locked(session, now)
                    self._resolve_locked(session, deliver=True)
            return

    def _fail_batch(self, batch: list[FleetSession], exc: BaseException) -> None:
        """Mark every *unresolved* session of a batch failed with the error.

        Batches fail as a unit: by the time planning or execution raises,
        the batch's sessions are entangled (shared plans, shared predictor
        stream), so the error is reported on each of them.  Per-session
        input problems are caught at :meth:`submit` (empty recordings,
        trace shape) precisely so they cannot poison a batch.  Sessions
        already in a terminal state are skipped, so a session resolves
        exactly once even when shutdown races an in-flight failure — a
        double resolution would corrupt ``_unresolved`` and hang or
        over-drain :meth:`as_completed`.
        """
        with self._lock:
            for session in batch:
                if session.done:
                    continue
                session.error = exc
                session.state = SessionState.FAILED
                self._resolve_locked(session, deliver=True)

    def _record_latency_locked(
        self, session: FleetSession, now: float
    ) -> None:  # unguarded-ok: _complete_latencies, _deadline_misses
        """Record a completed session's per-arrival latency samples (lock held)."""
        budget = self.slo_s if session.slo_s is None else session.slo_s
        waits = [now - t for t in session.arrivals_s]
        self._complete_latencies.extend(waits)
        self._deadline_misses += sum(1 for w in waits if w > budget)

    def _resolve_locked(self, session: FleetSession, deliver: bool) -> None:  # unguarded-ok: _active_ids, _unresolved, _fleet_states, _free_slots
        """Bookkeeping for a session reaching a terminal state (lock held).

        Every caller (``retire``, ``_fail_batch``, ``_execute_batch``)
        already holds ``_lock`` — the ``_locked`` suffix is the contract,
        hence the attribute-scoped ``unguarded-ok`` pragma above.
        """
        self._active_ids.discard(session.subject_id)
        stream = session.stream
        if stream is not None:
            stream._unresolved -= 1
            if stream._live is session:
                stream._live = None
            if not stream._open and stream._unresolved == 0:
                self._release_slot_locked(stream)
        if deliver:
            self._done_q.put(session)
        self._unresolved -= 1
        self._resolved.notify_all()

    def _release_slot_locked(self, stream: StreamSession) -> None:  # unguarded-ok: _fleet_states, _free_slots
        """Recycle a closed stream's state slot (lock held, stream drained).

        Freeing the slot re-initializes it in every continuation state —
        the per-subject ``reset()`` boundary of sequential replay — so
        the next stream assigned this slot starts fresh.  Safe against
        the executing batch: the stream has no unresolved sessions, so no
        in-flight batch references this slot, and a batch touches only
        its own streams' slots of the state arrays.
        """
        if self._fleet_states is not None:
            for state in self._fleet_states.values():
                state.free([stream.slot])
        self._free_slots.append(stream.slot)

    # --------------------------------------------------------------- results
    def latency_stats(self) -> dict[str, float | int]:
        """Aggregated serving-latency statistics of everything completed so far.

        Per arrival event (a whole-recording submit, or one pushed
        window), two latencies are sampled: enqueue→dispatch (queueing
        delay, ``dispatch_*``) and enqueue→complete (full serving
        latency, ``complete_*``), each aggregated into p50/p95/p99
        percentiles plus the mean.  ``deadline_miss_fraction`` is the
        fraction of completed arrivals whose serving latency exceeded
        their SLO budget; ``n_batches``/``mean_batch_windows`` describe
        how much fusion the batching policy achieved.  Aggregation
        happens here, lazily — the dispatch/resolve paths only append
        raw timestamps — so instrumentation adds nothing measurable to
        the batch hot path.  Percentiles are ``nan`` until a first
        sample exists.
        """
        with self._lock:
            dispatch = np.asarray(self._dispatch_latencies, dtype=float)
            complete = np.asarray(self._complete_latencies, dtype=float)
            misses = self._deadline_misses
            batches = np.asarray(self._batch_windows, dtype=float)
        stats: dict[str, float | int] = {
            "n_windows": int(complete.size),
            "n_batches": int(batches.size),
            "mean_batch_windows": float(batches.mean()) if batches.size else 0.0,
            "deadline_miss_fraction": (
                float(misses / complete.size) if complete.size else 0.0
            ),
        }
        for prefix, samples in (("dispatch", dispatch), ("complete", complete)):
            has = samples.size > 0
            stats[f"{prefix}_mean_s"] = float(samples.mean()) if has else float("nan")
            for q in (50, 95, 99):
                stats[f"{prefix}_p{q}_s"] = (
                    float(np.percentile(samples, q)) if has else float("nan")
                )
        return stats

    def next_done(self, timeout: float | None = None) -> FleetSession | None:
        """The next completed (or failed) session, ``None`` on timeout."""
        try:
            return self._done_q.get(timeout=timeout)
        except queue.Empty:
            return None

    def as_completed(self) -> Iterator[FleetSession]:
        """Yield sessions as they complete, until no work is outstanding.

        The generator ends when every session submitted so far has been
        resolved *and* delivered; submissions made while iterating extend
        the stream.  Results arrive in completion order — consumers that
        need submission order can sort by :attr:`FleetSession.ticket`.
        Intended for a single consumer.
        """
        while True:
            try:
                yield self._done_q.get_nowait()
                continue
            except queue.Empty:
                pass
            with self._lock:
                outstanding = self._unresolved
            if outstanding == 0:
                # Every resolution enqueues its session *before*
                # decrementing _unresolved (both under the lock), so
                # having observed zero, anything resolved so far is
                # already in the queue: one final drain cannot strand a
                # delivery.  A submission arriving after the drain below
                # belongs to the next as_completed() call.
                try:
                    yield self._done_q.get_nowait()
                    continue
                except queue.Empty:
                    with self._lock:
                        if self._unresolved:
                            continue
                    try:
                        yield self._done_q.get_nowait()
                        continue
                    except queue.Empty:
                        return
            session = self.next_done(timeout=0.05)
            if session is not None:
                yield session

    def __iter__(self) -> Iterator[FleetSession]:
        return self.as_completed()

    # ------------------------------------------------------------- lifecycle
    def pause(self) -> None:
        """Hold queued sessions back from dispatch (arrivals still accepted).

        Already-dispatched batches keep running; queued sessions stay
        retirable until :meth:`resume`.  ``close()`` overrides a pause so
        shutdown always drains.
        """
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        """Resume dispatching after :meth:`pause`."""
        with self._lock:
            self._paused = False
            self._arrivals.notify_all()

    def join(self) -> None:
        """Block until every submitted session has resolved."""
        with self._resolved:
            while self._unresolved:
                self._resolved.wait()

    def close(self, wait: bool = True) -> None:
        """Stop accepting sessions; with ``wait``, block until all work drained.

        The dispatcher drains queued sessions either way; ``wait=False``
        only returns without waiting for it.
        """
        with self._lock:
            self._closed = True
            self._arrivals.notify_all()
        if wait:
            self.join()
            self._dispatcher.join()

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)
