"""CHRIS runtime simulator (vectorized batched execution engine).

The runtime plays a windowed recording through the full CHRIS loop: the
decision engine selects a configuration from the stored table according to
the user constraint and the BLE connection status, then for every window
the activity recognizer predicts a difficulty level, the configuration
routes the window to one of its two models (watch or phone), the selected
predictor produces the HR estimate, and the hardware co-model charges the
corresponding energy.  The result mirrors what the paper measures on the
real system: per-window decisions, overall MAE, per-prediction smartwatch
energy, and offload statistics.

Execution model
---------------
Every run is a fleet: :meth:`CHRISRuntime.run`,
:meth:`~CHRISRuntime.run_with_configuration` and
:meth:`~CHRISRuntime.run_with_connection_trace` replay a fleet of one
through the same two phases as :meth:`CHRISRuntime.run_many`:

1. **Plan** — difficulty prediction, configuration selection and
   per-window model routing are computed up front as NumPy arrays.  The
   engine selects one configuration per BLE status (a subject with a
   connection trace re-selects at every status change and records each
   switch as a configuration segment), and a routing table indexed by
   ``(status, difficulty level)`` routes every window by one gather;
   phone targets degrade to the watch while disconnected.
2. **Execute** — one fleet-wide kernel stacks all subjects' windows into
   per-model groups and dispatches **one** fused call per model for the
   whole population, then fills every per-window cost by one gather from
   a ``(hardware revision, model, target)`` table of cached costs
   (:meth:`repro.hw.platform.WearableSystem.cached_prediction_cost`).
   How the fused call looks depends on the predictor:

   * ``FLEET_BATCHABLE = True`` — predictions read no per-run temporal
     state, so the fused call is a plain batch
     :meth:`~repro.models.base.HeartRatePredictor.predict` over the stack.
   * ``FLEET_BATCHABLE = False`` (stateful trackers, anything consuming
     ``_last_estimate``-style state) — the fused call is
     :meth:`~repro.models.base.HeartRatePredictor.predict_fleet`: a
     :class:`~repro.models.base.FleetState` carries one state slot per
     subject, a ``subject_index`` vector names each window's slot, and
     the per-subject ``reset()`` boundaries of sequential replay become
     fresh state slots.  Vectorized implementations advance all
     subjects' streams in lock-step.

   Within each group the windows keep subject-major recording order, so
   every predictor sees exactly the inputs, in exactly the order, of
   sequential per-window replay.  Pass ``batched=False`` (per call, or
   to the constructor) to execute the same plans through the reference
   per-window oracle instead: one ``predict_window`` call per window,
   predictor state reset per subject, uncached costs.  The two are
   decision-for-decision identical.

Results are stored as a struct-of-arrays :class:`RunResult`; the familiar
:class:`WindowDecision` objects are materialized lazily on first access to
:attr:`RunResult.decisions`.  :meth:`CHRISRuntime.run_many` aggregates a
fleet into a :class:`FleetResult`.  Multi-process sharding on top of the
kernel lives in :mod:`repro.core.fleet`; dynamically arriving/leaving
sessions in :mod:`repro.core.scheduler` (each batch allocates state
slots for the sessions it fuses — arrivals get fresh slots, retired
sessions are never planned and never occupy one).  Zero-window subjects
are legal in every multi-subject path and contribute an empty result;
single-subject runs reject an empty recording.

Equivalence policy
------------------
How strictly the fast paths must reproduce sequential replay is an
explicit runtime policy (``CHRISRuntime(equivalence=...)``):

* ``"bitwise"`` (default) — every fast path is **bit-identical** to
  sequential replay.  Predictors whose batch lowering is not
  row-bit-stable across batch shapes (``TOLERANCE_FUSABLE``, i.e. the
  TimePPG TCNs, whose BLAS accumulation blocking depends on the batch
  size) keep per-subject forward batches so every chunk boundary falls
  exactly where sequential replay puts it.
* ``"tolerance"`` — those predictors join the cross-subject fused
  mega-batch like every other model: one plain batch ``predict`` per
  model for the whole fleet.  Model routing, offload decisions, energy
  costs and configuration choices are **still bit-identical** (they
  never depend on a predicted HR value); only the predicted BPM of
  tolerance-fused models may move, and by no more than the documented
  :data:`EQUIVALENCE_ATOL` / :data:`EQUIVALENCE_RTOL` — the
  floating-point reassociation of fusing the same windows through
  different batch shapes, pinned by the property suite
  (``tests/core/test_fleet_properties.py``) across shard layouts,
  arrivals and retirements.

The policy rides every derived engine automatically:
:class:`~repro.core.fleet.FleetExecutor` shards and
:class:`~repro.core.scheduler.FleetScheduler` mega-batches replicate
the runtime they were built from, policy included.

The inference dtype is part of the contract: a float64 runtime (the
default) defaults to ``"bitwise"``, a ``CHRISRuntime(dtype="float32")``
runs the whole signal hot path in single precision and therefore always
runs under ``"tolerance"`` with the wider per-dtype bounds of
:data:`EQUIVALENCE_TOLERANCES` (requesting float32 together with an
explicit ``"bitwise"`` policy raises).

Heterogeneous hardware
----------------------
A fleet does not have to run on one hardware build: every multi-subject
entry point accepts ``systems``, a per-subject-id mapping to the
:class:`~repro.hw.platform.WearableSystem` that subject's device runs
(subjects absent from the mapping use the runtime's default system).
Difficulty prediction and model routing are hardware-independent; per
subject, the connection status of *its* system gates configuration
selection, and the cost table has one row per hardware revision, so each
``(deployment, target)`` pair is looked up once per revision through the
shared :class:`~repro.hw.platform.CostTableRegistry`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from repro.core.configuration import NUM_DIFFICULTY_LEVELS, ProfiledConfiguration
from repro.core.decision_engine import Constraint, DecisionEngine
from repro.core.zoo import ModelsZoo
from repro.data.dataset import WindowedSubject
from repro.dtypes import resolve_dtype
from repro.hw.platform import PredictionCost, WearableSystem
from repro.hw.profiles import ExecutionTarget
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.base import FleetState


#: Absolute tolerance (BPM) of the ``"tolerance"`` equivalence policy:
#: how far a tolerance-fused model's prediction may drift from sequential
#: replay.  Predictions are clipped to [30, 220] BPM and the only legal
#: difference is floating-point reassociation from different BLAS batch
#: shapes, so the observed drift is ~1e-12 BPM; the bound leaves six
#: orders of magnitude of headroom while still catching any real
#: divergence (a different routing or a state leak shifts predictions by
#: whole BPM).
EQUIVALENCE_ATOL = 1e-6

#: Relative tolerance companion of :data:`EQUIVALENCE_ATOL`.
EQUIVALENCE_RTOL = 1e-9

#: Valid values of the runtime's ``equivalence`` policy.
EQUIVALENCE_POLICIES = ("bitwise", "tolerance")

#: Per-dtype ``(atol, rtol)`` of the ``"tolerance"`` equivalence policy.
#:
#: * ``"float64"`` — the historical :data:`EQUIVALENCE_ATOL` /
#:   :data:`EQUIVALENCE_RTOL` pair: observed reassociation drift is
#:   ~1e-12 BPM, the bound leaves six orders of magnitude of headroom.
#: * ``"float32"`` — single-precision inference re-rounds every
#:   intermediate to 24-bit significands, so batch-shape reassociation
#:   moves predictions by up to ~1e-4 BPM on the [30, 220] BPM range
#:   (measured ~2e-5 across the property suite's fleet layouts); ``atol=1e-3`` bounds
#:   that with ~50x headroom while still flagging any real divergence,
#:   which shifts predictions by whole BPM.
EQUIVALENCE_TOLERANCES: dict[str, tuple[float, float]] = {
    "float64": (EQUIVALENCE_ATOL, EQUIVALENCE_RTOL),
    "float32": (1e-3, 1e-5),
}


@dataclass(frozen=True)
class WindowDecision:
    """The outcome of processing one window."""

    window_index: int
    predicted_difficulty: int
    true_difficulty: int
    model_name: str
    target: ExecutionTarget
    predicted_hr: float
    true_hr: float
    cost: PredictionCost

    @property
    def absolute_error(self) -> float:
        """Absolute HR error (BPM) of this prediction."""
        return abs(self.predicted_hr - self.true_hr)

    @property
    def offloaded(self) -> bool:
        """Whether the window was processed on the phone."""
        return self.target is ExecutionTarget.PHONE


def _empty_float() -> np.ndarray:
    return np.empty(0, dtype=float)


def _empty_int() -> np.ndarray:
    return np.empty(0, dtype=int)


#: RunResult per-window array fields, in declaration order; also the order
#: in which :func:`_cost_values` unpacks a :class:`PredictionCost`.
_COST_FIELDS = (
    "watch_compute_j",
    "watch_radio_j",
    "watch_idle_j",
    "phone_compute_j",
    "latency_s",
)


def _cost_values(cost: PredictionCost) -> tuple[float, ...]:
    """The cost components in :data:`_COST_FIELDS` order."""
    return tuple(getattr(cost, name) for name in _COST_FIELDS)


#: RunResult per-window fields stored as plain (non-object) arrays by the
#: npz round-trip; ``model_names`` is object-dtyped and handled separately
#: (stored as fixed-width unicode so the dump needs no pickled arrays).
_NPZ_ARRAY_FIELDS = (
    "window_index",
    "predicted_difficulty",
    "true_difficulty",
    "offloaded",
    "predicted_hr",
    "true_hr",
    *_COST_FIELDS,
)


def _fleet_signal_template(subjects: "Sequence[WindowedSubject]") -> np.ndarray | None:
    """One representative signal row for signal-free fused dispatch.

    Signal-free predictors only read the batch length, so the fused call
    broadcasts a single window across the group.  The row must come from
    a subject that actually *has* windows — a fleet whose first subject
    produced none yet would otherwise broadcast an empty ``(0, ...)``
    template.  Returns ``None`` only for an all-empty fleet, in which
    case no group has windows to dispatch.
    """
    for subject in subjects:
        if subject.n_windows:
            return subject.ppg_windows[:1]
    return None


def _check_unique_subject_ids(subject_ids: Iterable[str]) -> None:
    """Raise like :meth:`FleetResult.add` would on the first duplicate id."""
    seen: set[str] = set()
    for sid in subject_ids:
        if sid in seen:
            raise ValueError(f"subject {sid!r} already recorded")
        seen.add(sid)


@dataclass(eq=False)
class RunResult:
    """Aggregate outcome of a CHRIS run over a recording.

    The per-window data lives in parallel NumPy arrays (one entry per
    window, in recording order); every aggregate metric is computed
    vectorized from them.  :attr:`decisions` materializes the classic
    :class:`WindowDecision` view lazily for callers that want per-window
    objects.
    """

    configuration: ProfiledConfiguration
    window_index: np.ndarray = field(default_factory=_empty_int)
    predicted_difficulty: np.ndarray = field(default_factory=_empty_int)
    true_difficulty: np.ndarray = field(default_factory=_empty_int)
    model_names: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=object))
    offloaded: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    predicted_hr: np.ndarray = field(default_factory=_empty_float)
    true_hr: np.ndarray = field(default_factory=_empty_float)
    watch_compute_j: np.ndarray = field(default_factory=_empty_float)
    watch_radio_j: np.ndarray = field(default_factory=_empty_float)
    watch_idle_j: np.ndarray = field(default_factory=_empty_float)
    phone_compute_j: np.ndarray = field(default_factory=_empty_float)
    latency_s: np.ndarray = field(default_factory=_empty_float)
    #: ``(start_window_index, configuration)`` for every stretch of windows
    #: processed under one configuration; a single entry for plain runs,
    #: one entry per connection-status change for traced runs.
    configuration_segments: list[tuple[int, ProfiledConfiguration]] = field(default_factory=list)
    _decisions: tuple[WindowDecision, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ would raise on array fields; keep
        # the value semantics the list-based representation had.
        if not isinstance(other, RunResult):
            return NotImplemented
        if (
            self.configuration != other.configuration
            or self.configuration_segments != other.configuration_segments
        ):
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (
                "window_index",
                "predicted_difficulty",
                "true_difficulty",
                "model_names",
                "offloaded",
                "predicted_hr",
                "true_hr",
                *_COST_FIELDS,
            )
        )

    # ------------------------------------------------------------ lazy view
    @property
    def decisions(self) -> tuple[WindowDecision, ...]:
        """Per-window decisions, materialized lazily from the arrays."""
        if self._decisions is None:
            self._decisions = tuple(
                WindowDecision(
                    window_index=int(self.window_index[i]),
                    predicted_difficulty=int(self.predicted_difficulty[i]),
                    true_difficulty=int(self.true_difficulty[i]),
                    model_name=str(self.model_names[i]),
                    target=ExecutionTarget.PHONE if self.offloaded[i] else ExecutionTarget.WATCH,
                    predicted_hr=float(self.predicted_hr[i]),
                    true_hr=float(self.true_hr[i]),
                    cost=PredictionCost(
                        model_name=str(self.model_names[i]),
                        target=ExecutionTarget.PHONE
                        if self.offloaded[i]
                        else ExecutionTarget.WATCH,
                        watch_compute_j=float(self.watch_compute_j[i]),
                        watch_radio_j=float(self.watch_radio_j[i]),
                        watch_idle_j=float(self.watch_idle_j[i]),
                        phone_compute_j=float(self.phone_compute_j[i]),
                        latency_s=float(self.latency_s[i]),
                    ),
                )
                for i in range(self.n_windows)
            )
        return self._decisions

    @classmethod
    def from_decisions(
        cls,
        configuration: ProfiledConfiguration,
        decisions: Sequence[WindowDecision],
        configuration_segments: list[tuple[int, ProfiledConfiguration]] | None = None,
    ) -> "RunResult":
        """Build a result from per-window decision objects (compat helper)."""
        return cls(
            configuration=configuration,
            window_index=np.array([d.window_index for d in decisions], dtype=int),
            predicted_difficulty=np.array([d.predicted_difficulty for d in decisions], dtype=int),
            true_difficulty=np.array([d.true_difficulty for d in decisions], dtype=int),
            model_names=np.array([d.model_name for d in decisions], dtype=object),
            offloaded=np.array([d.offloaded for d in decisions], dtype=bool),
            predicted_hr=np.array([d.predicted_hr for d in decisions], dtype=float),
            true_hr=np.array([d.true_hr for d in decisions], dtype=float),
            watch_compute_j=np.array([d.cost.watch_compute_j for d in decisions], dtype=float),
            watch_radio_j=np.array([d.cost.watch_radio_j for d in decisions], dtype=float),
            watch_idle_j=np.array([d.cost.watch_idle_j for d in decisions], dtype=float),
            phone_compute_j=np.array([d.cost.phone_compute_j for d in decisions], dtype=float),
            latency_s=np.array([d.cost.latency_s for d in decisions], dtype=float),
            configuration_segments=list(configuration_segments or []),
        )

    # ---------------------------------------------------------- persistence
    def to_npz(self, file: "str | IO[bytes]") -> None:
        """Dump the struct-of-arrays representation to an ``.npz`` archive.

        The per-window arrays are stored verbatim (bit-identical on
        reload); ``model_names`` becomes fixed-width unicode so no array
        in the archive needs pickling; the configuration objects (the
        selected configuration plus the per-segment ones) travel as one
        pickled blob in a ``uint8`` array.  ``file`` may be a path or a
        binary file object.  The lazy :attr:`decisions` cache is *not*
        serialized — a reloaded result materializes decisions on demand
        exactly like a freshly executed one.
        """
        payload: dict[str, np.ndarray] = {
            name: getattr(self, name) for name in _NPZ_ARRAY_FIELDS
        }
        payload["model_names"] = self.model_names.astype(str)
        payload["segment_starts"] = np.array(
            [start for start, _ in self.configuration_segments], dtype=np.int64
        )
        blob = pickle.dumps(
            (self.configuration, [cfg for _, cfg in self.configuration_segments]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        payload["configurations"] = np.frombuffer(blob, dtype=np.uint8)
        np.savez(file, **payload)

    @classmethod
    def from_npz(cls, file: "str | IO[bytes]") -> "RunResult":
        """Rebuild a result dumped by :meth:`to_npz` (bit-identical)."""
        with np.load(file, allow_pickle=False) as data:
            configuration, segment_configs = pickle.loads(
                data["configurations"].tobytes()
            )
            segments = [
                (int(start), cfg)
                for start, cfg in zip(data["segment_starts"], segment_configs)
            ]
            return cls(
                configuration=configuration,
                model_names=data["model_names"].astype(object),
                configuration_segments=segments,
                **{name: data[name] for name in _NPZ_ARRAY_FIELDS},
            )

    # ------------------------------------------------------------ aggregates
    @property
    def n_windows(self) -> int:
        """Number of processed windows."""
        return int(self.window_index.shape[0])

    @property
    def absolute_errors(self) -> np.ndarray:
        """Per-window absolute HR error (BPM)."""
        return np.abs(self.predicted_hr - self.true_hr)

    @property
    def watch_total_j_per_window(self) -> np.ndarray:
        """Per-window total smartwatch energy (J)."""
        return self.watch_compute_j + self.watch_radio_j + self.watch_idle_j

    @property
    def mae_bpm(self) -> float:
        """Mean absolute HR error over the run."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.absolute_errors))

    @property
    def mean_watch_energy_j(self) -> float:
        """Average smartwatch energy per prediction (J)."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.watch_total_j_per_window))

    @property
    def mean_watch_energy_mj(self) -> float:
        """Average smartwatch energy per prediction (mJ)."""
        return self.mean_watch_energy_j * 1e3

    @property
    def mean_phone_energy_j(self) -> float:
        """Average phone energy per prediction (J)."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.phone_compute_j))

    @property
    def total_watch_energy_j(self) -> float:
        """Total smartwatch energy over the run (J)."""
        return float(np.sum(self.watch_total_j_per_window))

    @property
    def offload_fraction(self) -> float:
        """Fraction of windows processed on the phone."""
        if self.n_windows == 0:
            return 0.0
        return float(np.mean(self.offloaded))

    @property
    def mean_latency_s(self) -> float:
        """Average end-to-end prediction latency (s)."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.latency_s))

    def per_model_counts(self) -> dict[str, int]:
        """Number of windows handled by each model."""
        names, counts = np.unique(self.model_names.astype(str), return_counts=True)
        return {str(name): int(count) for name, count in zip(names, counts)}

    def summary(self) -> str:
        """Compact one-paragraph report of the run."""
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(self.per_model_counts().items()))
        return (
            f"configuration {self.configuration.label()}: "
            f"MAE {self.mae_bpm:.2f} BPM, "
            f"watch energy {self.mean_watch_energy_mj:.3f} mJ/prediction, "
            f"{100 * self.offload_fraction:.1f}% offloaded over {self.n_windows} windows "
            f"({counts})"
        )


@dataclass
class FleetResult:
    """Aggregate outcome of replaying many subjects (a device fleet).

    Produced by :meth:`CHRISRuntime.run_many`; aggregates are weighted by
    each subject's window count, so they equal the metrics of one long
    concatenated run.

    Fault-tolerant paths (:class:`repro.core.fleet.FleetExecutor` with
    retries) may *quarantine* subjects whose shard kept failing: those
    appear in :attr:`failed` (subject id -> error description) instead of
    :attr:`results`, and every aggregate is computed over the successful
    subjects only.
    """

    results: dict[str, RunResult] = field(default_factory=dict)
    #: Quarantined subjects: id -> error description of the failure that
    #: exhausted the shard's retries.  Empty on non-fault-tolerant paths.
    failed: dict[str, str] = field(default_factory=dict)

    def add(self, subject_id: str, result: RunResult) -> None:
        """Record one subject's run."""
        if subject_id in self.results or subject_id in self.failed:
            raise ValueError(f"subject {subject_id!r} already recorded")
        self.results[subject_id] = result

    def add_failure(self, subject_id: str, error: str) -> None:
        """Record a subject quarantined after its shard exhausted retries."""
        if subject_id in self.results or subject_id in self.failed:
            raise ValueError(f"subject {subject_id!r} already recorded")
        self.failed[subject_id] = error

    @property
    def subject_ids(self) -> list[str]:
        """Replayed subjects, in insertion order."""
        return list(self.results)

    @property
    def n_subjects(self) -> int:
        """Number of replayed subjects."""
        return len(self.results)

    @property
    def n_failed(self) -> int:
        """Number of quarantined subjects."""
        return len(self.failed)

    @property
    def failed_subject_ids(self) -> list[str]:
        """Quarantined subjects, in insertion order."""
        return list(self.failed)

    @property
    def n_windows(self) -> int:
        """Total windows across the fleet."""
        return int(sum(r.n_windows for r in self.results.values()))

    def _weighted_mean(self, values: Iterable[float]) -> float:
        total_windows = self.n_windows
        if total_windows == 0:
            return float("nan")
        # Zero-window subjects carry a NaN metric with zero weight; they
        # must drop out instead of poisoning the aggregate (NaN * 0 is
        # NaN, not 0).
        weighted = sum(
            v * r.n_windows
            for v, r in zip(values, self.results.values())
            if r.n_windows
        )
        return float(weighted / total_windows)

    @property
    def mae_bpm(self) -> float:
        """Window-weighted MAE over all subjects."""
        return self._weighted_mean(r.mae_bpm for r in self.results.values())

    @property
    def mean_watch_energy_j(self) -> float:
        """Window-weighted smartwatch energy per prediction (J)."""
        return self._weighted_mean(r.mean_watch_energy_j for r in self.results.values())

    @property
    def offload_fraction(self) -> float:
        """Window-weighted fraction of offloaded windows."""
        return self._weighted_mean(r.offload_fraction for r in self.results.values())

    def mae_per_subject(self) -> dict[str, float]:
        """MAE of every subject's run."""
        return {sid: r.mae_bpm for sid, r in self.results.items()}

    def summary(self) -> str:
        """One line per subject plus the fleet aggregate."""
        lines = [f"{sid}: {r.summary()}" for sid, r in self.results.items()]
        lines.extend(f"{sid}: FAILED ({error})" for sid, error in self.failed.items())
        tail = f", {self.n_failed} quarantined" if self.failed else ""
        lines.append(
            f"fleet: MAE {self.mae_bpm:.2f} BPM, "
            f"watch energy {self.mean_watch_energy_j * 1e3:.3f} mJ/prediction, "
            f"{100 * self.offload_fraction:.1f}% offloaded over "
            f"{self.n_windows} windows from {self.n_subjects} subjects{tail}"
        )
        return "\n".join(lines)


@dataclass
class _ExecutionPlan:
    """Per-window routing computed up front, before any model executes.

    Models are referenced by their index in the zoo's name order
    (``model_codes``) so grouping and mask operations run on small
    integers instead of string arrays.
    """

    configuration: ProfiledConfiguration
    difficulties: np.ndarray
    model_codes: np.ndarray
    offloaded: np.ndarray
    segments: list[tuple[int, ProfiledConfiguration]]


class _RoutingTable:
    """Model code and offload flag of every ``(BLE status, difficulty level)``.

    One table serves one planning call, in which the operating
    configuration is a function of the BLE status alone: selected from
    the constraint once per status, or pinned by the caller.  A status
    row resolves through :meth:`DecisionEngine.select_model` the first
    time a plan meets that status (phone targets degrade to the watch in
    the disconnected row); every window of every subject, plain or
    traced, is then routed by one gather.
    """

    def __init__(
        self,
        engine: DecisionEngine,
        model_names: Sequence[str],
        constraint: Constraint | None,
        configuration: ProfiledConfiguration | None = None,
    ) -> None:
        self._engine = engine
        self._model_names = list(model_names)
        self._constraint = constraint
        self._pinned = configuration
        self._configurations: dict[bool, ProfiledConfiguration] = {}
        self._codes = np.zeros((2, NUM_DIFFICULTY_LEVELS + 1), dtype=np.intp)
        self._offloaded = np.zeros((2, NUM_DIFFICULTY_LEVELS + 1), dtype=bool)

    def configuration(self, connected: bool) -> ProfiledConfiguration:
        """The configuration active under ``connected``; resolves its row."""
        configuration = self._configurations.get(connected)
        if configuration is None:
            configuration = self._pinned
            if configuration is None:
                configuration = self._engine.select_or_closest(
                    self._constraint, connected=connected
                )
            for level in range(1, NUM_DIFFICULTY_LEVELS + 1):
                name, target = self._engine.select_model(configuration, level)
                self._codes[int(connected), level] = self._model_names.index(name)
                self._offloaded[int(connected), level] = (
                    connected and target is ExecutionTarget.PHONE
                )
            self._configurations[connected] = configuration
        return configuration

    def route(
        self, connected: np.ndarray, difficulties: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(model_codes, offloaded)`` of windows with these statuses and levels.

        Every status in ``connected`` must have been resolved through
        :meth:`configuration` first.
        """
        rows = connected.astype(np.intp)
        return self._codes[rows, difficulties], self._offloaded[rows, difficulties]


class CHRISRuntime:
    """End-to-end CHRIS execution over windowed recordings.

    Parameters
    ----------
    zoo, engine, system, activity_classifier:
        The CHRIS building blocks (hardware co-model and difficulty
        detector are optional).
    batched:
        Default execution path: ``True`` runs the fleet-wide kernel
        (fused per-model calls, see the module docstring), ``False``
        replays windows one by one through ``predict_window`` (the
        reference oracle).  Both paths produce identical decisions; each
        ``run*`` method also accepts a per-call ``batched`` override.
    equivalence:
        Fast-path reproduction contract (see the module docstring):
        ``"bitwise"`` keeps every fast path bit-identical to sequential
        replay; ``"tolerance"`` additionally fuses ``TOLERANCE_FUSABLE``
        predictors (the TimePPG TCNs) across subjects, letting their
        predictions — and nothing else — move within the per-dtype
        :data:`EQUIVALENCE_TOLERANCES`.  ``None`` (default) resolves per
        dtype: ``"bitwise"`` for float64, ``"tolerance"`` for float32
        (single-precision inference cannot honor a bitwise contract
        against the float64 reference, so requesting float32 with an
        explicit ``"bitwise"`` policy raises).
    dtype:
        Floating dtype of the inference hot path (``"float64"`` default,
        or ``"float32"``).  Float32 re-freezes every TimePPG in the zoo
        to single-precision folded weights and pins the AT kernels to
        float32 inputs, so the batched/fleet paths run with zero float64
        temporaries on the signal arrays; ``predicted_hr`` is reported in
        this dtype.  Routing, energy costs and ``true_hr`` stay float64 —
        they never depend on signal precision.  The scalar reference path
        (``batched=False``) computes and reports at this dtype too.
        Constructing a non-float64 runtime re-pins the (shared) zoo's
        predictors in place; when comparing dtypes side by side, build
        each runtime over its own zoo instance.
    """

    def __init__(
        self,
        zoo: ModelsZoo,
        engine: DecisionEngine,
        system: WearableSystem | None = None,
        activity_classifier: ActivityClassifier | None = None,
        batched: bool = True,
        equivalence: str | None = None,
        dtype: str | np.dtype = "float64",
    ) -> None:
        self.dtype = resolve_dtype(dtype)
        if equivalence is None:
            equivalence = "bitwise" if self.dtype == np.dtype("float64") else "tolerance"
        if equivalence not in EQUIVALENCE_POLICIES:
            raise ValueError(
                f"equivalence must be one of {EQUIVALENCE_POLICIES}, "
                f"got {equivalence!r}"
            )
        if equivalence == "bitwise" and self.dtype != np.dtype("float64"):
            raise ValueError(
                "the 'bitwise' equivalence policy requires float64 inference; "
                f"dtype={self.dtype} runs under the 'tolerance' policy"
            )
        self.zoo = zoo
        self.engine = engine
        self.system = system or WearableSystem()
        self.activity_classifier = activity_classifier
        self.batched = batched
        self.equivalence = equivalence
        if self.dtype != np.dtype("float64"):
            # Re-pin every predictor's compute dtype (float64 runtimes
            # leave the zoo untouched for back-compat bit-exactness).
            for entry in self.zoo:
                entry.predictor.set_inference_dtype(self.dtype)

    # ------------------------------------------------------------ difficulty
    def _predicted_difficulty(self, windows: WindowedSubject, use_oracle: bool) -> np.ndarray:
        if use_oracle or self.activity_classifier is None:
            return windows.difficulty
        return self.activity_classifier.predict_difficulty(windows.accel_windows)

    def _reset_predictors(self) -> None:
        """Clear temporal predictor state so runs never leak across subjects."""
        for entry in self.zoo:
            entry.predictor.reset()

    # ----------------------------------------------------------------- run
    def run(
        self,
        windows: WindowedSubject,
        constraint: Constraint,
        use_oracle_difficulty: bool = False,
        batched: bool | None = None,
        system: WearableSystem | None = None,
    ) -> RunResult:
        """Process a windowed recording under a user constraint.

        The configuration is selected once at the start of the run from
        the current connection status (as the paper does: re-selection
        only happens when the constraint or the connection changes).
        ``system`` overrides the runtime's default hardware for this run
        (heterogeneous fleets pass each subject's own device).
        """
        return self._run_one(
            windows, constraint, use_oracle_difficulty, batched, system
        )

    def run_with_configuration(
        self,
        windows: WindowedSubject,
        configuration: ProfiledConfiguration,
        use_oracle_difficulty: bool = False,
        batched: bool | None = None,
        system: WearableSystem | None = None,
    ) -> RunResult:
        """Process a recording with an explicitly chosen configuration.

        Phone-mapped windows degrade to local execution when the BLE link
        is currently down (the configuration itself would be re-selected
        at the next decision point).
        """
        return self._run_one(
            windows,
            None,
            use_oracle_difficulty,
            batched,
            system,
            configuration=configuration,
        )

    def run_with_connection_trace(
        self,
        windows: WindowedSubject,
        constraint: Constraint,
        connected: np.ndarray,
        use_oracle_difficulty: bool = False,
        batched: bool | None = None,
        system: WearableSystem | None = None,
    ) -> RunResult:
        """Process a recording while the BLE connection comes and goes.

        ``connected`` is a boolean array with one entry per window.  The
        decision engine re-selects the operating configuration every time
        the connection status changes (the behaviour Sec. III-B describes:
        the connection status restricts the feasible set), so the run may
        switch between hybrid and local-only configurations mid-stream;
        the switch points are recorded in
        :attr:`RunResult.configuration_segments`.  The returned
        :class:`RunResult` carries the configuration active at the *end*
        of the run; per-window decisions record what actually executed.
        """
        return self._run_one(
            windows,
            constraint,
            use_oracle_difficulty,
            batched,
            system,
            trace=connected,
        )

    def _run_one(
        self,
        windows: WindowedSubject,
        constraint: Constraint | None,
        use_oracle_difficulty: bool,
        batched: bool | None,
        system: WearableSystem | None,
        trace: np.ndarray | None = None,
        configuration: ProfiledConfiguration | None = None,
    ) -> RunResult:
        """A single-subject run: the fleet of one ``windows``."""
        sid = windows.subject_id
        systems = {} if system is None else {sid: system}
        plans = self._plan_fleet(
            [windows],
            constraint,
            use_oracle_difficulty,
            {} if trace is None else {sid: trace},
            systems=systems,
            configuration=configuration,
        )
        if windows.n_windows == 0:
            raise ValueError("the recording contains no windows")
        fleet = self._run_many_planned(
            [windows],
            plans,
            systems=systems,
            batched=self.batched if batched is None else batched,
        )
        return fleet.results[sid]

    # ------------------------------------------------------------- run_many
    def run_many(
        self,
        subjects: Iterable[WindowedSubject],
        constraint: Constraint,
        use_oracle_difficulty: bool = False,
        batched: bool | None = None,
        connected_traces: Mapping[str, np.ndarray] | None = None,
        systems: Mapping[str, WearableSystem] | None = None,
    ) -> FleetResult:
        """Replay a fleet of subjects under one constraint.

        Every subject is planned individually (per-subject difficulty
        streams, connection traces and configuration segments are
        preserved) and the whole population then executes in one
        fleet-wide kernel, decision-for-decision identical to replaying
        the subjects one at a time in the given order: predictor state
        is reset per subject, while cross-run state (the calibrated
        models' random streams) advances across the fleet.

        Parameters
        ----------
        subjects, constraint, use_oracle_difficulty, batched:
            As in :meth:`run`; ``batched=False`` replays every subject
            through the per-window oracle.  Zero-window subjects are
            legal and contribute an empty result.
        connected_traces:
            Optional per-subject BLE traces keyed by subject id; traced
            subjects are replayed with segment re-selection as in
            :meth:`run_with_connection_trace`, the others with their
            hardware's current connection status.
        systems:
            Optional per-subject hardware keyed by subject id — one fleet
            run can mix device revisions.  Subjects absent from the
            mapping run on the runtime's default system.
        """
        subjects = list(subjects)
        traces = dict(connected_traces or {})
        systems = dict(systems or {})
        known = {s.subject_id for s in subjects}
        unknown = sorted(set(traces) - known)
        if unknown:
            raise KeyError(f"connection traces for unknown subjects: {unknown}")
        unknown = sorted(set(systems) - known)
        if unknown:
            raise KeyError(f"systems for unknown subjects: {unknown}")
        _check_unique_subject_ids(s.subject_id for s in subjects)
        plans = self._plan_fleet(
            subjects, constraint, use_oracle_difficulty, traces, systems=systems
        )
        return self._run_many_planned(
            subjects,
            plans,
            systems=systems,
            batched=self.batched if batched is None else batched,
        )

    # -------------------------------------------------------------- planning
    def _plan_fleet(
        self,
        subjects: Sequence[WindowedSubject],
        constraint: Constraint | None,
        use_oracle_difficulty: bool,
        traces: Mapping[str, np.ndarray],
        systems: Mapping[str, WearableSystem] | None = None,
        configuration: ProfiledConfiguration | None = None,
    ) -> list[_ExecutionPlan]:
        """One execution plan per subject, in fleet order.

        A traced subject's status comes from its trace, every other
        subject's from its own hardware (``systems``, else the default
        system).  Sequential replay re-selects the configuration per
        subject and per connection change, but selection is a
        deterministic function of ``(constraint, connection status)``,
        so one selection per status serves the whole fleet;
        ``configuration`` pins it instead.  Zero-window subjects plan to
        nothing under their hardware's status.  Planning never touches
        predictor state.
        """
        systems = systems or {}
        table = _RoutingTable(self.engine, self.zoo.names, constraint, configuration)
        plans = []
        for subject in subjects:
            n = subject.n_windows
            status = bool(systems.get(subject.subject_id, self.system).connected)
            trace = traces.get(subject.subject_id)
            if trace is None:
                connected = np.full(n, status)
            else:
                connected = np.asarray(trace, dtype=bool)
                if connected.shape != (n,):
                    raise ValueError(
                        f"connected must have one entry per window "
                        f"({n}), got shape {connected.shape}"
                    )
            if n == 0:
                empty = table.configuration(status)
                plans.append(
                    _ExecutionPlan(
                        configuration=empty,
                        difficulties=np.empty(0, dtype=int),
                        model_codes=np.empty(0, dtype=np.intp),
                        offloaded=np.empty(0, dtype=bool),
                        segments=[(0, empty)],
                    )
                )
                continue
            starts = np.flatnonzero(np.diff(connected, prepend=not connected[0]))
            segments = [
                (int(start), table.configuration(bool(connected[start])))
                for start in starts
            ]
            difficulties = self._predicted_difficulty(subject, use_oracle_difficulty)
            model_codes, offloaded = table.route(connected, difficulties)
            plans.append(
                _ExecutionPlan(
                    configuration=segments[-1][1],
                    difficulties=difficulties,
                    model_codes=model_codes,
                    offloaded=offloaded,
                    segments=segments,
                )
            )
        return plans

    def model_window_counts(self, plans: "Sequence[_ExecutionPlan]") -> list[dict[str, int]]:
        """Planned window count of every zoo model, one dict per plan.

        Cross-run predictor state advances per routed window, so these
        counts are what :meth:`~repro.models.base.HeartRatePredictor.advance_fleet_state`
        consumes — the fleet executor accumulates them to fast-forward
        shard-local predictor copies.
        """
        return [
            {
                name: int(np.count_nonzero(plan.model_codes == code))
                for code, name in enumerate(self.zoo.names)
            }
            for plan in plans
        ]

    def planned_model_window_counts(
        self,
        subjects: Iterable[WindowedSubject],
        constraint: Constraint,
        use_oracle_difficulty: bool = False,
        connected_traces: Mapping[str, np.ndarray] | None = None,
        systems: Mapping[str, WearableSystem] | None = None,
    ) -> list[dict[str, int]]:
        """Per-subject planned window count of every zoo model (no execution).

        Planning is side-effect free: no predictor executes and no state
        advances.
        """
        plans = self._plan_fleet(
            list(subjects),
            constraint,
            use_oracle_difficulty,
            dict(connected_traces or {}),
            systems=systems,
        )
        return self.model_window_counts(plans)

    # ------------------------------------------------------------- execution
    def _run_many_planned(
        self,
        subjects: Sequence[WindowedSubject],
        plans: Sequence[_ExecutionPlan],
        systems: Mapping[str, WearableSystem] | None = None,
        batched: bool = True,
        fleet_states: Mapping[str, "FleetState"] | None = None,
        fleet_slots: np.ndarray | None = None,
    ) -> FleetResult:
        """Execute precomputed fleet plans and split them into per-subject results.

        ``batched`` picks the fleet-wide kernel (:meth:`_execute_fleet`)
        or the per-window oracle (:meth:`_execute_scalar`); both return
        fleet-wide arrays that are split into per-subject
        :class:`RunResult` views (NumPy slices, so the split allocates
        nothing per subject).  Fleet-executor shards and scheduler
        batches call this with plans computed once per fleet or batch, so
        difficulty inference and routing never repeat.

        ``fleet_states``/``fleet_slots`` switch stateful predictors from
        fresh per-batch state to **streaming continuations**: instead of a
        fresh :class:`~repro.models.base.FleetState` per call, each
        stateful model continues from ``fleet_states[name]`` at the
        long-lived slot ``fleet_slots[i]`` of subject ``i``, and the
        advanced slot values are written back — this is how the online
        scheduler feeds single arriving windows through ``predict_fleet``
        without replaying whole sessions (see
        :meth:`repro.core.scheduler.FleetScheduler.open_stream`).  They
        apply to the kernel only.
        """
        fleet = FleetResult()
        if not subjects:
            return fleet
        systems = systems or {}
        if batched:
            predicted_hr, costs = self._execute_fleet(
                subjects, plans, systems, fleet_states, fleet_slots
            )
        else:
            predicted_hr, costs = self._execute_scalar(subjects, plans, systems)

        names = np.array(self.zoo.names, dtype=object)
        start = 0
        for subject, plan in zip(subjects, plans):
            end = start + subject.n_windows
            fleet.add(
                subject.subject_id,
                RunResult(
                    configuration=plan.configuration,
                    window_index=np.arange(subject.n_windows, dtype=int),
                    predicted_difficulty=plan.difficulties.astype(int),
                    true_difficulty=subject.difficulty.astype(int),
                    model_names=names[plan.model_codes],
                    offloaded=plan.offloaded,
                    predicted_hr=predicted_hr[start:end],
                    true_hr=np.asarray(subject.hr, dtype=float).copy(),
                    configuration_segments=plan.segments,
                    **{
                        field_name: values[start:end]
                        for field_name, values in zip(_COST_FIELDS, costs)
                    },
                ),
            )
            start = end
        return fleet

    def _execute_scalar(
        self,
        subjects: Sequence[WindowedSubject],
        plans: Sequence[_ExecutionPlan],
        systems: Mapping[str, WearableSystem],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference oracle: one ``predict_window`` call per window.

        Predictor state is reset before every subject and every cost is
        computed afresh (:meth:`~repro.hw.platform.WearableSystem.offloaded_cost`
        / :meth:`~repro.hw.platform.WearableSystem.local_prediction_cost`),
        exactly like replaying the subjects one at a time.
        """
        n_total = sum(s.n_windows for s in subjects)
        entries = [self.zoo.entry(name) for name in self.zoo.names]
        predicted_hr = np.empty(n_total, dtype=self.dtype)
        costs = np.empty((len(_COST_FIELDS), n_total), dtype=float)
        i = 0
        for subject, plan in zip(subjects, plans):
            system = systems.get(subject.subject_id, self.system)
            self._reset_predictors()
            for w in range(subject.n_windows):
                entry = entries[plan.model_codes[w]]
                predicted_hr[i] = float(
                    entry.predictor.predict_window(
                        subject.ppg_windows[w],
                        subject.accel_windows[w],
                        true_hr=float(subject.hr[w]),
                        activity=int(subject.activity[w]),
                    )
                )
                if plan.offloaded[w]:
                    cost = system.offloaded_cost(entry.deployment)
                else:
                    cost = system.local_prediction_cost(entry.deployment)
                costs[:, i] = _cost_values(cost)
                i += 1
        return predicted_hr, costs

    def _execute_fleet(
        self,
        subjects: Sequence[WindowedSubject],
        plans: Sequence[_ExecutionPlan],
        systems: Mapping[str, WearableSystem],
        fleet_states: Mapping[str, FleetState] | None = None,
        fleet_slots: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Execute all subjects' plans in per-model fleet-wide groups.

        Window order within each group is subject-major with recording
        order inside every subject — exactly the order in which sequential
        replay feeds each predictor, which is what makes the fused calls
        bit-identical.  Stateless predictors (``FLEET_BATCHABLE = True``)
        fuse into one batch ``predict`` per model; stateful predictors
        fuse into one ``predict_fleet`` per model with a subject-index
        vector and a fresh :class:`~repro.models.base.FleetState` whose
        slots re-enact the per-subject ``reset()`` boundaries.  Under the
        ``"tolerance"`` equivalence policy, stateless-but-not-bit-stable
        predictors (``TOLERANCE_FUSABLE``, the TimePPG TCNs) also fuse
        into one plain batch ``predict`` — their predictions may then
        differ from sequential replay within :data:`EQUIVALENCE_ATOL` /
        :data:`EQUIVALENCE_RTOL`, everything else stays bit-identical.
        """
        self._reset_predictors()
        counts = [s.n_windows for s in subjects]
        window_slots = np.repeat(np.arange(len(subjects), dtype=np.intp), counts)
        model_codes = np.concatenate([p.model_codes for p in plans])
        offloaded = np.concatenate([p.offloaded for p in plans])
        hr = np.concatenate([np.asarray(s.hr, dtype=float) for s in subjects])
        activity = np.concatenate([np.asarray(s.activity, dtype=int) for s in subjects])
        predicted_hr = np.empty(model_codes.shape[0], dtype=self.dtype)

        for code, name in enumerate(self.zoo.names):
            predictor = self.zoo.entry(name).predictor
            idx = np.flatnonzero(model_codes == code)
            if idx.size == 0:
                continue
            if predictor.REQUIRES_SIGNALS:
                ppg = np.concatenate(
                    [s.ppg_windows[p.model_codes == code] for s, p in zip(subjects, plans)]
                )
                accel = np.concatenate(
                    [s.accel_windows[p.model_codes == code] for s, p in zip(subjects, plans)]
                )
            else:
                # Signal-free predictors only need the batch length;
                # the template row comes from any non-empty subject
                # (a fleet whose first subject has zero windows must
                # not broadcast an empty template).
                template = _fleet_signal_template(subjects)
                ppg = np.broadcast_to(template, (idx.size,) + template.shape[1:])
                accel = None
            # Stateless predictors fuse into one plain batch; under the
            # tolerance policy, stateless-but-not-bit-stable predictors
            # (TimePPG) do too — trading bitwise reproduction of their
            # predictions for one fused cross-subject forward.
            if predictor.FLEET_BATCHABLE or (
                self.equivalence == "tolerance" and predictor.TOLERANCE_FUSABLE
            ):
                predictions = predictor.predict(
                    ppg, accel, true_hr=hr[idx], activity=activity[idx]
                )
            else:
                # Streaming continuation: gather the batch's long-lived
                # slots into a batch-local sub-state (slots = batch
                # positions, monotone as predict_fleet requires) while
                # the windows keep arrival order — the order every
                # predictor's random stream consumes — then scatter
                # the advanced slot values back for the next batch.
                persistent = (
                    fleet_states.get(name) if fleet_states is not None else None
                )
                if persistent is not None:
                    batch_slots = np.asarray(fleet_slots, dtype=np.intp)
                    state = persistent.take_slots(batch_slots)
                else:
                    state = predictor.make_fleet_state(len(subjects))
                predictions = predictor.predict_fleet(
                    ppg,
                    accel,
                    subject_index=window_slots[idx],
                    state=state,
                    true_hr=hr[idx],
                    activity=activity[idx],
                )
                if persistent is not None:
                    persistent.restore_slots(batch_slots, state)
            predicted_hr[idx] = np.asarray(predictions, dtype=self.dtype)
        return predicted_hr, self._fill_costs(subjects, model_codes, offloaded, systems)

    def _fill_costs(
        self,
        subjects: Sequence[WindowedSubject],
        model_codes: np.ndarray,
        offloaded: np.ndarray,
        systems: Mapping[str, WearableSystem],
    ) -> np.ndarray:
        """Per-window costs, ``(cost field, window)``, by one table gather.

        The table has one column per ``(hardware revision, model,
        target)``; only the columns the plans route to are looked up, each
        once per revision through the system's cost registry.
        """
        revisions: dict[tuple, int] = {}
        revision_systems: list[WearableSystem] = []
        subject_revisions = np.empty(len(subjects), dtype=np.intp)
        for i, subject in enumerate(subjects):
            system = systems.get(subject.subject_id, self.system)
            revision = revisions.setdefault(system.hardware_revision(), len(revisions))
            if revision == len(revision_systems):
                revision_systems.append(system)
            subject_revisions[i] = revision
        n_models = len(self.zoo.names)
        window_revisions = np.repeat(subject_revisions, [s.n_windows for s in subjects])
        keys = (window_revisions * n_models + model_codes) * 2 + offloaded
        table = np.zeros((len(_COST_FIELDS), 2 * n_models * len(revision_systems)))
        for key in np.flatnonzero(np.bincount(keys, minlength=table.shape[1])):
            revision, model_target = divmod(int(key), 2 * n_models)
            code, is_offloaded = divmod(model_target, 2)
            cost = revision_systems[revision].cached_prediction_cost(
                self.zoo.entry(self.zoo.names[code]).deployment,
                ExecutionTarget.PHONE if is_offloaded else ExecutionTarget.WATCH,
            )
            table[:, key] = _cost_values(cost)
        return table[:, keys]
