"""Watch + phone + BLE co-model.

:class:`WearableSystem` turns per-window execution decisions ("run model M
on the watch" / "offload model M to the phone") into the energies and
latencies the paper reports:

* per-prediction smartwatch energy — computation (or BLE transmission)
  plus the idle energy for the rest of the 2-second prediction period;
  this is the x axis of Fig. 4 and the quantity all the headline factors
  refer to;
* per-prediction phone energy — used in the total-system-energy
  discussion of Sec. IV-A;
* end-to-end latency — execution time, or transmission plus remote
  execution when offloading.

The difficulty detector (the activity-recognition Random Forest) runs on
the ML core embedded in the LSM6DSM accelerometer, so its cost to the main
MCU is zero (Sec. III-B of the paper); an optional per-prediction overhead
can be configured to study what happens when that assumption is dropped
(one of the ablation benchmarks).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.hw.ble import BLELink, WINDOW_PAYLOAD_BYTES
from repro.hw.device import ComputeDevice
from repro.hw.mcu import make_smartwatch_mcu
from repro.hw.mobile import make_phone_processor
from repro.hw.profiles import ExecutionTarget, ModelDeployment

#: Time between successive predictions: the 64-sample window stride at 32 Hz.
PREDICTION_PERIOD_S = 2.0


@dataclass(frozen=True)
class PredictionCost:
    """Energy/latency breakdown of a single HR prediction.

    All energies are in joules, latency in seconds.
    """

    model_name: str
    target: ExecutionTarget
    watch_compute_j: float
    watch_radio_j: float
    watch_idle_j: float
    phone_compute_j: float
    latency_s: float

    @property
    def watch_total_j(self) -> float:
        """Total smartwatch energy for this prediction (the paper's metric)."""
        return self.watch_compute_j + self.watch_radio_j + self.watch_idle_j

    @property
    def system_total_j(self) -> float:
        """Total energy across watch and phone."""
        return self.watch_total_j + self.phone_compute_j

    @property
    def offloaded(self) -> bool:
        """Whether this prediction ran on the phone."""
        return self.target is ExecutionTarget.PHONE


class CostTableError(RuntimeError):
    """A cost-table payload is corrupt, or a strict lookup found no table.

    Raised instead of silently re-profiling so a loaded table fails
    loudly when it is corrupt, belongs to the wrong hardware revision,
    or only partially covers the zoo.
    """


class CostTableRegistry:
    """Shared per-hardware-revision prediction-cost tables.

    Per-prediction costs are deterministic functions of the *hardware
    revision* — the tuple of every system parameter the cost model reads
    (see :meth:`WearableSystem.hardware_revision`).  A fleet of thousands
    of simulated devices typically spans only a handful of revisions, so
    profiling each ``(deployment, target)`` pair once per revision and
    sharing the table across all :class:`WearableSystem` instances removes
    the per-system re-profiling the first runtime versions did.

    The registry is serializable (:meth:`to_json` / :meth:`from_json`):
    a checkpointed fleet journal records the tables it ran with.

    A module-level instance (:data:`SHARED_COST_REGISTRY`) backs every
    :class:`WearableSystem` that is not given a private registry — which
    makes the registry genuinely shared mutable state: a scheduler's
    dispatcher thread fills tables while the caller's threads may run
    other fleets on the same registry.  Every table fill, read and
    serialization therefore takes an internal re-entrant lock; the lock
    is excluded from pickling/deep-copying (each copy gets a fresh one),
    so registries still pickle and ``copy.deepcopy`` exactly as before.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple, dict[tuple[ModelDeployment, ExecutionTarget], PredictionCost]] = {}  # guarded-by: _lock
        #: Guards ``_tables`` against concurrent fills/reads; re-entrant
        #: because :meth:`profile_system` holds it across its
        #: :meth:`lookup` calls so a profiling pass is atomic.
        self._lock = threading.RLock()  # lock-order: _lock

    def __getstate__(self) -> dict:
        # Snapshot under the lock; the lock itself cannot (and must not)
        # travel across pickling or deepcopy.
        with self._lock:
            state = dict(self.__dict__)
            state.pop("_lock")
            state["_tables"] = {
                revision: dict(table) for revision, table in self._tables.items()
            }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------- inspection
    @property
    def n_revisions(self) -> int:
        """Number of distinct hardware revisions profiled so far."""
        with self._lock:
            return len(self._tables)

    @property
    def n_entries(self) -> int:
        """Total number of memoized ``(deployment, target)`` costs."""
        with self._lock:
            return sum(len(t) for t in self._tables.values())

    def revisions(self) -> list[tuple]:
        """The profiled hardware-revision keys."""
        with self._lock:
            return list(self._tables)

    # ---------------------------------------------------------------- lookup
    def lookup(
        self,
        system: "WearableSystem",
        deployment: ModelDeployment,
        target: ExecutionTarget,
    ) -> PredictionCost:
        """Memoized cost of one prediction on ``system``'s hardware revision.

        Profiles the pair on first sight and returns the shared
        :class:`PredictionCost` object afterwards — including to *other*
        system instances of the same revision.  Like the cache it
        replaces, the lookup never consults the current BLE
        connection state; callers only request phone costs for windows
        planned while the link was up.
        """
        key = (deployment, target)
        with self._lock:
            table = self._tables.setdefault(system.hardware_revision(), {})
            cost = table.get(key)
            if cost is None:
                if target is ExecutionTarget.WATCH:
                    cost = system.local_prediction_cost(deployment)
                else:
                    cost = system.offloaded_cost(deployment)
                table[key] = cost
        return cost

    def profile_system(
        self, system: "WearableSystem", deployments: "list[ModelDeployment] | tuple[ModelDeployment, ...]"
    ) -> tuple:
        """Eagerly profile both targets of every deployment on one system.

        Returns the system's revision key; after this call every lookup a
        fleet run can make for these deployments is a pure dictionary hit,
        so a serialized table covers the whole fleet.  The whole
        pass holds the registry lock (re-entrantly across the lookups),
        so a concurrent serialization never observes a half-profiled
        system.
        """
        with self._lock:
            for deployment in deployments:
                for target in (ExecutionTarget.WATCH, ExecutionTarget.PHONE):
                    self.lookup(system, deployment, target)
        return system.hardware_revision()

    def cost_for(
        self,
        system: "WearableSystem",
        deployment: ModelDeployment,
        target: ExecutionTarget,
    ) -> PredictionCost:
        """Strict lookup: the memoized cost, or :class:`CostTableError`.

        Unlike :meth:`lookup` this never profiles on a miss, so a caller
        holding a loaded table learns that it is the wrong or a partial
        one instead of having it papered over by recomputation.
        """
        revision = system.hardware_revision()
        with self._lock:
            table = self._tables.get(revision)
            if table is None:
                raise CostTableError(
                    f"no cost table for hardware revision {revision}; "
                    f"profiled revisions: {sorted(map(str, self._tables)) or 'none'}"
                )
            cost = table.get((deployment, target))
        if cost is None:
            raise CostTableError(
                f"cost table for hardware revision {revision} is partial: "
                f"missing ({deployment.name!r}, {target.value!r}) "
                f"[{len(table)} entries present]"
            )
        return cost

    def drop(self, revision: tuple) -> None:
        """Forget one revision's table (no-op when absent)."""
        with self._lock:
            self._tables.pop(revision, None)

    def clear(self) -> None:
        """Forget every profiled table."""
        with self._lock:
            self._tables.clear()

    # ------------------------------------------------------------- serialization
    def to_json(self) -> str:
        """JSON dump of every profiled table.

        Floats survive the round trip exactly (JSON numbers are emitted
        with ``repr`` precision), so a loaded table produces bit-identical
        costs to the original.
        """
        with self._lock:
            snapshot = {
                revision: dict(table) for revision, table in self._tables.items()
            }
        payload = [
            {
                "revision": list(revision),
                "entries": [
                    {
                        "deployment": asdict(deployment),
                        "target": target.value,
                        "cost": asdict(cost) | {"target": cost.target.value},
                    }
                    for (deployment, target), cost in table.items()
                ],
            }
            for revision, table in snapshot.items()
        ]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "CostTableRegistry":
        """Rebuild a registry from :meth:`to_json` output.

        Raises
        ------
        CostTableError
            If the payload is not valid JSON or does not have the
            :meth:`to_json` structure (missing keys, malformed
            deployments, unknown execution targets).  Corrupt tables must
            fail loudly: silently falling back to an empty registry would
            re-profile costs the caller thought it had loaded.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CostTableError(f"corrupt cost-table JSON: {exc}") from exc
        if not isinstance(payload, list):
            raise CostTableError(
                f"corrupt cost-table payload: expected a list of revision "
                f"blocks, got {type(payload).__name__}"
            )
        registry = cls()
        for i, block in enumerate(payload):
            try:
                revision = tuple(block["revision"])
                entries = block["entries"]
            except (TypeError, KeyError) as exc:
                raise CostTableError(
                    f"corrupt cost-table payload: revision block {i} has no "
                    f"'revision'/'entries' structure ({exc!r})"
                ) from exc
            if not isinstance(entries, list):
                raise CostTableError(
                    f"corrupt cost-table payload: revision block {i} 'entries' "
                    f"must be a list, got {type(entries).__name__}"
                )
            table = registry._tables.setdefault(revision, {})
            for entry in entries:
                try:
                    deployment = ModelDeployment(**entry["deployment"])
                    target = ExecutionTarget(entry["target"])
                    cost_fields = dict(entry["cost"])
                    cost_fields["target"] = ExecutionTarget(cost_fields["target"])
                    table[(deployment, target)] = PredictionCost(**cost_fields)
                except (TypeError, KeyError, ValueError) as exc:
                    raise CostTableError(
                        f"corrupt cost-table entry in revision {revision}: {exc!r}"
                    ) from exc
        return registry

    def to_json_file(self, path: "str | Path") -> None:
        """Persist the registry next to a deployment (see :meth:`from_json_file`)."""
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json_file(cls, path: "str | Path") -> "CostTableRegistry":
        """Load a registry persisted with :meth:`to_json_file`.

        Raises
        ------
        CostTableError
            If the file cannot be read or its content is corrupt — never
            an empty registry, which would silently re-profile.
        """
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CostTableError(f"cannot read cost-table file {path}: {exc}") from exc
        return cls.from_json(text)

    def fingerprint(self) -> str:
        """Order-independent SHA-256 over the profiled tables.

        The fleet journal (:mod:`repro.core.checkpoint`) folds this into
        its fleet fingerprint: a resume against results produced under
        *different* cost tables must be detected as stale, because every
        staged energy/latency figure would silently be wrong.  Entries
        and revisions are canonicalized (sorted) before hashing, so two
        registries holding the same tables fingerprint identically no
        matter what order profiling filled them in.
        """
        payload = json.loads(self.to_json())
        for block in payload:
            block["entries"] = sorted(
                json.dumps(entry, sort_keys=True) for entry in block["entries"]
            )
        canonical = sorted(json.dumps(block, sort_keys=True) for block in payload)
        return hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()

    def merge(self, other: "CostTableRegistry") -> None:
        """Adopt every entry of ``other`` (existing entries win).

        The two locks are taken sequentially (snapshot ``other``, then
        fill ``self``), never nested, so concurrent merges in opposite
        directions cannot deadlock.
        """
        with other._lock:
            snapshot = {
                revision: dict(table) for revision, table in other._tables.items()
            }
        with self._lock:
            for revision, table in snapshot.items():
                mine = self._tables.setdefault(revision, {})
                for key, cost in table.items():
                    mine.setdefault(key, cost)


#: Registry backing every :class:`WearableSystem` without a private one:
#: heterogeneous device populations profile each hardware revision once.
SHARED_COST_REGISTRY = CostTableRegistry()


class WearableSystem:
    """The two-device platform of the paper.

    Parameters
    ----------
    watch, phone:
        Compute-device models (paper-calibrated defaults when omitted).
    ble:
        BLE link model (paper-calibrated default when omitted).
    prediction_period_s:
        Time between predictions (2 s).
    offload_payload_bytes:
        Bytes streamed per offloaded prediction (one full window by
        default; the incremental-streaming ablation lowers this).
    difficulty_detector_energy_j:
        Per-prediction MCU energy of the activity recognizer; 0 because the
        paper runs it on the accelerometer's ML core.
    cost_registry:
        Cost-table registry this system memoizes into; the process-wide
        :data:`SHARED_COST_REGISTRY` when omitted, so identical hardware
        revisions across a fleet are profiled exactly once.
    """

    def __init__(
        self,
        watch: ComputeDevice | None = None,
        phone: ComputeDevice | None = None,
        ble: BLELink | None = None,
        prediction_period_s: float = PREDICTION_PERIOD_S,
        offload_payload_bytes: int = WINDOW_PAYLOAD_BYTES,
        difficulty_detector_energy_j: float = 0.0,
        cost_registry: CostTableRegistry | None = None,
    ) -> None:
        if prediction_period_s <= 0:
            raise ValueError(f"prediction_period_s must be positive, got {prediction_period_s}")
        if offload_payload_bytes <= 0:
            raise ValueError(f"offload_payload_bytes must be positive, got {offload_payload_bytes}")
        if difficulty_detector_energy_j < 0:
            raise ValueError(
                f"difficulty_detector_energy_j must be >= 0, got {difficulty_detector_energy_j}"
            )
        self.watch = watch or make_smartwatch_mcu()
        self.phone = phone or make_phone_processor()
        self.ble = ble or BLELink.calibrated_to_paper()
        self.prediction_period_s = prediction_period_s
        self.offload_payload_bytes = offload_payload_bytes
        self.difficulty_detector_energy_j = difficulty_detector_energy_j
        self.cost_registry = cost_registry if cost_registry is not None else SHARED_COST_REGISTRY

    # ----------------------------------------------------------- connection
    @property
    def connected(self) -> bool:
        """Whether the BLE link to the phone is currently available."""
        return self.ble.connected

    # ------------------------------------------------------------ cost model
    def _idle_energy(self, busy_time_s: float) -> float:
        idle_time = max(0.0, self.prediction_period_s - busy_time_s)
        return self.watch.idle_energy(idle_time)

    def local_prediction_cost(self, deployment: ModelDeployment) -> PredictionCost:
        """Cost of running ``deployment`` on the smartwatch."""
        busy = deployment.watch_time_s
        return PredictionCost(
            model_name=deployment.name,
            target=ExecutionTarget.WATCH,
            watch_compute_j=deployment.watch_active_energy_j + self.difficulty_detector_energy_j,
            watch_radio_j=0.0,
            watch_idle_j=self._idle_energy(busy),
            phone_compute_j=0.0,
            latency_s=deployment.watch_time_s,
        )

    def offloaded_prediction_cost(self, deployment: ModelDeployment) -> PredictionCost:
        """Cost of streaming the window to the phone and running there.

        Raises
        ------
        RuntimeError
            If the BLE link is currently disconnected.
        """
        if not self.ble.connected:
            raise RuntimeError("cannot offload: BLE link is disconnected")
        return self.offloaded_cost(deployment)

    def offloaded_cost(self, deployment: ModelDeployment) -> PredictionCost:
        """Offloaded cost without the connection guard.

        The batched runtime plans offloading only for windows whose BLE
        segment is up, so it evaluates this cost regardless of the link's
        *current* state; interactive callers should keep using
        :meth:`offloaded_prediction_cost`.
        """
        tx_time = self.ble.transmission_time_s(self.offload_payload_bytes)
        tx_energy = self.ble.transmission_energy_j(self.offload_payload_bytes)
        busy = tx_time  # the watch is only busy while transmitting
        return PredictionCost(
            model_name=deployment.name,
            target=ExecutionTarget.PHONE,
            watch_compute_j=self.difficulty_detector_energy_j,
            watch_radio_j=tx_energy,
            watch_idle_j=self._idle_energy(busy),
            phone_compute_j=deployment.phone_active_energy_j,
            latency_s=tx_time + deployment.phone_time_s,
        )

    def prediction_cost(self, deployment: ModelDeployment, target: ExecutionTarget) -> PredictionCost:
        """Cost of one prediction on the requested target."""
        if target is ExecutionTarget.WATCH:
            return self.local_prediction_cost(deployment)
        return self.offloaded_prediction_cost(deployment)

    # ------------------------------------------------------------ cost tables
    def hardware_revision(self) -> tuple:
        """Fingerprint of every parameter the cost model reads.

        Per-prediction costs consult only the watch's idle power (active
        energies come from the deployment profiles) plus the BLE link and
        the scalar system parameters, all captured here by value — two
        systems with equal revisions produce identical costs, which is the
        key the shared :class:`CostTableRegistry` memoizes by.  Both
        replacing a component and mutating it in place change the revision
        and therefore miss into a fresh table on the next lookup.
        """
        return (
            self.prediction_period_s,
            self.offload_payload_bytes,
            self.difficulty_detector_energy_j,
            self.watch.power.idle_w,
            self.ble.tx_power_w,
            self.ble.throughput_bps,
            self.ble.connection_event_overhead_s,
            self.ble.packetizer.mtu_bytes,
            self.ble.packetizer.packet_overhead_bytes,
        )

    def invalidate_cost_cache(self) -> None:
        """Drop this revision's memoized prediction costs from the registry."""
        self.cost_registry.drop(self.hardware_revision())

    def cached_prediction_cost(
        self, deployment: ModelDeployment, target: ExecutionTarget
    ) -> PredictionCost:
        """Memoized per-``(deployment, target)`` prediction cost.

        Costs are deterministic given the system parameters, so the hot
        batched-dispatch path looks them up in the shared
        :class:`CostTableRegistry` (keyed by :meth:`hardware_revision`)
        instead of rebuilding a :class:`PredictionCost` per window.  Unlike
        :meth:`prediction_cost` this never consults the *current* BLE
        connection state — callers are responsible for only requesting
        phone costs for windows planned while the link is up.
        """
        return self.cost_registry.lookup(self, deployment, target)

    # -------------------------------------------------------------- summary
    def average_watch_power_w(self, energy_per_prediction_j: float) -> float:
        """Average smartwatch power for a given per-prediction energy."""
        if energy_per_prediction_j < 0:
            raise ValueError("energy_per_prediction_j must be >= 0")
        return energy_per_prediction_j / self.prediction_period_s
