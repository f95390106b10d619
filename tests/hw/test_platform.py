"""Tests for the watch + phone + BLE co-model."""

import pytest

from repro.hw.ble import BLELink
from repro.hw.platform import (
    PREDICTION_PERIOD_S,
    CostTableError,
    CostTableRegistry,
    WearableSystem,
)
from repro.hw.profiles import PAPER_DEPLOYMENTS, ExecutionTarget
from repro.models.registry import PAPER_MODEL_STATS


@pytest.fixture()
def system() -> WearableSystem:
    return WearableSystem()


class TestLocalPrediction:
    def test_prediction_period_is_window_stride(self):
        assert PREDICTION_PERIOD_S == pytest.approx(2.0)

    def test_local_cost_reproduces_table3_energy(self, system):
        """Local per-prediction watch energy (compute + idle) matches Table III."""
        for name, deployment in PAPER_DEPLOYMENTS.items():
            cost = system.local_prediction_cost(deployment)
            expected_mj = PAPER_MODEL_STATS[name].watch_energy_mj
            assert cost.watch_total_j * 1e3 == pytest.approx(expected_mj, rel=0.05), name
            assert cost.phone_compute_j == 0.0
            assert cost.watch_radio_j == 0.0
            assert not cost.offloaded

    def test_local_latency_is_execution_time(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        cost = system.local_prediction_cost(deployment)
        assert cost.latency_s == pytest.approx(deployment.watch_time_s)


class TestOffloadedPrediction:
    def test_offload_energy_is_ble_plus_idle(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        cost = system.offloaded_prediction_cost(deployment)
        assert cost.offloaded
        assert cost.watch_compute_j == 0.0
        assert cost.watch_radio_j == pytest.approx(0.52e-3, rel=0.02)
        assert cost.phone_compute_j == pytest.approx(25.60e-3, rel=0.01)
        # Offloading the big model costs the watch far less than running it.
        local = system.local_prediction_cost(deployment)
        assert cost.watch_total_j < local.watch_total_j / 20

    def test_offload_latency_includes_transfer_and_remote_execution(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Small"]
        cost = system.offloaded_prediction_cost(deployment)
        assert cost.latency_s == pytest.approx(
            system.ble.transmission_time_s(system.offload_payload_bytes) + deployment.phone_time_s
        )

    def test_offloading_at_is_suboptimal_for_the_watch(self, system):
        """Paper Sec. IV-A: offloading AT costs the watch more than running it."""
        deployment = PAPER_DEPLOYMENTS["AT"]
        local = system.local_prediction_cost(deployment)
        offloaded = system.offloaded_prediction_cost(deployment)
        assert offloaded.watch_total_j > local.watch_total_j

    def test_offloading_small_is_marginally_convenient(self, system):
        """Paper Sec. IV-A: for TimePPG-Small, streaming (0.519 mJ) is slightly
        cheaper for the watch than local execution (0.735 mJ)."""
        deployment = PAPER_DEPLOYMENTS["TimePPG-Small"]
        local = system.local_prediction_cost(deployment)
        offloaded = system.offloaded_prediction_cost(deployment)
        assert offloaded.watch_total_j < local.watch_total_j
        assert offloaded.watch_total_j > 0.6 * local.watch_total_j

    def test_offload_requires_connection(self):
        system = WearableSystem(ble=BLELink.calibrated_to_paper(connected=False))
        with pytest.raises(RuntimeError):
            system.offloaded_prediction_cost(PAPER_DEPLOYMENTS["TimePPG-Big"])
        assert not system.connected

    def test_system_total_includes_phone(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        cost = system.offloaded_prediction_cost(deployment)
        assert cost.system_total_j == pytest.approx(cost.watch_total_j + cost.phone_compute_j)


class TestConfigurationKnobs:
    def test_incremental_streaming_reduces_radio_energy(self):
        full = WearableSystem()
        incremental = WearableSystem(offload_payload_bytes=64 * 4 * 2)
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        assert (
            incremental.offloaded_prediction_cost(deployment).watch_radio_j
            < full.offloaded_prediction_cost(deployment).watch_radio_j
        )

    def test_difficulty_detector_overhead_added_to_every_prediction(self):
        overhead = 50e-6
        system = WearableSystem(difficulty_detector_energy_j=overhead)
        baseline = WearableSystem()
        deployment = PAPER_DEPLOYMENTS["AT"]
        delta = (
            system.local_prediction_cost(deployment).watch_total_j
            - baseline.local_prediction_cost(deployment).watch_total_j
        )
        assert delta == pytest.approx(overhead)

    def test_prediction_cost_dispatch(self, system):
        deployment = PAPER_DEPLOYMENTS["AT"]
        assert not system.prediction_cost(deployment, ExecutionTarget.WATCH).offloaded
        assert system.prediction_cost(deployment, ExecutionTarget.PHONE).offloaded

    def test_average_power(self, system):
        assert system.average_watch_power_w(2e-3) == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            WearableSystem(prediction_period_s=0.0)
        with pytest.raises(ValueError):
            WearableSystem(offload_payload_bytes=0)
        with pytest.raises(ValueError):
            WearableSystem(difficulty_detector_energy_j=-1.0)


class TestCachedPredictionCost:
    def test_cache_returns_same_object(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Small"]
        first = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        second = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        assert first is second
        assert first == system.prediction_cost(deployment, ExecutionTarget.WATCH)

    def test_cached_matches_uncached_for_both_targets(self, system):
        for name in PAPER_DEPLOYMENTS:
            deployment = PAPER_DEPLOYMENTS[name]
            for target in (ExecutionTarget.WATCH, ExecutionTarget.PHONE):
                assert system.cached_prediction_cost(deployment, target) == (
                    system.prediction_cost(deployment, target)
                )

    def test_cache_invalidates_when_parameters_change(self, system):
        deployment = PAPER_DEPLOYMENTS["AT"]
        before = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        system.prediction_period_s = 4.0
        after = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        assert after.watch_idle_j > before.watch_idle_j

    def test_explicit_invalidation_clears_entries(self, system):
        deployment = PAPER_DEPLOYMENTS["AT"]
        first = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        system.invalidate_cost_cache()
        second = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        assert first is not second
        assert first == second

    def test_cached_phone_cost_ignores_connection_state(self, system):
        """The batched planner guarantees phone windows were planned while
        connected, so the cache lookup itself must not consult the link."""
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        expected = system.prediction_cost(deployment, ExecutionTarget.PHONE)
        system.ble.disconnect()
        try:
            with pytest.raises(RuntimeError):
                system.prediction_cost(deployment, ExecutionTarget.PHONE)
            assert system.cached_prediction_cost(deployment, ExecutionTarget.PHONE) == expected
        finally:
            system.ble.reconnect()


class TestCostTableRegistry:
    def test_shared_across_system_instances(self):
        """Identical hardware revisions are profiled once for the whole fleet."""
        registry = CostTableRegistry()
        fleet = [WearableSystem(cost_registry=registry) for _ in range(5)]
        deployment = PAPER_DEPLOYMENTS["TimePPG-Small"]
        costs = [
            system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
            for system in fleet
        ]
        assert all(cost is costs[0] for cost in costs)
        assert registry.n_revisions == 1
        assert registry.n_entries == 1

    def test_heterogeneous_revisions_get_separate_tables(self):
        registry = CostTableRegistry()
        stock = WearableSystem(cost_registry=registry)
        modified = WearableSystem(cost_registry=registry, prediction_period_s=4.0)
        deployment = PAPER_DEPLOYMENTS["AT"]
        a = stock.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        b = modified.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        assert registry.n_revisions == 2
        assert b.watch_idle_j > a.watch_idle_j

    def test_profile_system_fills_every_pair(self):
        registry = CostTableRegistry()
        system = WearableSystem(cost_registry=registry)
        deployments = list(PAPER_DEPLOYMENTS.values())
        revision = registry.profile_system(system, deployments)
        assert revision == system.hardware_revision()
        assert registry.n_entries == 2 * len(deployments)

    def test_json_roundtrip_is_bit_exact(self):
        registry = CostTableRegistry()
        system = WearableSystem(cost_registry=registry)
        registry.profile_system(system, list(PAPER_DEPLOYMENTS.values()))
        loaded = CostTableRegistry.from_json(registry.to_json())
        assert loaded.revisions() == registry.revisions()
        assert loaded.n_entries == registry.n_entries
        worker = WearableSystem(cost_registry=loaded)
        for deployment in PAPER_DEPLOYMENTS.values():
            for target in (ExecutionTarget.WATCH, ExecutionTarget.PHONE):
                assert worker.cached_prediction_cost(deployment, target) == (
                    system.cached_prediction_cost(deployment, target)
                )
        # The loaded table served every lookup: nothing was re-profiled.
        assert loaded.n_entries == registry.n_entries

    def test_merge_keeps_existing_entries(self):
        registry = CostTableRegistry()
        system = WearableSystem(cost_registry=registry)
        deployment = PAPER_DEPLOYMENTS["AT"]
        mine = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        other = CostTableRegistry.from_json(registry.to_json())
        registry.merge(other)
        assert system.cached_prediction_cost(deployment, ExecutionTarget.WATCH) is mine

    def test_clear_and_drop(self):
        registry = CostTableRegistry()
        system = WearableSystem(cost_registry=registry)
        deployment = PAPER_DEPLOYMENTS["AT"]
        system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        registry.drop(system.hardware_revision())
        assert registry.n_revisions == 0
        registry.drop(system.hardware_revision())  # no-op when absent
        system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        registry.clear()
        assert registry.n_entries == 0

    def test_default_systems_share_the_module_registry(self):
        from repro.hw.platform import SHARED_COST_REGISTRY

        assert WearableSystem().cost_registry is SHARED_COST_REGISTRY
        assert WearableSystem().cost_registry is WearableSystem().cost_registry


class TestCostTableErrorPaths:
    """Corrupt payloads and strict lookups must fail loudly, never
    silently re-profile (a caller handed a broken table would otherwise
    mask the deployment bug by recomputing everything)."""

    def _profiled_registry(self) -> tuple[CostTableRegistry, WearableSystem]:
        registry = CostTableRegistry()
        system = WearableSystem(cost_registry=registry)
        registry.profile_system(system, list(PAPER_DEPLOYMENTS.values()))
        return registry, system

    def test_corrupt_json_raises(self):
        with pytest.raises(CostTableError, match="corrupt cost-table JSON"):
            CostTableRegistry.from_json("{not json at all")

    def test_wrong_top_level_type_raises(self):
        with pytest.raises(CostTableError, match="expected a list"):
            CostTableRegistry.from_json('{"revision": []}')

    def test_missing_block_keys_raise(self):
        with pytest.raises(CostTableError, match="revision block 0"):
            CostTableRegistry.from_json('[{"entries": []}]')

    def test_malformed_entry_raises(self):
        registry, _ = self._profiled_registry()
        import json

        payload = json.loads(registry.to_json())
        del payload[0]["entries"][0]["deployment"]["name"]
        with pytest.raises(CostTableError, match="corrupt cost-table entry"):
            CostTableRegistry.from_json(json.dumps(payload))

    def test_unknown_execution_target_raises(self):
        registry, _ = self._profiled_registry()
        import json

        payload = json.loads(registry.to_json())
        payload[0]["entries"][0]["target"] = "toaster"
        with pytest.raises(CostTableError, match="corrupt cost-table entry"):
            CostTableRegistry.from_json(json.dumps(payload))

    def test_corrupt_file_raises_with_path(self, tmp_path):
        path = tmp_path / "costs.json"
        path.write_text("]] definitely broken [[")
        with pytest.raises(CostTableError, match="corrupt cost-table JSON"):
            CostTableRegistry.from_json_file(path)

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(CostTableError, match="cannot read cost-table file"):
            CostTableRegistry.from_json_file(tmp_path / "missing.json")

    def test_file_roundtrip(self, tmp_path):
        registry, system = self._profiled_registry()
        path = tmp_path / "costs.json"
        registry.to_json_file(path)
        loaded = CostTableRegistry.from_json_file(path)
        assert loaded.n_entries == registry.n_entries
        deployment = PAPER_DEPLOYMENTS["TimePPG-Small"]
        assert loaded.cost_for(system, deployment, ExecutionTarget.WATCH) == (
            registry.cost_for(system, deployment, ExecutionTarget.WATCH)
        )

    def test_strict_lookup_unknown_revision_raises(self):
        registry, _ = self._profiled_registry()
        stranger = WearableSystem(
            cost_registry=CostTableRegistry(), prediction_period_s=3.0
        )
        with pytest.raises(CostTableError, match="no cost table for hardware revision"):
            registry.cost_for(
                stranger, PAPER_DEPLOYMENTS["AT"], ExecutionTarget.WATCH
            )

    def test_strict_lookup_partial_table_raises(self):
        registry = CostTableRegistry()
        system = WearableSystem(cost_registry=registry)
        deployment = PAPER_DEPLOYMENTS["AT"]
        registry.lookup(system, deployment, ExecutionTarget.WATCH)
        with pytest.raises(CostTableError, match="partial"):
            registry.cost_for(system, deployment, ExecutionTarget.PHONE)
        # ... and the failed strict lookup did not silently profile.
        assert registry.n_entries == 1

    def test_strict_lookup_hits_do_not_grow_the_table(self):
        registry, system = self._profiled_registry()
        before = registry.n_entries
        for deployment in PAPER_DEPLOYMENTS.values():
            for target in (ExecutionTarget.WATCH, ExecutionTarget.PHONE):
                assert registry.cost_for(system, deployment, target) is (
                    registry.lookup(system, deployment, target)
                )
        assert registry.n_entries == before

    def test_non_list_entries_raise(self):
        with pytest.raises(CostTableError, match="'entries' must be a list"):
            CostTableRegistry.from_json('[{"revision": [], "entries": 42}]')


class TestConcurrentRegistryAccess:
    """The registry is shared mutable state across threads.

    Regression for the unguarded-table era: concurrent fills while another
    thread serialized raised ``RuntimeError: dictionary changed size during
    iteration`` (or shipped half-filled tables).  Every fill/read now goes
    through the registry's internal lock.
    """

    def test_concurrent_fills_and_serialization(self):
        import threading

        registry = CostTableRegistry()
        # Distinct hardware revisions so fills keep inserting fresh keys.
        systems = [
            WearableSystem(
                cost_registry=registry, prediction_period_s=2.0 + 0.001 * i
            )
            for i in range(6)
        ]
        deployments = list(PAPER_DEPLOYMENTS.values())
        barrier = threading.Barrier(len(systems) + 2)
        errors: list[BaseException] = []

        def fill(system: WearableSystem) -> None:
            try:
                barrier.wait()
                for _ in range(40):
                    registry.profile_system(system, deployments)
                    # Drop the revision so the next round re-inserts keys
                    # (real churn, not idempotent cache hits).
                    system.invalidate_cost_cache()
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        def serialize() -> None:
            try:
                barrier.wait()
                for _ in range(120):
                    CostTableRegistry.from_json(registry.to_json())
                    registry.n_entries
                    registry.revisions()
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=fill, args=(s,)) for s in systems]
        threads += [threading.Thread(target=serialize) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        # After the dust settles a full profile leaves a complete table.
        for system in systems:
            registry.profile_system(system, deployments)
        assert registry.n_revisions == len(systems)
        assert registry.n_entries == len(systems) * len(deployments) * 2

    def test_registry_survives_pickle_and_deepcopy(self):
        import copy
        import pickle

        registry = CostTableRegistry()
        system = WearableSystem(cost_registry=registry)
        registry.profile_system(system, list(PAPER_DEPLOYMENTS.values()))

        clone = copy.deepcopy(registry)
        assert clone.n_entries == registry.n_entries
        assert clone._lock is not registry._lock

        loaded = pickle.loads(pickle.dumps(registry))
        assert loaded.n_entries == registry.n_entries
        # The copies stay independently usable (fresh locks).
        loaded.clear()
        assert loaded.n_entries == 0
        assert registry.n_entries > 0
