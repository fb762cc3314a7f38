"""Tests for the Dynamo facade wiring."""

import pytest

from repro.config import ThreeBandConfig
from repro.core.dynamo import Dynamo
from repro.fleet import FleetDriver, ServiceAllocation, populate_fleet
from repro.power.oversubscription import plan_quotas
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams

from tests.conftest import tiny_topology


def make_deployment(n_web=8, seed=3):
    engine = SimulationEngine()
    topology = tiny_topology()
    plan_quotas(topology)
    rng = RngStreams(seed)
    fleet = populate_fleet(
        topology, [ServiceAllocation("web", n_web)], rng
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dynamo"))
    driver = FleetDriver(engine, topology, fleet)
    return engine, topology, fleet, dynamo, driver


class TestWiring:
    def test_one_agent_per_server(self):
        _, _, fleet, dynamo, _ = make_deployment()
        assert set(dynamo.agents) == set(fleet.servers)

    def test_controllers_mirror_topology(self):
        _, topology, _, dynamo, _ = make_deployment()
        protected = {
            d.name
            for d in topology.iter_devices()
        }
        controller_names = set(dynamo.hierarchy.leaf_controllers) | set(
            dynamo.hierarchy.upper_controllers
        )
        assert controller_names == protected

    def test_leaf_controllers_cover_all_servers(self):
        _, _, fleet, dynamo, _ = make_deployment()
        covered = set()
        for leaf in dynamo.hierarchy.leaf_controllers.values():
            covered.update(leaf.server_ids)
        assert covered == set(fleet.servers)

    def test_controller_lookup_helpers(self):
        _, _, _, dynamo, _ = make_deployment()
        assert dynamo.controller("sb0").name == "sb0"
        assert dynamo.leaf_controller("rpp0").name == "rpp0"


class TestRunning:
    def test_runs_and_monitors(self):
        engine, _, _, dynamo, driver = make_deployment()
        driver.start()
        dynamo.start()
        engine.run_until(60.0)
        for leaf in dynamo.hierarchy.leaf_controllers.values():
            assert leaf.last_aggregate_power_w is not None
        for upper in dynamo.hierarchy.upper_controllers.values():
            assert upper.last_aggregate_power_w is not None

    def test_aggregates_consistent_across_levels(self):
        engine, topology, fleet, dynamo, driver = make_deployment()
        driver.start()
        dynamo.start()
        engine.run_until(60.0)
        sb = dynamo.controller("sb0")
        leaf_sum = sum(
            l.last_aggregate_power_w
            for l in dynamo.hierarchy.leaf_controllers.values()
        )
        assert sb.last_aggregate_power_w == pytest.approx(leaf_sum, rel=0.05)

    def test_no_caps_under_light_load(self):
        engine, _, _, dynamo, driver = make_deployment()
        driver.start()
        dynamo.start()
        engine.run_until(120.0)
        assert dynamo.total_cap_events() == 0
        assert dynamo.capped_server_count() == 0

    def test_stop_halts_control(self):
        engine, _, _, dynamo, driver = make_deployment()
        driver.start()
        dynamo.start()
        engine.run_until(30.0)
        dynamo.stop()
        samples = len(dynamo.leaf_controller("rpp0").aggregate_series)
        engine.run_until(90.0)
        assert len(dynamo.leaf_controller("rpp0").aggregate_series) == samples

    def test_crashed_agents_recovered_by_watchdog(self):
        engine, _, _, dynamo, driver = make_deployment()
        driver.start()
        dynamo.start()
        agent = next(iter(dynamo.agents.values()))
        agent.crash()
        # The first sweep runs one 30 s watchdog interval after start.
        engine.run_until(35.0)
        assert agent.healthy
        assert dynamo.watchdog.restarts == 1


class TestBandOverride:
    def started(self):
        engine, _, _, dynamo, driver = make_deployment(seed=9)
        driver.start()
        dynamo.start()
        return engine, dynamo

    def test_override_changes_thresholds(self):
        engine, dynamo = self.started()
        custom = ThreeBandConfig(
            capping_threshold=0.97,
            capping_target=0.90,
            uncapping_threshold=0.80,
        )
        dynamo.set_band_config("rpp0", custom)
        controller = dynamo.leaf_controller("rpp0")
        cap_at, target, uncap = controller.band.thresholds_w(100_000.0)
        assert cap_at == pytest.approx(97_000.0)
        assert target == pytest.approx(90_000.0)
        assert uncap == pytest.approx(80_000.0)

    def test_override_preserves_capping_state(self):
        engine, dynamo = self.started()
        engine.run_until(30.0)
        leaf = dynamo.leaf_controller("rpp0")
        leaf.set_contractual_limit_w(leaf.last_aggregate_power_w * 0.9)
        engine.run_until(45.0)
        assert leaf.band.capping_active
        dynamo.set_band_config("rpp0", ThreeBandConfig())
        assert leaf.band.capping_active

    def test_override_per_level(self):
        # Different trade-offs at different levels, as the paper allows.
        engine, dynamo = self.started()
        dynamo.set_band_config(
            "sb0",
            ThreeBandConfig(
                capping_threshold=0.98,
                capping_target=0.93,
                uncapping_threshold=0.85,
            ),
        )
        sb = dynamo.controller("sb0")
        rpp = dynamo.leaf_controller("rpp0")
        assert sb.band.config != rpp.band.config
