"""Tests for hierarchy building, the coordinator, failover and watchdog."""

import numpy as np
import pytest

from repro.core.coordinator import ControllerCoordinator
from repro.core.failover import FailoverController
from repro.core.hierarchy import build_controller_hierarchy
from repro.core.leaf_controller import LeafPowerController
from repro.core.upper_controller import UpperLevelPowerController
from repro.core.watchdog import AgentWatchdog
from repro.core.agent import DynamoAgent
from repro.errors import ConfigurationError
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.device import DeviceLevel, PowerDevice
from repro.rpc.transport import RpcTransport

from tests.conftest import make_server, tiny_topology


def make_transport():
    return RpcTransport(np.random.default_rng(0))


class TestHierarchyBuilding:
    def test_one_controller_per_protected_device(self):
        topo = tiny_topology()
        hierarchy = build_controller_hierarchy(topo, make_transport())
        assert set(hierarchy.leaf_controllers) == {"rpp0", "rpp1"}
        assert set(hierarchy.upper_controllers) == {"msb0", "sb0"}
        assert hierarchy.controller_count == 4

    def test_racks_skipped_with_default_leaf_level(self):
        # Footnote 2: leaf controllers sit at RPPs; racks are skipped.
        topo = build_datacenter(
            DataCenterSpec(
                name="t", msb_count=1, sbs_per_msb=1, rpps_per_sb=2,
                racks_per_rpp=2,
            )
        )
        hierarchy = build_controller_hierarchy(topo, make_transport())
        assert set(hierarchy.leaf_controllers) == {"rpp0.0.0", "rpp0.0.1"}
        for name in hierarchy.leaf_controllers:
            assert not name.startswith("rack")

    def test_rack_servers_roll_up_to_rpp_controller(self):
        topo = build_datacenter(
            DataCenterSpec(
                name="t", msb_count=1, sbs_per_msb=1, rpps_per_sb=1,
                racks_per_rpp=2,
            )
        )
        server = make_server("deep")
        topo.device("rack0.0.0.1").attach_load("deep", server.power_w)
        hierarchy = build_controller_hierarchy(topo, make_transport())
        leaf = hierarchy.leaf_controllers["rpp0.0.0"]
        assert leaf.server_ids == ["deep"]

    def test_children_wired_to_parents(self):
        topo = tiny_topology()
        hierarchy = build_controller_hierarchy(topo, make_transport())
        sb = hierarchy.upper_controllers["sb0"]
        assert sorted(c.name for c in sb.children) == ["rpp0", "rpp1"]
        msb = hierarchy.upper_controllers["msb0"]
        assert [c.name for c in msb.children] == ["sb0"]

    def test_controller_lookup(self):
        topo = tiny_topology()
        hierarchy = build_controller_hierarchy(topo, make_transport())
        assert isinstance(hierarchy.controller("rpp0"), LeafPowerController)
        assert isinstance(
            hierarchy.controller("sb0"), UpperLevelPowerController
        )
        with pytest.raises(ConfigurationError):
            hierarchy.controller("ghost")


class TestCoordinator:
    def test_schedules_all_controllers(self, engine):
        topo = tiny_topology()
        hierarchy = build_controller_hierarchy(topo, make_transport())
        coordinator = ControllerCoordinator(engine, hierarchy)
        assert coordinator.thread_count == 4
        coordinator.start()
        assert coordinator.running
        engine.run_until(30.0)
        for leaf in hierarchy.leaf_controllers.values():
            assert len(leaf.aggregate_series) == 10  # every 3 s from t=3

    def test_upper_ticks_every_9s(self, engine):
        topo = tiny_topology()
        hierarchy = build_controller_hierarchy(topo, make_transport())
        coordinator = ControllerCoordinator(engine, hierarchy)
        coordinator.start()
        engine.run_until(30.0)
        sb = hierarchy.upper_controllers["sb0"]
        assert len(sb.aggregate_series) == 3  # t=9,18,27

    def test_stop(self, engine):
        topo = tiny_topology()
        hierarchy = build_controller_hierarchy(topo, make_transport())
        coordinator = ControllerCoordinator(engine, hierarchy)
        coordinator.start()
        engine.run_until(10.0)
        coordinator.stop()
        counts = [
            len(l.aggregate_series)
            for l in hierarchy.leaf_controllers.values()
        ]
        engine.run_until(60.0)
        assert [
            len(l.aggregate_series)
            for l in hierarchy.leaf_controllers.values()
        ] == counts


class TestFailover:
    def make_pair(self):
        device = PowerDevice("sb0", DeviceLevel.SB, 1_000.0)
        primary = UpperLevelPowerController(device, [])
        backup = UpperLevelPowerController(device, [])
        return FailoverController(primary, backup), primary, backup

    def test_primary_serves_by_default(self):
        pair, primary, _ = self.make_pair()
        assert pair.active is primary
        assert pair.primary_healthy

    def test_backup_takes_over_on_failure(self):
        pair, primary, backup = self.make_pair()
        pair.fail_primary()
        assert pair.active is backup
        assert pair.failovers == 1

    def test_restore_returns_control(self):
        pair, primary, _ = self.make_pair()
        pair.fail_primary()
        pair.restore_primary()
        assert pair.active is primary

    def test_double_failure_counts_once(self):
        pair, _, _ = self.make_pair()
        pair.fail_primary()
        pair.fail_primary()
        assert pair.failovers == 1

    def test_contractual_limits_propagate_to_both(self):
        pair, primary, backup = self.make_pair()
        pair.set_contractual_limit_w(500.0)
        assert primary.contractual_limit_w == 500.0
        assert backup.contractual_limit_w == 500.0
        pair.clear_contractual_limit()
        assert primary.contractual_limit_w is None
        assert backup.contractual_limit_w is None

    def test_uniform_interface(self):
        pair, _, _ = self.make_pair()
        assert pair.name == "sb0"
        assert pair.device.name == "sb0"
        assert pair.last_aggregate_power_w is None


class TestWatchdog:
    def test_restarts_crashed_agents(self, engine):
        transport = make_transport()
        agents = [
            DynamoAgent(make_server(f"s{i}"), transport) for i in range(3)
        ]
        watchdog = AgentWatchdog(engine, agents)
        watchdog.start()
        agents[0].crash()
        agents[2].crash()
        engine.run_until(31.0)
        assert all(a.healthy for a in agents)
        assert watchdog.restarts == 2

    def test_no_restarts_when_healthy(self, engine):
        transport = make_transport()
        agents = [DynamoAgent(make_server("s0"), transport)]
        watchdog = AgentWatchdog(engine, agents)
        watchdog.start()
        engine.run_until(100.0)
        assert watchdog.restarts == 0

    def test_add_agent(self, engine):
        transport = make_transport()
        watchdog = AgentWatchdog(engine, [])
        agent = DynamoAgent(make_server("s0"), transport)
        watchdog.add_agent(agent)
        assert watchdog.agent_count == 1
        watchdog.start()
        agent.crash()
        engine.run_until(31.0)
        assert agent.healthy

    def test_stop(self, engine):
        transport = make_transport()
        agent = DynamoAgent(make_server("s0"), transport)
        watchdog = AgentWatchdog(engine, [agent])
        watchdog.start()
        engine.run_until(5.0)
        watchdog.stop()
        agent.crash()
        engine.run_until(100.0)
        assert not agent.healthy
