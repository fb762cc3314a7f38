"""Integration tests for Dynamo's fault tolerance under active capping.

The paper designs for: agent crashes (watchdog restarts), power-pull
failures (neighbour estimation; >20% invalidates), flaky RPC fabric, and
controller crashes (primary/backup failover).  These tests inject those
faults *during* capping events and assert safety holds.
"""

from repro.analysis.worlds import build_surge_world
from repro.core.dynamo import Dynamo
from repro.core.failover import FailoverController
from repro.core.upper_controller import UpperLevelPowerController
from repro.fleet import FleetDriver
from repro.rpc.transport import FailureInjector
from repro.workloads.events import TrafficSurgeEvent


def surge():
    return TrafficSurgeEvent(
        start_s=120.0, end_s=1800.0, multiplier=1.6, ramp_s=60.0
    )


class TestFlakyRpcDuringCapping:
    def test_capping_succeeds_with_10pct_rpc_failures(self):
        engine, topology, fleet, rng = build_surge_world(surge=surge(), seed=51)
        injector = FailureInjector(failure_probability=0.10)
        dynamo = Dynamo(
            engine,
            topology,
            fleet,
            rng_streams=rng.fork("d"),
            injector=injector,
        )
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(1500.0)
        # Safety holds despite the flaky fabric.
        assert not driver.trips
        assert dynamo.total_cap_events() > 0

    def test_heavy_failures_trigger_alerts_not_actions(self):
        engine, topology, fleet, rng = build_surge_world(seed=52)
        injector = FailureInjector(failure_probability=0.5)
        dynamo = Dynamo(
            engine,
            topology,
            fleet,
            rng_streams=rng.fork("d"),
            injector=injector,
        )
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(300.0)
        # With 50% failures, most cycles are invalid: critical alerts
        # fire and the controller takes no false-positive action.
        invalid = sum(
            l.invalid_cycles
            for l in dynamo.hierarchy.leaf_controllers.values()
        )
        assert invalid > 0
        assert dynamo.alerts.count() > 0
        assert dynamo.total_cap_events() == 0  # no surge, no action


class TestAgentCrashDuringCapping:
    def test_crashed_agents_estimated_and_recovered(self):
        engine, topology, fleet, rng = build_surge_world(surge=surge(), seed=53)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(200.0)
        # Crash 10% of agents mid-surge.
        victims = list(dynamo.agents.values())[::10]
        for agent in victims:
            agent.crash()
        engine.run_until(1500.0)
        # Watchdog brought them back; capping still protected the SB.
        assert all(a.healthy for a in victims)
        assert dynamo.watchdog.restarts >= len(victims)
        assert not driver.trips


class TestControllerFailover:
    def test_failover_mid_surge_keeps_protection(self):
        engine, topology, fleet, rng = build_surge_world(surge=surge(), seed=54)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
        # Wrap the SB controller in a primary/backup pair and swap it
        # into the MSB's child list and the coordinator's tick path.
        sb_primary = dynamo.hierarchy.upper_controllers["sb0"]
        sb_backup = UpperLevelPowerController(
            sb_primary.device,
            sb_primary.children,
            config=sb_primary.config,
            alerts=dynamo.alerts,
        )
        pair = FailoverController(sb_primary, sb_backup)
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        # Drive the pair manually on the upper cycle (the coordinator
        # still ticks the primary; stop that and tick the pair instead).
        from repro.simulation.process import PeriodicProcess

        dynamo.coordinator.stop()
        processes = []
        for leaf in dynamo.hierarchy.leaf_controllers.values():
            p = PeriodicProcess(engine, 3.0, leaf.tick, priority=10)
            p.start(phase=3.0)
            processes.append(p)
        pair_process = PeriodicProcess(engine, 9.0, pair.tick, priority=20)
        pair_process.start(phase=9.0)

        engine.run_until(400.0)  # surge under way, primary in control
        pair.fail_primary()
        engine.run_until(1500.0)
        assert pair.failovers == 1
        assert pair.active is sb_backup
        # The backup kept (or re-established) protection: no trips.
        assert not driver.trips
        assert sb_backup.last_aggregate_power_w is not None


class TestServerDecommission:
    def test_decommissioned_server_estimated_then_removed(self):
        engine, topology, fleet, rng = build_surge_world(seed=55)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(60.0)
        # Take one server offline AND kill its agent (decommission).
        victim_id = next(iter(fleet.servers))
        fleet.servers[victim_id].set_online(False)
        dynamo.agents[victim_id].shutdown()
        engine.run_until(120.0)
        # The leaf controller keeps functioning; its estimate for the
        # dead server comes from neighbours, so the aggregate overshoots
        # true power slightly but stays finite and valid.
        leaf = next(
            l
            for l in dynamo.hierarchy.leaf_controllers.values()
            if victim_id in l.server_ids
        )
        assert leaf.last_aggregate_power_w is not None
        assert leaf.invalid_cycles == 0
