"""End-to-end integration tests: Dynamo protecting a live datacenter.

These tests drive the full stack — workloads, servers, RAPL, agents, RPC,
leaf and upper controllers, breakers — through surge events and assert the
paper's headline behaviours: capping engages within the 2-minute safety
budget, power settles below the limit, breakers do not trip, and the
baselines without (full) Dynamo do trip.
"""

from repro.analysis.worlds import build_surge_world
from repro.baselines.local_only import LeafOnlyCapping
from repro.baselines.uncontrolled import UncontrolledBaseline
from repro.core.dynamo import Dynamo
from repro.fleet import FleetDriver
from repro.workloads.events import TrafficSurgeEvent


class TestSurgeProtection:
    def test_dynamo_prevents_trip_where_uncontrolled_trips(self):
        surge = TrafficSurgeEvent(
            start_s=120.0, end_s=3600.0, multiplier=1.6, ramp_s=60.0
        )

        # Uncontrolled: the surge tripping the SB breaker.
        engine, topology, fleet, _ = build_surge_world(surge=surge, seed=7)
        baseline = UncontrolledBaseline(engine, topology, fleet)
        baseline.start()
        engine.run_until(3000.0)
        assert baseline.trips, "uncontrolled surge should trip a breaker"

        # Dynamo: same world, same surge, no trips.
        engine, topology, fleet, rng = build_surge_world(surge=surge, seed=7)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dyn"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(3000.0)
        assert not driver.trips, "Dynamo must keep all breakers untripped"
        assert dynamo.total_cap_events() > 0

    def test_capping_reacts_within_two_minutes(self):
        # Design requirement from Section II-C: react to spikes in
        # <= 2 minutes.  With a 3 s pull cycle the first cap lands within
        # seconds of the threshold crossing.
        surge = TrafficSurgeEvent(
            start_s=60.0, end_s=3600.0, multiplier=1.6, ramp_s=30.0
        )
        engine, topology, fleet, rng = build_surge_world(surge=surge)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dyn"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(60.0 + 120.0)
        assert dynamo.total_cap_events() > 0
        sb_limit = topology.device("sb0").rated_power_w
        assert topology.device("sb0").power_w() <= sb_limit

    def test_power_settles_below_capping_target(self):
        surge = TrafficSurgeEvent(
            start_s=60.0, end_s=7200.0, multiplier=1.6, ramp_s=30.0
        )
        engine, topology, fleet, rng = build_surge_world(surge=surge)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dyn"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(1200.0)
        sb = topology.device("sb0")
        # Held at-or-below ~the capping target band (allowing the
        # threshold band itself as slack).
        assert sb.power_w() <= sb.rated_power_w * 0.99 + 1.0

    def test_uncapping_after_surge_ends(self):
        surge = TrafficSurgeEvent(
            start_s=60.0, end_s=900.0, multiplier=1.6, ramp_s=30.0
        )
        engine, topology, fleet, rng = build_surge_world(surge=surge)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dyn"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(2400.0)
        assert dynamo.total_cap_events() > 0
        assert dynamo.total_uncap_events() > 0
        assert dynamo.capped_server_count() == 0

    def test_performance_mostly_preserved_outside_surge(self):
        surge = TrafficSurgeEvent(
            start_s=300.0, end_s=600.0, multiplier=1.6, ramp_s=30.0
        )
        engine, topology, fleet, rng = build_surge_world(surge=surge)
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dyn"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(1800.0)
        ratios = [s.performance_ratio() for s in fleet.servers.values()]
        # Capping only bites during the surge window; overall delivered
        # work stays above 80% of demand.
        assert min(ratios) > 0.80


class TestCoordinationNecessity:
    def test_leaf_only_capping_misses_sb_overload(self):
        # Size the world so each RPP stays within its own rating while
        # the SB is oversubscribed: RPP ratings generous, SB rating tight.
        surge = TrafficSurgeEvent(
            start_s=120.0, end_s=3600.0, multiplier=1.55, ramp_s=60.0
        )
        engine, topology, fleet, rng = build_surge_world(
            surge=surge,
            rpp_rating_w=50_000.0,  # never binding
            seed=11,
        )
        leaf_only = LeafOnlyCapping(engine, topology, fleet, rng_streams=rng.fork("lo"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        leaf_only.start()
        engine.run_until(2400.0)
        assert driver.trips, (
            "without upper-level coordination the oversubscribed SB "
            "must eventually trip"
        )
        assert driver.trips[0].level == "sb"

    def test_full_hierarchy_protects_same_world(self):
        surge = TrafficSurgeEvent(
            start_s=120.0, end_s=3600.0, multiplier=1.55, ramp_s=60.0
        )
        engine, topology, fleet, rng = build_surge_world(
            surge=surge,
            rpp_rating_w=50_000.0,
            seed=11,
        )
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dyn"))
        driver = FleetDriver(engine, topology, fleet)
        driver.start()
        dynamo.start()
        engine.run_until(2400.0)
        assert not driver.trips
