"""Tests for fleet construction and the physical-world driver."""

import gc
import json

import pytest

from repro.core.dynamo import Dynamo
from repro.core.validation import BreakerReadingSource, BreakerValidator
from repro.errors import ConfigurationError
from repro.fleet import (
    Fleet,
    FleetDriver,
    ServiceAllocation,
    populate_fleet,
)
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.device import DeviceLevel
from repro.server import estimator as estimator_module
from repro.server.platform import HASWELL_2015, WESTMERE_2011
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams
from repro.state.registry import SnapshotRegistry
from repro.state.worlds import build_quickstart_world

from tests.conftest import tiny_topology


def small_topology():
    return build_datacenter(
        DataCenterSpec(
            name="t", msb_count=1, sbs_per_msb=1, rpps_per_sb=2, racks_per_rpp=2
        )
    )


class TestPopulateFleet:
    def test_counts_and_services(self, rng_streams):
        topo = small_topology()
        fleet = populate_fleet(
            topo,
            [ServiceAllocation("web", 8), ServiceAllocation("cache", 4)],
            rng_streams,
        )
        assert len(fleet.servers) == 12
        assert len(fleet.by_service("web")) == 8
        assert len(fleet.by_service("cache")) == 4

    def test_servers_attached_to_racks_by_default(self, rng_streams):
        topo = small_topology()
        populate_fleet(topo, [ServiceAllocation("web", 8)], rng_streams)
        racks = topo.devices_at_level(DeviceLevel.RACK)
        per_rack = [len(r.load_ids) for r in racks]
        assert sum(per_rack) == 8
        assert max(per_rack) - min(per_rack) <= 1  # round-robin balance

    def test_attach_at_rpp_when_no_racks(self, rng_streams):
        topo = tiny_topology()
        populate_fleet(topo, [ServiceAllocation("web", 4)], rng_streams)
        rpps = topo.devices_at_level(DeviceLevel.RPP)
        assert sum(len(r.load_ids) for r in rpps) == 4

    def test_explicit_attach_level(self, rng_streams):
        topo = small_topology()
        populate_fleet(
            topo,
            [ServiceAllocation("web", 4)],
            rng_streams,
            attach_level=DeviceLevel.RPP,
        )
        rpps = topo.devices_at_level(DeviceLevel.RPP)
        assert sum(len(r.load_ids) for r in rpps) == 4

    def test_platform_and_turbo_options(self, rng_streams):
        topo = tiny_topology()
        fleet = populate_fleet(
            topo,
            [
                ServiceAllocation(
                    "hadoop", 2, platform=WESTMERE_2011, turbo_enabled=True
                )
            ],
            rng_streams,
        )
        for server in fleet.servers.values():
            assert server.platform is WESTMERE_2011
            assert server.turbo.enabled

    def test_rejects_negative_count(self):
        with pytest.raises(ConfigurationError):
            ServiceAllocation("web", -1)

    def test_fleet_lookup(self, rng_streams):
        topo = tiny_topology()
        fleet = populate_fleet(topo, [ServiceAllocation("web", 2)], rng_streams)
        assert fleet.server("web-0000").service == "web"
        with pytest.raises(ConfigurationError):
            fleet.server("ghost")

    def test_deterministic_given_seed(self):
        topo1, topo2 = tiny_topology(), tiny_topology()
        f1 = populate_fleet(topo1, [ServiceAllocation("web", 3)], RngStreams(5))
        f2 = populate_fleet(topo2, [ServiceAllocation("web", 3)], RngStreams(5))
        for sid in f1.server_ids:
            u1 = f1.server(sid).workload.utilization(100.0)
            u2 = f2.server(sid).workload.utilization(100.0)
            assert u1 == u2


class TestFleetDriver:
    def test_steps_servers(self, engine, rng_streams):
        topo = tiny_topology()
        fleet = populate_fleet(topo, [ServiceAllocation("cache", 4)], rng_streams)
        driver = FleetDriver(engine, topology=topo, fleet=fleet)
        driver.start()
        engine.run_until(30.0)
        assert fleet.total_power_w() > 0.0
        assert topo.total_power_w() == pytest.approx(fleet.total_power_w())

    def test_records_trips(self, engine, rng_streams):
        topo = tiny_topology()
        fleet = populate_fleet(topo, [ServiceAllocation("web", 2)], rng_streams)
        # A rogue fixed load pushes rpp0 into magnetic trip range.
        topo.device("rpp0").fixed_overhead_w = 105_000.0
        driver = FleetDriver(engine, topology=topo, fleet=fleet)
        driver.start()
        engine.run_until(5.0)
        assert driver.tripped
        assert driver.trips[0].device_name == "rpp0"
        assert driver.trips[0].level == "rpp"

    def test_no_trips_under_normal_load(self, engine, rng_streams):
        topo = tiny_topology()
        fleet = populate_fleet(topo, [ServiceAllocation("cache", 4)], rng_streams)
        driver = FleetDriver(engine, topology=topo, fleet=fleet)
        driver.start()
        engine.run_until(60.0)
        assert not driver.tripped

    def test_rejects_bad_interval(self, engine, rng_streams):
        topo = tiny_topology()
        fleet = Fleet()
        with pytest.raises(ConfigurationError):
            FleetDriver(engine, topo, fleet, step_interval_s=0.0)

    def test_capped_servers_listing(self, engine, rng_streams):
        topo = tiny_topology()
        fleet = populate_fleet(topo, [ServiceAllocation("web", 3)], rng_streams)
        assert fleet.capped_servers() == []
        server = fleet.server("web-0000")
        server.rapl.set_limit(200.0)
        assert fleet.capped_servers() == [server]


# ---------------------------------------------------------------------------
# The build mechanism, pinned by count rather than by time
# ---------------------------------------------------------------------------

MIXED = [
    ServiceAllocation("web", 40),
    ServiceAllocation("cache", 20),
    ServiceAllocation("hadoop", 12, platform=WESTMERE_2011, turbo_enabled=True),
]


def rows_topology(msb_count: int = 1):
    """The harness's row shape: 16 RPP rows of 15 racks per MSB."""
    return build_datacenter(
        DataCenterSpec(
            msb_count=msb_count, sbs_per_msb=2, rpps_per_sb=8, racks_per_rpp=15
        )
    )


def build_batched_world(allocations, topology=None, seed=9):
    """populate -> Dynamo -> vectorized driver -> batched control."""
    engine = SimulationEngine()
    topology = topology or small_topology()
    rng = RngStreams(seed)
    fleet = populate_fleet(topology, allocations, rng)
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dynamo"))
    driver = FleetDriver(engine, topology, fleet, physics_backend="vectorized")
    dynamo.enable_vectorized_control(driver)
    return engine, fleet, dynamo, driver


class TestPlatformTemplates:
    def test_one_calibration_per_platform(self, rng_streams, monkeypatch):
        calls = []
        real_fit = estimator_module.fit_linear_power_model

        def counting_fit(samples):
            calls.append(len(samples))
            return real_fit(samples)

        monkeypatch.setattr(
            estimator_module, "fit_linear_power_model", counting_fit
        )
        fleet = populate_fleet(
            rows_topology(),
            [
                ServiceAllocation("web", 6720),
                ServiceAllocation("cache", 2352),
                ServiceAllocation("hadoop", 1008, platform=WESTMERE_2011),
            ],
            rng_streams,
        )
        # three allocations over two hardware generations
        assert len(fleet.servers) == 10_080
        assert len(calls) == 2
        by_platform = {}
        for server in fleet.servers.values():
            shared = by_platform.setdefault(server.platform, server)
            assert server.estimator is shared.estimator
            assert server.power_model is shared.power_model
        assert set(by_platform) == {HASWELL_2015, WESTMERE_2011}

    def test_bare_platform_still_gets_a_calibrated_server(self):
        from repro.server.server import ConstantWorkload, Server

        a = Server("a", WESTMERE_2011, ConstantWorkload(0.5))
        b = Server("b", WESTMERE_2011, ConstantWorkload(0.5))
        assert a.estimator is not b.estimator
        assert a.estimator.snapshot_state() == b.estimator.snapshot_state()
        assert a.estimator.estimate_w(0.5) == pytest.approx(
            a.power_model.power_w(0.5), rel=0.05
        )

    def test_recalibrating_one_server_leaves_its_siblings(self, rng_streams):
        """The sharing rule: tuning replaces, never mutates in place."""
        engine = SimulationEngine()
        topo = tiny_topology()
        fleet = populate_fleet(
            topo,
            [ServiceAllocation("web", 6, platform=WESTMERE_2011)],
            rng_streams,
            attach_level=DeviceLevel.RPP,
        )
        # Sensor-less servers: the aggregate is all estimates.  Bias
        # the shared calibration so it reads 25% over the breaker.
        shared = fleet.server("web-0000").estimator.recalibrate(1.25)
        for server in fleet.servers.values():
            server.estimator = shared
        dynamo = Dynamo(engine, topo, fleet, rng_streams=rng_streams.fork("d"))
        driver = FleetDriver(engine, topo, fleet)
        leaf = dynamo.leaf_controller("rpp0")
        victim = fleet.server(leaf.server_ids[0])
        source = BreakerReadingSource(engine, leaf.device, interval_s=60.0)
        validator = BreakerValidator(
            engine,
            leaf,
            source,
            servers={victim.server_id: victim},
            interval_s=120.0,
        )
        driver.start()
        dynamo.start()
        source.start(phase=1.0)
        validator.start(phase=130.0)
        engine.run_until(600.0)
        assert validator.recalibrations >= 1
        assert victim.estimator is not shared
        assert victim.estimator.fit.slope_w < shared.fit.slope_w
        for server in fleet.servers.values():
            if server is not victim:
                assert server.estimator is shared

    def test_recalibrated_fit_survives_a_snapshot_round_trip(self):
        world = build_quickstart_world(seed=4)
        victim, sibling, *_ = world.fleet.by_service("web")
        built = sibling.estimator
        assert victim.estimator is built
        victim.estimator = victim.estimator.recalibrate(0.9)
        world.run_until(30.0)
        registry = SnapshotRegistry()
        snapshot = registry.capture(world)
        envelope = json.loads(json.dumps(snapshot.to_envelope()))
        restored = registry.restore(type(snapshot).from_envelope(envelope))
        r_victim = restored.fleet.server(victim.server_id)
        r_sibling = restored.fleet.server(sibling.server_id)
        assert r_victim.estimator.fit == victim.estimator.fit
        assert r_victim.estimator is not r_sibling.estimator
        # untouched servers stay on the rebuilt world's shared template
        assert r_sibling.estimator.fit == built.fit
        others = [
            s for s in restored.fleet.servers.values() if s is not r_victim
        ]
        assert all(s.estimator is r_sibling.estimator for s in others)


class _Gen2Counter:
    """Counts full collections while installed."""

    def __init__(self):
        self.count = 0

    def __call__(self, phase, info):
        if phase == "stop" and info["generation"] == 2:
            self.count += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self)


@pytest.fixture
def collector_state():
    """Run a test under a chosen collector state; put the real one back."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()

    def apply(enable: bool, thresholds: tuple[int, int, int]) -> None:
        gc.set_threshold(*thresholds)
        (gc.enable if enable else gc.disable)()

    yield apply
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


class TestCollectorHeldOff:
    """Bulk builders hold the cyclic collector off and hand it back."""

    @pytest.mark.parametrize(
        "enable, thresholds",
        [(True, (700, 10, 10)), (False, (700, 10, 10)), (True, (911, 7, 13))],
        ids=["enabled", "disabled", "custom-thresholds"],
    )
    def test_state_as_found_after_every_builder(
        self, collector_state, enable, thresholds
    ):
        collector_state(enable, thresholds)

        def as_found():
            return (
                gc.isenabled() is enable
                and gc.get_threshold() == thresholds
                and gc.get_freeze_count() == 0
            )

        engine = SimulationEngine()
        topology = small_topology()
        rng = RngStreams(3)
        fleet = populate_fleet(topology, MIXED, rng)
        assert as_found()
        dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
        assert as_found()
        driver = FleetDriver(
            engine, topology, fleet, physics_backend="vectorized"
        )
        assert as_found()
        dynamo.enable_vectorized_control(driver)
        assert as_found()

    def test_state_as_found_after_a_builder_raises_mid_loop(
        self, collector_state, rng_streams, monkeypatch
    ):
        thresholds = (911, 7, 13)
        collector_state(True, thresholds)

        def as_found():
            return gc.isenabled() and gc.get_threshold() == thresholds

        # populate: the second allocation repeats the first one's ids
        with pytest.raises(ConfigurationError, match="duplicate"):
            populate_fleet(
                small_topology(),
                [ServiceAllocation("web", 5), ServiceAllocation("web", 5)],
                rng_streams,
            )
        assert as_found()

        from repro.core import dynamo as dynamo_module
        from repro.server.vectorized import VectorizedFleetStepper

        def failing_after(real, n):
            calls = []

            def wrapper(*args, **kwargs):
                calls.append(1)
                if len(calls) > n:
                    raise RuntimeError("mid-loop")
                return real(*args, **kwargs)

            return wrapper

        engine = SimulationEngine()
        topology = small_topology()
        fleet = populate_fleet(topology, MIXED, RngStreams(3))
        with monkeypatch.context() as patch:
            patch.setattr(
                dynamo_module,
                "DynamoAgent",
                failing_after(dynamo_module.DynamoAgent, 5),
            )
            with pytest.raises(RuntimeError, match="mid-loop"):
                Dynamo(engine, topology, fleet)
        assert as_found()
        with monkeypatch.context() as patch:
            patch.setattr(
                VectorizedFleetStepper,
                "_classify_workload",
                failing_after(VectorizedFleetStepper._classify_workload, 5),
            )
            with pytest.raises(RuntimeError, match="mid-loop"):
                FleetDriver(
                    engine, topology, fleet, physics_backend="vectorized"
                )
        assert as_found()
        dynamo = Dynamo(engine, topology, fleet)
        driver = FleetDriver(
            engine, topology, fleet, physics_backend="vectorized"
        )
        # an agent whose server the stepper never bound
        del dynamo.agents["web-0003"]
        stray = populate_fleet(
            small_topology(), [ServiceAllocation("cache", 1)], RngStreams(8)
        )
        dynamo.agents["stray"] = dynamo_module.DynamoAgent(
            stray.server("cache-0000"), dynamo.transport
        )
        with pytest.raises(ConfigurationError, match="not bound"):
            dynamo.enable_vectorized_control(driver)
        assert as_found()

    def test_a_callers_frozen_heap_stays_frozen(self, rng_streams):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            fleet = populate_fleet(small_topology(), MIXED, rng_streams)
            # neither thawed nor joined by the new world (a frozen
            # object can still die by reference count)
            assert 0 < gc.get_freeze_count() <= frozen
            assert any(o is fleet for o in gc.get_objects())
        finally:
            gc.unfreeze()

    def test_no_full_collection_inside_a_10080_server_build(self):
        """A heap that is only filling holds no garbage to find (the
        per-row build ran four full collections over it here, fifteen at
        100,800 servers)."""
        assert gc.isenabled()
        gc.collect()
        with _Gen2Counter() as full_collections:
            _, fleet, dynamo, driver = build_batched_world(
                [ServiceAllocation("web", 6720), ServiceAllocation("cache", 3360)],
                topology=rows_topology(),
            )
        assert len(fleet.servers) == 10_080
        assert dynamo.agent_batch is not None and driver.stepper is not None
        assert full_collections.count == 0

    def test_thirty_worlds_built_and_dropped_leave_nothing_behind(self):
        """Nothing stays frozen, and nothing cyclic escapes the collector."""

        def build_and_drop():
            engine, _, dynamo, driver = build_batched_world(MIXED)
            driver.start()
            dynamo.start()
            engine.run_until(6.0)

        build_and_drop()  # import-time and first-use caches fill here
        gc.collect()
        baseline = len(gc.get_objects())
        for _ in range(30):
            build_and_drop()
        gc.collect()
        assert gc.get_freeze_count() == 0
        assert len(gc.get_objects()) <= baseline + 50
