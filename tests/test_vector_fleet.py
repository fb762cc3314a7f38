"""The array lane: bit-exact parity with the per-object reference.

The structure-of-arrays stepper and the batched control plane are an
optimisation, not a remodel: for any seed, every world a builder makes
must fingerprint byte-identically to the same world on the per-object
reference lane (:func:`tests.conftest.scalar_lane`) — plain fleets,
fleets under capping, fleets with chaos faults in flight — and its
packed arrays must survive a snapshot save → restore round-trip
bit-exactly.  The RNG draw-order contract
(block-prefetched normals == per-tick sequential draws) is checked
both property-style on raw generators and end-to-end on the per-server
stream states.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.soa import seq_sum
from repro.state.registry import SnapshotRegistry
from repro.state.snapshot import fingerprint
from repro.state.worlds import (
    build_quickstart_world,
    build_world,
    named_recipe,
)
from tests.conftest import scalar_lane

def world_fp(world) -> str:
    return fingerprint(SnapshotRegistry().capture(world).state)


def lane_fp(world) -> str:
    """Fingerprint of a world's capture with fast-lane calls recorded.

    The array lane defers each fast-lane success (``control_batch``)
    where the reference records a breaker-window entry and a health
    record per call.  So the capture is restored into a copy, every
    pending success is materialized there, and the copy is captured:
    breaker states, windows and quarantines and every health counter
    then compare bit for bit.  Only what the batch never backfills,
    health latency samples and last-success times, is dropped.
    """
    registry = SnapshotRegistry()
    snapshot = registry.capture(world)
    if world.dynamo.agent_batch is not None:
        copy = registry.restore(snapshot)
        batch = copy.dynamo.agent_batch
        for endpoint in batch.row_for_endpoint:
            batch.materialize_pending(
                endpoint, copy.dynamo.resilient_transport
            )
        assert not batch.fast_successes.any()
        snapshot = registry.capture(copy)
    state = dict(snapshot.state, control_batch=None)
    for record in state["health"]["endpoints"].values():
        del record["latencies"], record["last_success_s"]
    return fingerprint(state)


def both_lanes(build, end_s: float) -> dict:
    """Build and run one world on each lane."""
    with scalar_lane():
        scalar = build()
    assert scalar.driver.stepper is None and scalar.dynamo.agent_batch is None
    vector = build()
    assert vector.dynamo.agent_batch is not None
    for world in (scalar, vector):
        world.run_until(end_s)
    return {"scalar": scalar, "vectorized": vector}


def assert_lanes_agree(worlds: dict) -> None:
    scalar, vector = worlds["scalar"], worlds["vectorized"]
    assert lane_fp(vector) == lane_fp(scalar)


# ---------------------------------------------------------------------------
# Cross-lane golden parity
# ---------------------------------------------------------------------------


class TestCrossBackendParity:
    def test_plain_fleet_bit_identical(self):
        assert_lanes_agree(
            both_lanes(lambda: build_quickstart_world(seed=5), 720.0)
        )

    def test_capping_event_bit_identical(self):
        """Full sb-outage campaign: capping engages on both lanes."""
        worlds = both_lanes(
            lambda: build_world(named_recipe("sb-outage", seed=7)), 900.0
        )
        for world in worlds.values():
            assert world.dynamo.total_cap_events() > 0
        assert_lanes_agree(worlds)

    def test_active_chaos_fault_bit_identical(self):
        """Fingerprints taken mid-fault, with caps still in force."""
        worlds = both_lanes(
            lambda: build_world(named_recipe("sb-outage", seed=7)), 600.0
        )
        for world in worlds.values():
            assert world.fleet.capped_servers()
        assert_lanes_agree(worlds)


# ---------------------------------------------------------------------------
# Snapshot round-trips of the packed state
# ---------------------------------------------------------------------------


class TestVectorizedSnapshots:
    def test_resume_matches_uninterrupted(self):
        build = lambda: build_quickstart_world(seed=3)  # noqa: E731
        world = build()
        world.run_until(300.0)
        registry = SnapshotRegistry()
        snapshot = registry.capture(world)
        resumed = registry.restore(snapshot)
        assert resumed.driver.physics_backend == "vectorized"
        resumed.run_until(720.0)
        uninterrupted = build()
        uninterrupted.run_until(720.0)
        assert world_fp(resumed) == world_fp(uninterrupted)

    def test_roundtrip_preserves_packed_arrays(self):
        """restore() repopulates the SoA arrays the capture drained."""
        world = build_quickstart_world(seed=3)
        world.run_until(120.0)
        registry = SnapshotRegistry()
        restored = registry.restore(registry.capture(world))
        stepper = restored.fleet.stepper
        assert stepper is not None
        arrays = stepper._arrays
        for sid, server in restored.fleet.servers.items():
            i = stepper._server_index[id(server)]
            assert arrays.power[i] == world.fleet.servers[sid].power_w()
            assert arrays.energy[i] == world.fleet.servers[sid].energy_j


# ---------------------------------------------------------------------------
# RNG draw-order contract
# ---------------------------------------------------------------------------


class TestDrawOrderContract:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_batched_normals_match_sequential(self, seed, k):
        """gen.normal(size=k) is draw-for-draw one normal per element.

        This is the identity the stepper's block prefetch (and its
        flush-on-foreign-draw guard) relies on to keep every server's
        stream bit-identical to the scalar path.
        """
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        batched = b.normal(size=k)
        for j in range(k):
            assert a.normal() == batched[j]
        assert a.bit_generator.state == b.bit_generator.state

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_batched_sensor_noise_matches_per_server(self, seed, k):
        """One batched draw across k sensors == k per-sensor draws."""
        sigma = 0.015
        per_server = [
            np.random.default_rng(seed + i).normal() * sigma for i in range(k)
        ]
        batched = [
            float(np.random.default_rng(seed + i).normal(size=1)[0]) * sigma
            for i in range(k)
        ]
        assert per_server == batched

    @pytest.mark.parametrize("ticks", [1, 7, 90])
    def test_stream_states_match_scalar_after_sync(self, ticks):
        """After sync(), every per-server generator sits at the scalar
        position — no speculative prefetch is left in flight."""
        worlds = both_lanes(
            lambda: build_quickstart_world(seed=11), float(ticks)
        )
        scalar, vector = worlds["scalar"], worlds["vectorized"]
        vector.driver.sync_physics()
        vector.dynamo.agent_batch.sync()
        for sid in scalar.fleet.servers:
            for prefix in ("server", "sensor"):
                name = f"{prefix}.{sid}"
                assert (
                    vector.rng.stream(name).bit_generator.state
                    == scalar.rng.stream(name).bit_generator.state
                ), f"stream {name} diverged after {ticks} ticks"


# ---------------------------------------------------------------------------
# Fleet indexes (service map, capped set, power reduction)
# ---------------------------------------------------------------------------


class TestFleetIndexes:
    def test_by_service_index(self):
        world = build_quickstart_world(seed=0)
        fleet = world.fleet
        assert len(fleet.by_service("web")) == 24
        assert len(fleet.by_service("cache")) == 12
        assert fleet.by_service("hadoop") == []

    def test_by_service_rebuilds_on_membership_change(self):
        world = build_quickstart_world(seed=0)
        fleet = world.fleet
        assert len(fleet.by_service("web")) == 24
        donor = fleet.servers["web-0000"]
        fleet.servers["web-9999"] = donor
        assert len(fleet.by_service("web")) == 25

    def test_capped_index_tracks_limit_changes(self):
        world = build_quickstart_world(seed=0)
        fleet = world.fleet
        assert fleet.capped_servers() == []
        b = fleet.servers["web-0001"]
        a = fleet.servers["web-0000"]
        b.rapl.set_limit(150.0)
        a.rapl.set_limit(140.0)
        assert fleet.capped_servers() == [b, a]  # cap-time order
        b.rapl.clear_limit()
        assert fleet.capped_servers() == [a]
        a.rapl.clear_limit()
        assert fleet.capped_servers() == []

    def test_total_power_fast_path_matches_scalar_sum(self):
        world = build_quickstart_world(seed=2)
        world.run_until(60.0)
        fleet = world.fleet
        expected = sum(s.power_w() for s in fleet.servers.values())
        assert fleet.total_power_w() == expected

    def test_device_load_cache_matches_and_invalidates(self):
        """The compiled device table gathers loads from the packed power
        array, equals the recursive ``power_w()``, and is recompiled —
        state carried over — when a load is detached or attached."""
        world = build_quickstart_world(seed=2)
        world.run_until(60.0)
        from repro.power.device import DeviceLevel

        topology = world.topology

        def assert_table_matches_recursion():
            table = topology.device_table()
            assert table.draws().tolist() == [
                d.power_w() for d in topology.iter_devices()
            ]
            return table

        table = assert_table_matches_recursion()
        assert topology.device_table() is table  # compiled once
        assert table._load_rows.size and not table._called  # all gathered

        rack = topology.devices_at_level(DeviceLevel.RACK)[0]
        rack.breaker._stress = 0.25
        before = rack.power_w()
        loads = dict(rack._loads)
        victim = next(iter(loads))
        rack.detach_load(victim)
        assert topology._table is None
        recompiled = assert_table_matches_recursion()
        assert recompiled is not table
        assert rack.power_w() == pytest.approx(before - loads[victim]())
        assert rack.breaker.stress == 0.25
        assert rack.breaker._soa.arrays is recompiled

        rack.attach_load(victim, loads[victim])
        assert topology._table is None
        assert_table_matches_recursion()
        assert rack.direct_load_power_w() == seq_sum(
            source() for source in rack._loads.values()
        )
        # Stepping after the recompile stays on the cross-lane
        # contract: the breaker pass reads the re-attached load again.
        world.run_until(70.0)
        assert_table_matches_recursion()


# ---------------------------------------------------------------------------
# Leaf controller endpoint cache
# ---------------------------------------------------------------------------


class TestLeafEndpointCache:
    def _controller(self):
        from repro.core.leaf_controller import LeafPowerController
        from repro.power.device import DeviceLevel, PowerDevice
        from repro.rpc.transport import RpcTransport

        device = PowerDevice("rpp0", DeviceLevel.RPP, 10_000.0)
        transport = RpcTransport(np.random.default_rng(0))
        return LeafPowerController(device, ["s0", "s1"], transport)

    def test_endpoints_cached_until_membership_changes(self):
        controller = self._controller()
        first = controller._endpoints()
        assert first == ["agent:s0", "agent:s1"]
        assert controller._endpoints() is first
        controller.server_ids.append("s2")
        second = controller._endpoints()
        assert second == ["agent:s0", "agent:s1", "agent:s2"]
        assert second is not first


# ---------------------------------------------------------------------------
# Capped-row performance factor and masked accounting
# ---------------------------------------------------------------------------


def _capped_fleets(seed: int, n: int = 120):
    """Twin fleets (scalar reference, vectorized) in every cap regime.

    Rows cycle through: uncapped, a cap just under demand (DVFS
    regime), a cap near idle (duty cycling), a cap below idle power
    (clamped to zero dynamic budget), a cap above demand (not
    binding), and zero utilization under a cap — with Turbo on and
    off, across platforms with different exponents.
    """
    from repro.fleet import Fleet
    from repro.server.platform import (
        BROADWELL_2016,
        HASWELL_2015,
        WESTMERE_2011,
    )
    from repro.server.server import ConstantWorkload, Server

    rng = np.random.default_rng(seed)
    platforms = (HASWELL_2015, WESTMERE_2011, BROADWELL_2016)
    fleets = []
    rows = [
        (
            platforms[i % 3],
            0.0 if i % 6 == 5 else float(rng.uniform(0.02, 1.0)),
            bool(rng.integers(2)),
            i % 6,
            float(rng.uniform(0.0, 1.0)),
        )
        for i in range(n)
    ]
    for _ in range(2):
        fleet = Fleet()
        for i, (platform, util, turbo, regime, frac) in enumerate(rows):
            server = Server(
                f"s{i:03d}",
                platform,
                ConstantWorkload(util),
                turbo_enabled=turbo,
            )
            demand = server.power_model.power_w(util, turbo=turbo)
            idle = platform.idle_power_w
            limit = {
                0: None,
                1: idle + (demand - idle) * (0.4 + 0.6 * frac),
                2: idle + (demand - idle) * 0.15 * frac,
                3: idle * (0.2 + 0.7 * frac),
                4: demand * (1.0 + frac),
                5: idle + 5.0,
            }[regime]
            # Written past ``set_limit``: regimes 2 and 3 sit below the
            # platform minimum, which agents clamp but a restore or a
            # chaos fault can still install.
            server.rapl._limit_w = limit
            fleet.servers[server.server_id] = server
        fleets.append(fleet)
    return fleets


def _server_state(server) -> tuple:
    return (
        server.power_w(),
        server.utilization,
        server.demanded_work,
        server.delivered_work,
        server.energy_j,
        server.rapl.enforced_power_w,
        server._last_step_s,
    )


class TestCappedRowsAndMaskedAccounting:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factor_equals_power_model_in_every_regime(self, seed):
        from repro.server.vectorized import VectorizedFleetStepper

        scalar, vector = _capped_fleets(seed)
        stepper = VectorizedFleetStepper(vector)
        offline = [sid for i, sid in enumerate(vector.servers) if i % 11 == 7]
        regimes = set()
        for t in (1.0, 2.0, 3.0, 4.5):
            dt = 1.0 if t < 4.0 else 1.5
            if t == 3.0:
                for fleet in (scalar, vector):
                    for sid in offline:
                        fleet.servers[sid].set_online(False)
            stepper.step(t, dt)
            for server in scalar.servers.values():
                server.step(t, dt)
            for i, (sid, ref) in enumerate(scalar.servers.items()):
                expected = (
                    ref.power_model.performance_factor(
                        ref.utilization, ref.rapl.limit_w, turbo=ref.turbo.enabled
                    )
                    if ref.online
                    else 1.0
                )
                assert stepper._scratch_factor[i] == expected, (sid, t)
                assert _server_state(vector.servers[sid]) == _server_state(ref)
                if expected == 0.01:
                    regimes.add("floor")
                elif expected < 0.5:
                    regimes.add("duty")
                elif expected < 1.0:
                    regimes.add("dvfs")
                else:
                    regimes.add("unbound")
        assert regimes == {"floor", "duty", "dvfs", "unbound"}


# ---------------------------------------------------------------------------
# Column seeding, and the first step off the scalar lane
# ---------------------------------------------------------------------------


def _bind_fields(obj, slot, fields) -> None:
    """The per-object seeding that column binding replaced (the oracle):
    read every field, point the object at its slot, write every field
    back through the property."""
    values = {attr: getattr(obj, attr) for attr in fields}
    obj._soa = slot
    for attr, value in values.items():
        setattr(obj, attr, value)


def _mixed_world(seed: int = 21):
    """A stepped scalar world with every kind of row the binder meets.

    Hadoop with Turbo on, sensor-less Westmere web servers, plain
    Haswell cache; one server capped, one offline, one agent crashed —
    and every stochastic process advanced, so no column is at its
    constructor default.
    """
    from repro.core.dynamo import Dynamo
    from repro.fleet import FleetDriver, ServiceAllocation, populate_fleet
    from repro.power.builder import DataCenterSpec, build_datacenter
    from repro.server.platform import WESTMERE_2011
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.rng import RngStreams

    engine = SimulationEngine()
    topology = build_datacenter(
        DataCenterSpec(msb_count=1, sbs_per_msb=1, rpps_per_sb=2, racks_per_rpp=2)
    )
    rng = RngStreams(seed)
    fleet = populate_fleet(
        topology,
        [
            ServiceAllocation("hadoop", 7, turbo_enabled=True),
            ServiceAllocation("web", 6, platform=WESTMERE_2011),
            ServiceAllocation("cache", 5),
            ServiceAllocation("f4storage", 3),
        ],
        rng,
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dynamo"))
    driver = FleetDriver(engine, topology, fleet)
    driver.start()
    dynamo.start()
    engine.run_until(400.0)  # past hadoop phase changes (mean 300 s)
    fleet.server("cache-0001").rapl.set_limit(210.0)
    fleet.server("web-0002").set_online(False)
    engine.run_until(420.0)
    dynamo.agents["hadoop-0003"].crash()
    return fleet, dynamo


def _arrays_equal(a, b) -> list[str]:
    """Names of the array attributes on which ``a`` and ``b`` differ."""
    assert vars(a).keys() == vars(b).keys()
    return [
        name
        for name, column in vars(a).items()
        if not np.array_equal(
            column, getattr(b, name), equal_nan=column.dtype.kind == "f"
        )
    ]


class TestColumnSeeding:
    def test_matches_per_object_seeding_on_a_mixed_fleet(self):
        from repro.core.agent import DynamoAgent
        from repro.core.agent_batch import AgentArrays, AgentBatch
        from repro.server.vectorized import (
            _SERVER_FIELDS,
            FleetArrays,
            VectorizedFleetStepper,
        )
        from repro.simulation.soa import ArraySlot
        from repro.workloads.base import StochasticWorkload
        from repro.workloads.hadoop import HadoopWorkload

        fleet, dynamo = _mixed_world()
        twin, twin_dynamo = _mixed_world()

        stepper = VectorizedFleetStepper(fleet)
        batch = AgentBatch(dynamo.agents, stepper)

        n = len(twin.servers)
        arrays, agent_arrays = FleetArrays(n), AgentArrays(n)
        for i, (sid, server) in enumerate(twin.servers.items()):
            slot = ArraySlot(arrays, i)
            _bind_fields(server, slot, _SERVER_FIELDS)
            _bind_fields(server.rapl, slot, ("_enforced_power_w", "_limit_w"))
            _bind_fields(server.turbo, slot, ("_enabled",))
            workload = server.workload
            assert isinstance(workload, StochasticWorkload)
            _bind_fields(workload._noise, slot, ("_value", "_last_time"))
            _bind_fields(
                workload._bursts,
                slot,
                ("_next_start", "_active_until", "_active_magnitude"),
            )
            if isinstance(workload, HadoopWorkload):
                _bind_fields(
                    workload, slot, ("_phase_is_compute", "_phase_end_s")
                )
            _bind_fields(
                twin_dynamo.agents[sid],
                ArraySlot(agent_arrays, i),
                DynamoAgent.SOA_FIELDS,
            )

        assert _arrays_equal(stepper._arrays, arrays) == []
        assert _arrays_equal(batch._arrays, agent_arrays) == []
        # the fleet really was mixed, and no column sits at its default
        a = stepper._arrays
        assert a.turbo_enabled.sum() == 7 and a.hadoop_end.max() > 400.0
        assert np.isfinite(a.rapl_limit).sum() == 1
        assert (~a.online).sum() == 1 and a.power[~a.online] == 0.0
        assert np.isfinite(a.ou_last).all() and a.ou_value.all()
        assert np.isfinite(a.burst_next).sum() >= 10  # hadoop never bursts
        assert (~batch.healthy).sum() == 1
        assert batch._arrays.agent_reads_served.min() > 0
        assert (~batch.sense_batchable).sum() == 6  # the Westmere rows
        # and the objects read back what they held before binding
        for sid, server in fleet.servers.items():
            assert _server_state(server) == _server_state(twin.servers[sid])
            assert server.rapl.limit_w == twin.servers[sid].rapl.limit_w
            assert dynamo.agents[sid].healthy == twin_dynamo.agents[sid].healthy

    def test_rebinding_carries_values_from_the_previous_arrays(self):
        """Columns are read through the property, not from stale shadows."""
        from repro.server.vectorized import VectorizedFleetStepper

        _, vector = _capped_fleets(5, n=24)
        first = VectorizedFleetStepper(vector)
        first.step(1.0, 1.0)
        first.step(2.0, 1.0)
        before = {
            sid: (_server_state(s), s.rapl.limit_w, s.turbo.enabled)
            for sid, s in vector.servers.items()
        }
        second = VectorizedFleetStepper(vector)
        assert _arrays_equal(first._arrays, second._arrays) == []
        assert second._arrays is not first._arrays
        for sid, s in vector.servers.items():
            assert s._soa.arrays is second._arrays
            assert (
                _server_state(s), s.rapl.limit_w, s.turbo.enabled
            ) == before[sid]


class TestFirstStepStaysOnTheVectorLane:
    def _sized(self, seed: int = 2):
        from repro.state.worlds import build_sized_world

        return build_sized_world(servers=2016, seed=seed)

    def test_first_arrivals_are_drawn_in_place(self):
        """Every row's first burst arrival is undrawn at t=0; that used
        to send the whole fleet through ``workload.utilization()``."""
        world = self._sized()
        stepper = world.driver.stepper
        assert np.isnan(stepper._arrays.burst_next).all()
        world.run_until(0.0)
        assert stepper.step_count == 1
        arrivals = stepper._arrays.burst_next.copy()
        assert (arrivals > 0.0).all()
        # an arrival due at once is the only reason left to fall back
        assert stepper.fallback_server_steps == 0
        world.run_until(30.0)
        crossings = int((arrivals != stepper._arrays.burst_next).sum())
        assert stepper.fallback_server_steps == crossings < 2016 // 10

    def test_first_arrivals_match_the_scalar_draws(self):
        worlds = both_lanes(lambda: self._sized(seed=6), 0.0)
        scalar, vector = worlds["scalar"], worlds["vectorized"]
        for sid, server in scalar.fleet.servers.items():
            twin = vector.fleet.servers[sid]
            assert server.workload._bursts._next_start == (
                twin.workload._bursts._next_start
            )
            assert server.power_w() == twin.power_w()
        vector.driver.sync_physics()
        vector.dynamo.agent_batch.sync()
        assert scalar.rng.snapshot_state() == vector.rng.snapshot_state()

    @pytest.mark.parametrize("steps_before_capture", [0, 1])
    def test_resume_from_the_first_instants_is_bit_exact(
        self, steps_before_capture
    ):
        build = lambda: build_quickstart_world(seed=8)  # noqa: E731
        world = build()
        if steps_before_capture:
            world.run_until(0.0)
            assert world.driver.stepper.step_count == 1
        registry = SnapshotRegistry()
        resumed = registry.restore(registry.capture(world))
        resumed.run_until(90.0)
        uninterrupted = build()
        uninterrupted.run_until(90.0)
        assert world_fp(resumed) == world_fp(uninterrupted)


class TestForeignBitGenerators:
    """Only PCG64 streams can be prefetched; anything else steps (and is
    sensed) on the scalar lane, with the same results."""

    @staticmethod
    def _fleet():
        from repro.fleet import Fleet
        from repro.server.platform import HASWELL_2015
        from repro.server.server import Server
        from repro.workloads.web import WebWorkload

        fleet = Fleet()
        for i in range(4):
            make = np.random.MT19937 if i % 2 else np.random.PCG64
            server = Server(
                f"s{i}",
                HASWELL_2015,
                WebWorkload(np.random.Generator(make(10 + i))),
                rng=np.random.Generator(make(20 + i)),
            )
            fleet.servers[server.server_id] = server
        return fleet

    def test_rows_stay_scalar_and_bit_identical(self):
        from repro.core.agent import DynamoAgent
        from repro.core.agent_batch import AgentBatch
        from repro.rpc.transport import RpcTransport
        from repro.server.vectorized import VectorizedFleetStepper

        scalar, vector = self._fleet(), self._fleet()
        stepper = VectorizedFleetStepper(vector)
        assert stepper._always_fallback.tolist() == [False, True, False, True]
        for t in range(1, 200):
            stepper.step(float(t), 1.0)
            for server in scalar.servers.values():
                server.step(float(t), 1.0)
        for sid, ref in scalar.servers.items():
            assert _server_state(vector.servers[sid]) == _server_state(ref)
        transport = RpcTransport(np.random.default_rng(0))
        agents = {
            sid: DynamoAgent(server, transport)
            for sid, server in vector.servers.items()
        }
        batch = AgentBatch(agents, stepper)
        assert batch.sense_batchable.tolist() == [True, False, True, False]
