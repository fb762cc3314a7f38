"""The compiled device table against the recursive definition.

``PowerDevice.power_w()`` and ``CircuitBreaker.observe()`` are the
readable per-object definitions; ``PowerTopology.observe_breakers``
evaluates a whole forest through :class:`repro.power.table.DeviceTable`.
These tests hold the two together bit for bit: generated forests on
both physics backends, a scripted breaker life (overdraw to trip,
instant trip, cooling, derate and restore, reset, snapshot resume), and
the interpreter-independence of every sum the contract covers.
"""

from __future__ import annotations

import builtins

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet import Fleet
from repro.power.device import DeviceLevel, PowerDevice
from repro.power.loss import PowerLossModel
from repro.power.topology import PowerTopology
from repro.server.platform import HASWELL_2015
from repro.server.server import ConstantWorkload, Server
from repro.server.vectorized import VectorizedFleetStepper
from repro.simulation.soa import seq_sum
from repro.state.worlds import build_quickstart_world
from tests.conftest import scalar_lane

LEVELS = (DeviceLevel.MSB, DeviceLevel.SB, DeviceLevel.RPP, DeviceLevel.RACK)


# ---------------------------------------------------------------------------
# Generated forests: packed draws == recursive power_w(), both backends
# ---------------------------------------------------------------------------


@st.composite
def forests(draw):
    """Ragged forests: any child/load counts, skipped levels, extras."""

    def node(depth: int) -> dict:
        spec = {
            "depth": depth,
            "loads": draw(
                st.lists(
                    st.one_of(
                        st.tuples(
                            st.just("server"),
                            st.floats(0.05, 1.0),
                            st.booleans(),
                        ),
                        st.tuples(st.just("switch"), st.integers(0, 48)),
                        st.tuples(st.just("stub"), st.floats(0.0, 900.0)),
                    ),
                    max_size=4,
                )
            ),
            "fixed": draw(st.sampled_from([0.0, 0.0, 37.5, 1234.567])),
            "loss": draw(
                st.sampled_from([None, None, (0.96, 0.0), (0.9, 15.25)])
            ),
            "tripped": draw(st.sampled_from([False, False, False, True])),
            "children": [],
        }
        if depth < 3:
            for _ in range(draw(st.integers(0, 3))):
                spec["children"].append(node(draw(st.integers(depth + 1, 3))))
        return spec

    return [node(0) for _ in range(draw(st.integers(1, 2)))]


def build_forest(specs: list[dict], backend: str):
    """Materialize ``specs``; returns (topology, tripped devices)."""
    servers: dict[str, Server] = {}
    tripped: list[PowerDevice] = []
    counter = iter(range(10**6))

    def build(spec: dict) -> PowerDevice:
        device = PowerDevice(
            f"d{next(counter)}", LEVELS[spec["depth"]], 5_000.0
        )
        device.fixed_overhead_w = spec["fixed"]
        if spec["loss"] is not None:
            device.loss_model = PowerLossModel(*spec["loss"])
        for load in spec["loads"]:
            load_id = f"l{next(counter)}"
            if load[0] == "server":
                server = Server(
                    load_id,
                    HASWELL_2015,
                    ConstantWorkload(load[1]),
                    turbo_enabled=load[2],
                )
                servers[load_id] = server
                device.attach_load(load_id, server.power_w)
            elif load[0] == "switch":
                # A ToR switch: chassis + active ports + half-load traffic.
                device.attach_load(
                    load_id, lambda ports=load[1]: 120.0 + 1.5 * ports + 15.0
                )
            else:
                device.attach_load(load_id, lambda w=load[1]: w)
        for child in spec["children"]:
            device.add_child(build(child))
        if spec["tripped"]:
            tripped.append(device)
        return device

    topology = PowerTopology("forest", [build(spec) for spec in specs])
    fleet = Fleet(servers)
    if backend == "vectorized":
        stepper = VectorizedFleetStepper(fleet)
        stepper.bind_device_loads(topology)
        for t in (1.0, 2.0):
            stepper.step(t, 1.0)
    else:
        for t in (1.0, 2.0):
            for server in servers.values():
                server.step(t, 1.0)
    return topology, tripped


def recursive_draws(topology: PowerTopology) -> list[float]:
    return [d.power_w() for d in topology.iter_devices()]


class TestPackedDrawsMatchRecursion:
    @settings(max_examples=60, deadline=None)
    @given(specs=forests())
    def test_every_device_on_both_backends(self, specs):
        draws = {}
        for backend in ("scalar", "vectorized"):
            topology, tripped = build_forest(specs, backend)
            table = topology.device_table()
            assert table.draws().tolist() == recursive_draws(topology)
            # Trips applied through the bound objects (after the table
            # was compiled) zero their subtrees in the next pass.
            for device in tripped:
                device.breaker._tripped = True
            assert topology.device_table() is table
            assert table.draws().tolist() == recursive_draws(topology)
            draws[backend] = table.draws().tolist()
        assert draws["vectorized"] == draws["scalar"]

    def test_gather_lane_is_used_and_mixed_devices_patch_callables(self):
        specs = [
            {
                "depth": 0,
                "loads": [],
                "fixed": 10.0,
                "loss": None,
                "tripped": False,
                "children": [
                    {
                        "depth": 3,
                        "loads": [
                            ("server", 0.6, False),
                            ("switch", 24),
                            ("server", 0.3, True),
                        ],
                        "fixed": 0.0,
                        "loss": (0.96, 0.0),
                        "tripped": False,
                        "children": [],
                    },
                    {
                        "depth": 3,
                        "loads": [("stub", 77.0)],
                        "fixed": 0.0,
                        "loss": None,
                        "tripped": False,
                        "children": [],
                    },
                ],
            }
        ]
        topology, _ = build_forest(specs, "vectorized")
        table = topology.device_table()
        assert table._load_rows.size == 3  # the mixed rack, gathered
        assert len(table._patch_sources) == 1  # its switch, called
        assert [i for i, _ in table._called] == [2]  # the stub-only rack
        assert table.draws().tolist() == recursive_draws(topology)
        scalar, _ = build_forest(specs, "scalar")
        assert not scalar.device_table()._load_rows.size
        assert scalar.device_table().draws().tolist() == recursive_draws(scalar)

    def test_structure_changes_recompile(self):
        topology, _ = build_forest(
            [
                {
                    "depth": 0,
                    "loads": [("stub", 5.0)],
                    "fixed": 0.0,
                    "loss": None,
                    "tripped": False,
                    "children": [],
                }
            ],
            "scalar",
        )
        root = topology.roots[0]
        table = topology.device_table()
        root.loss_model = PowerLossModel(0.5, 1.0)
        assert topology._table is None
        assert topology.device_table().draws().tolist() == [11.0]
        child = PowerDevice("late", DeviceLevel.RACK, 1_000.0)
        root.add_child(child)
        assert topology._table is None
        topology.device_table()
        child.attach_load("x", lambda: 20.0)  # hooked by the recompile
        assert topology._table is None
        assert topology.device_table().draws().tolist() == [51.0, 20.0]
        assert topology.device_table() is not table


# ---------------------------------------------------------------------------
# Breaker thermals: the array pass against a per-object replay
# ---------------------------------------------------------------------------


class _Rig:
    """msb0 -> sb0 -> (rpp0, rpp1, rpp2) with settable stub loads."""

    def __init__(self) -> None:
        self.watts = {"rpp0": 0.0, "rpp1": 0.0, "rpp2": 0.0}
        msb = PowerDevice("msb0", DeviceLevel.MSB, 100_000.0)
        sb = PowerDevice("sb0", DeviceLevel.SB, 60_000.0)
        msb.add_child(sb)
        for name in self.watts:
            rpp = PowerDevice(name, DeviceLevel.RPP, 10_000.0)
            rpp.attach_load("load", lambda name=name: self.watts[name])
            sb.add_child(rpp)
        self.topology = PowerTopology("rig", [msb])

    def device(self, name: str) -> PowerDevice:
        return self.topology.device(name)

    def state(self) -> list[tuple]:
        return [
            (d.name, b.rated_power_w, b.stress, b.tripped, b.trip_time)
            for d in self.topology.iter_devices()
            for b in (d.breaker,)
        ]


def replay_observe(rig: _Rig, dt_s: float, now_s: float) -> list[str]:
    """The per-object reference: recursive draws, one observe() each."""
    topology = rig.topology
    draws = {d.name: d.power_w() for d in topology.iter_devices()}
    newly = []
    for device in topology.iter_devices():
        if device.breaker.tripped:
            continue
        if device.breaker.observe(draws[device.name], dt_s, now_s):
            newly.append(device.name)
    return newly


def step_both(packed: _Rig, oracle: _Rig, dt_s: float, now_s: float):
    got = [d.name for d in packed.topology.observe_breakers(dt_s, now_s)]
    want = replay_observe(oracle, dt_s, now_s)
    assert got == want
    assert packed.state() == oracle.state()
    return got


class TestBreakerPassMatchesPerObjectReplay:
    def test_scripted_life(self):
        packed, oracle = _Rig(), _Rig()
        assert oracle.topology._table is None
        now = 0.0

        def run(seconds: int, dt_s: float = 1.0) -> list[str]:
            nonlocal now
            tripped: list[str] = []
            for _ in range(seconds):
                now += dt_s
                tripped += step_both(packed, oracle, dt_s, now)
            return tripped

        def set_watts(**watts: float) -> None:
            packed.watts.update(watts)
            oracle.watts.update(watts)

        # Sustained 30% overdraw on rpp0 builds stress, below trip.
        set_watts(rpp0=13_000.0, rpp1=9_000.0, rpp2=4_000.0)
        assert run(40) == []
        assert 0.0 < packed.device("rpp0").breaker.stress < 1.0
        # Load drops: stress cools (one exp, broadcast), never resets.
        set_watts(rpp0=8_000.0)
        hot = packed.device("rpp0").breaker.stress
        assert run(25, dt_s=3.0) == []
        assert 0.0 < packed.device("rpp0").breaker.stress < hot
        # A chaos derate mid-run: rpp1's 9 kW is now 12.5% over.
        for rig in (packed, oracle):
            device = rig.device("rpp1")
            device.rated_power_w = 8_000.0
            device.breaker.rated_power_w = 8_000.0
        assert run(30) == []
        assert packed.device("rpp1").breaker.stress > 0.0
        for rig in (packed, oracle):
            device = rig.device("rpp1")
            device.rated_power_w = 10_000.0
            device.breaker.rated_power_w = 10_000.0
        assert run(5) == []
        # Overdraw again, through to the trip.
        set_watts(rpp0=14_500.0)
        assert run(200) == ["rpp0"]
        assert packed.device("rpp0").breaker.trip_time is not None
        assert packed.device("rpp0").power_w() == 0.0
        # Instant (magnetic) trip: one step at >= 3x.
        set_watts(rpp2=30_000.0)
        assert run(1) == ["rpp2"]
        # Manual re-close: the array pass integrates it again.
        for rig in (packed, oracle):
            rig.device("rpp0").breaker.reset()
        set_watts(rpp0=10_500.0)
        assert run(20) == []
        assert packed.device("rpp0").breaker.stress > 0.0

    def test_newly_tripped_in_pre_order_and_parents_see_same_instant(self):
        packed, oracle = _Rig(), _Rig()
        for rig in (packed, oracle):
            rig.watts.update(rpp0=90_000.0, rpp1=90_000.0, rpp2=1.0)
        # 180 kW: instant for the rpps (9x), the sb (3x) and the msb (1.8x).
        assert step_both(packed, oracle, 1.0, 1.0) == [
            "msb0", "sb0", "rpp0", "rpp1"
        ]
        # Everything under a tripped root now draws nothing.
        assert step_both(packed, oracle, 1.0, 2.0) == []

    def test_negative_dt_raises(self):
        rig = _Rig()
        with pytest.raises(ConfigurationError):
            rig.topology.observe_breakers(-1.0, 0.0)

    @pytest.mark.parametrize("restore_into_compiled", [False, True])
    def test_snapshot_mid_overdraw_resumes_bit_exactly(
        self, restore_into_compiled
    ):
        original = _Rig()
        original.watts.update(rpp0=13_500.0, rpp1=12_500.0)
        for t in range(1, 31):
            assert original.topology.observe_breakers(1.0, float(t)) == []
        saved = {
            d.name: d.snapshot_state() for d in original.topology.iter_devices()
        }
        assert 0.0 < saved["rpp0"]["breaker"]["stress"] < 1.0

        resumed = _Rig()
        resumed.watts.update(original.watts)
        if restore_into_compiled:
            resumed.topology.device_table()
        for device in resumed.topology.iter_devices():
            device.restore_state(saved[device.name])
        assert resumed.state() == original.state()
        trips = {"original": [], "resumed": []}
        for t in range(31, 400):
            for label, rig in (("original", original), ("resumed", resumed)):
                trips[label] += [
                    (float(t), d.name)
                    for d in rig.topology.observe_breakers(1.0, float(t))
                ]
            assert resumed.state() == original.state()
        assert trips["resumed"] == trips["original"]
        assert [name for _, name in trips["original"]] == ["rpp0", "rpp1"]


# ---------------------------------------------------------------------------
# seq_sum: the bit-identity contract does not depend on the interpreter
# ---------------------------------------------------------------------------


def _running_total(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def _py312_sum(iterable, start=0):
    """``sum()`` as Python >= 3.12 computes it: Neumaier-compensated
    for floats (exactly what ``Python/bltinmodule.c`` does)."""
    values = list(iterable)
    if start != 0 or not values or not all(type(v) is float for v in values):
        return _BUILTIN_SUM(values, start)
    total, comp = 0.0, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


_BUILTIN_SUM = builtins.sum


def _racks(count: int = 2_000, size: int = 42) -> np.ndarray:
    return np.random.default_rng(20160618).uniform(150.0, 350.0, (count, size))


class TestSeqSum:
    def test_is_the_running_total_and_the_cumsum(self):
        for rack in _racks():
            values = rack.tolist()
            assert seq_sum(values) == _running_total(values)
            assert seq_sum(values) == float(np.cumsum(rack)[-1])
        assert seq_sum([]) == 0.0 and isinstance(seq_sum([]), float)
        assert seq_sum(iter([1.5])) == 1.5

    def test_compensated_sum_really_differs_on_this_data(self):
        """Guards the guard: the 3.12 ``sum()`` must disagree with a
        running total on the 42-float racks, or the next test is idle."""
        differing = _BUILTIN_SUM(
            _py312_sum(r.tolist()) != _running_total(r.tolist())
            for r in _racks()
        )
        assert differing > 500

    def test_contract_paths_survive_a_compensating_builtin_sum(
        self, monkeypatch
    ):
        """Fails if anyone reintroduces builtin ``sum()`` where the
        docs promise left-to-right association: with ``sum`` swapped
        for its Python 3.12 behaviour, every scalar path must still
        equal its array twin."""
        monkeypatch.setattr(builtins, "sum", _py312_sum)
        racks = _racks(200)
        msb = PowerDevice("msb0", DeviceLevel.MSB, 1e9)
        rpp = PowerDevice("rpp0", DeviceLevel.RPP, 1e9)
        msb.add_child(rpp)
        for r, rack in enumerate(racks):
            device = PowerDevice(f"rack{r}", DeviceLevel.RACK, 1e9)
            for j, watts in enumerate(rack.tolist()):
                device.attach_load(f"s{r}.{j}", lambda w=watts: w)
            rpp.add_child(device)
        topology = PowerTopology("racks", [msb])
        rack_sums = [_running_total(r.tolist()) for r in racks]
        devices = list(topology.iter_devices())
        assert [d.power_w() for d in devices[2:]] == rack_sums
        assert rpp.power_w() == _running_total(rack_sums)
        assert topology.total_power_w() == _running_total(rack_sums)
        assert topology.device_table().draws().tolist() == [
            d.power_w() for d in devices
        ]

        # Whole-world: scalar lanes (device draws, fleet power, leaf
        # reading / neighbour / component sums, upper child sums)
        # against the array lanes, every rendered control tick.
        runs = {}
        with scalar_lane():
            scalar = build_quickstart_world(seed=4)
        worlds = {"scalar": scalar, "vectorized": build_quickstart_world(seed=4)}
        for backend, world in worlds.items():
            world.run_until(90.0)
            fleet = world.fleet
            assert fleet.total_power_w() == _running_total(
                s.power_w() for s in fleet.servers.values()
            )
            runs[backend] = [
                t.render() for t in world.dynamo.traces.latest()
            ] + [repr(d.power_w()) for d in world.topology.iter_devices()]
        assert len(runs["scalar"]) > 100
        assert runs["vectorized"] == runs["scalar"]
