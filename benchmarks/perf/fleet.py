"""The three fleet workloads and the pass that measures them.

A *cycle* is one 3 s leaf-controller period of simulated time: every
physics step that falls in it plus every controller due in it — the
unit the paper's 3 s budget applies to.  A pass builds the world, warms
it up, then runs cycles one ``engine.run_until`` at a time for the
requested wall seconds, timing each from outside.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

from repro.analysis.scenarios import Scenario, altoona_outage_recovery
from repro.core import leaf_controller as leaf_module
from repro.core.dynamo import Dynamo
from repro.core.three_band import BandAction
from repro.fleet import FleetDriver, ServiceAllocation, populate_fleet
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.oversubscription import plan_quotas
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams
from repro.state.snapshot import state_digest
from repro.units import kilowatts

from .spec import PassResult
from .stats import (
    calibration_detail,
    calibration_spin_ms,
    median,
    peak_rss_mb,
    percentile,
    summarize,
)
from .tracer import GcWatch, Tracer

#: One leaf-controller period (simulated seconds).
CYCLE_S = 3.0
#: The paper's budget for one cycle (wall ms).
BUDGET_MS = 3000.0
#: ``cap_tick_ms_p50`` is reported only with this many CAP ticks.
MIN_CAP_TICKS = 20
#: Servers per rack in the row-shaped worlds (the OCP rack's maximum).
SERVERS_PER_RACK = 42


@dataclass(frozen=True)
class FleetWorkload:
    """One fleet workload: how to build it, how long, what must hold."""

    name: str
    build: Callable[[int], Scenario]
    #: Cycles run after the build and before measuring (part of set-up).
    warmup_cycles: int
    #: Builds per pass; ``setup_s`` is their median.
    setup_repeats: int
    #: Every pass measures at least this many cycles; the checkpoint
    #: fingerprint is taken at exactly this cycle of the window.
    min_cycles: int
    #: Check name -> predicate over the finished scenario.
    checks: dict[str, Callable[[Scenario], bool]]
    #: Scenario length in cycles from its start: the window stops there
    #: and an unmeasured tail runs up to it before the checks.
    end_cycle: int | None = None
    #: Time leaf ticks in the untraced pass too (``cap_tick_ms_p50``).
    time_cap_ticks: bool = False


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------


def build_rows_world(
    seed: int,
    *,
    msb_count: int,
    rpps_per_sb: int = 8,
    racks_per_rpp: int = 15,
    rpp_rating_w: float = kilowatts(190),
) -> Scenario:
    """Paper-shaped rows on the batched lane, started.

    Each RPP row is ``racks_per_rpp`` full racks of 42 servers (630 per
    leaf controller at the default 15), 2:1 web:cache, vectorized
    physics and control.
    """
    engine = SimulationEngine()
    spec = DataCenterSpec(
        msb_count=msb_count,
        sbs_per_msb=2,
        rpps_per_sb=rpps_per_sb,
        racks_per_rpp=racks_per_rpp,
        rpp_rating_w=rpp_rating_w,
    )
    topology = build_datacenter(spec)
    plan_quotas(topology)
    rng = RngStreams(seed)
    servers = spec.rack_count * SERVERS_PER_RACK
    web = servers * 2 // 3
    fleet = populate_fleet(
        topology,
        [
            ServiceAllocation("web", web),
            ServiceAllocation("cache", servers - web),
        ],
        rng,
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dynamo"))
    driver = FleetDriver(engine, topology, fleet, physics_backend="vectorized")
    dynamo.enable_vectorized_control(driver)
    scenario = Scenario("rows", engine, topology, fleet, dynamo, driver)
    scenario.start()
    return scenario


def build_fig12(seed: int) -> Scenario:
    """The Fig. 12 SB-outage recovery, started at 11:00 sim-time."""
    scenario = altoona_outage_recovery(seed=12 + seed)
    scenario.start()
    return scenario


def _leaves(scenario: Scenario) -> list:
    return list(scenario.dynamo.hierarchy.leaf_controllers.values())


def _uppers(scenario: Scenario) -> list:
    return list(scenario.dynamo.hierarchy.upper_controllers.values())


def capped_servers(scenario: Scenario) -> int:
    """Servers the leaf controllers currently hold capped."""
    return sum(len(leaf.capped_server_ids) for leaf in _leaves(scenario))


def _no_trips(scenario: Scenario) -> bool:
    return not scenario.driver.trips


def _no_invalid_cycles(scenario: Scenario) -> bool:
    controllers = scenario.dynamo.hierarchy.all_controllers
    return all(c.invalid_cycles == 0 for c in controllers)


def _rows_within_rating(scenario: Scenario) -> bool:
    return all(
        leaf.last_aggregate_power_w is not None
        and leaf.last_aggregate_power_w <= leaf.device.rated_power_w
        for leaf in _leaves(scenario)
    )


def _only_hot_rows_capped(scenario: Scenario) -> bool:
    leaves = scenario.dynamo.hierarchy.leaf_controllers
    capped = sorted(n for n, leaf in leaves.items() if leaf.cap_events > 0)
    return capped == sorted(d.name for d in scenario.extras["hot_rows"])


def _sb(scenario: Scenario):
    return scenario.dynamo.controller("sb0")


STEADY_CHECKS: dict[str, Callable[[Scenario], bool]] = {
    "no_trips": _no_trips,
    "no_cap_events": lambda s: s.dynamo.total_cap_events() == 0,
    "no_invalid_cycles": _no_invalid_cycles,
}
CAPPING_CHECKS: dict[str, Callable[[Scenario], bool]] = {
    "no_trips": _no_trips,
    "caps_issued": lambda s: s.dynamo.total_cap_events() > 0,
    "rows_within_rating": _rows_within_rating,
}
#: Seeds 5 and 10 put the SB 0.1% over its limit for one cycle while the
#: caps settle (no trip); anything beyond this tolerance is a failure.
SB_PEAK_TOLERANCE = 1.005

#: The shape facts of the paper's Figure 12.
FIG12_CHECKS: dict[str, Callable[[Scenario], bool]] = {
    "no_trips": _no_trips,
    "sb_capped": lambda s: _sb(s).cap_events >= 1,
    "sb_uncapped": lambda s: _sb(s).uncap_events >= 1,
    "only_hot_rows_capped": _only_hot_rows_capped,
    "peak_within_sb_limit": lambda s: (
        _sb(s).aggregate_series.max()
        <= SB_PEAK_TOLERANCE * s.extras["sb"].rated_power_w
    ),
    "all_uncapped_at_end": lambda s: s.dynamo.capped_server_count() == 0,
}

#: 12:36 sim-time, four minutes before the recovery surge: the window
#: opens on the ramp, the SB cap, the hold and (at this machine's
#: speed) the uncap.
FIG12_PREROLL_CYCLES = 1920
#: 14:10 sim-time, where the paper's figure ends.
FIG12_END_CYCLE = 3800

FLEET_WORKLOADS: dict[str, FleetWorkload] = {
    w.name: w
    for w in (
        FleetWorkload(
            name="steady10k",
            build=lambda seed: build_rows_world(seed, msb_count=1),
            warmup_cycles=10,
            setup_repeats=3,
            min_cycles=50,
            checks=STEADY_CHECKS,
        ),
        FleetWorkload(
            name="capping100k",
            build=lambda seed: build_rows_world(
                seed, msb_count=10, rpp_rating_w=kilowatts(105)
            ),
            warmup_cycles=4,
            setup_repeats=1,
            min_cycles=8,
            checks=CAPPING_CHECKS,
            time_cap_ticks=True,
        ),
        FleetWorkload(
            name="fig12_outage",
            build=build_fig12,
            warmup_cycles=FIG12_PREROLL_CYCLES,
            setup_repeats=1,
            min_cycles=200,
            checks=FIG12_CHECKS,
            end_cycle=FIG12_END_CYCLE,
        ),
    )
}


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------

_LEAF_STAGES = ("tick", "sense", "aggregate", "decide", "actuate")


def instrument_fleet(
    tracer: Tracer,
    scenario: Scenario,
    on_tick: Callable[[tuple, BandAction, int], None],
) -> None:
    """Install the per-layer shims on one built scenario."""
    dynamo = scenario.dynamo
    tracer.span(scenario.engine, "run_until", "simulation.engine")
    stepper = scenario.driver.stepper
    if stepper is not None:
        tracer.span(stepper, "step", "server.step")
    else:
        for server in scenario.fleet.servers.values():
            tracer.accumulate(server, "step", "server.step")
    tracer.span(
        scenario.topology, "observe_breakers", "power.observe_breakers"
    )
    transport = dynamo.controller_transport
    tracer.accumulate(transport, "call", "rpc.call")
    tracer.accumulate(transport, "broadcast", "rpc.broadcast")
    for method in ("group_read_power", "group_set_cap"):
        if hasattr(transport, method):
            tracer.span(transport, method, f"rpc.{method}")
    if dynamo.agent_batch is not None:
        for method in ("read_power", "set_cap"):
            tracer.span(
                dynamo.agent_batch, method, f"core.agent_batch.{method}"
            )
    tracer.span(dynamo.traces, "record", "telemetry.trace_record")
    for leaf in _leaves(scenario):
        tracer.span(leaf, "tick", "core.leaf.tick", on_tick)
        for stage in _LEAF_STAGES[1:]:
            tracer.span(leaf, stage, f"core.leaf.{stage}")
    for upper in _uppers(scenario):
        tracer.span(upper, "tick", "core.upper.tick")
    tracer.span(
        leaf_module, "build_capping_plan", "core.capping_plan.build"
    )
    tracer.span(
        leaf_module.BatchedSense, "readings", "core.leaf.readings_materialize"
    )


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


def _counters(scenario: Scenario) -> dict[str, int]:
    dynamo = scenario.dynamo
    leaves, uppers = _leaves(scenario), _uppers(scenario)
    return {
        "ticks": dynamo.traces.recorded,
        "invalid": sum(c.invalid_cycles for c in leaves + uppers),
        "trips": len(scenario.driver.trips),
        "leaf_caps": sum(c.cap_events for c in leaves),
        "leaf_uncaps": sum(c.uncap_events for c in leaves),
        "upper_caps": sum(c.cap_events for c in uppers),
        "events": scenario.engine.events_executed,
        "fast_calls": dynamo.transport.group_fast_endpoint_calls,
        "fallback_calls": dynamo.transport.group_fallback_endpoint_calls,
        "failed_calls": dynamo.transport.calls_failed,
    }


def state_fingerprint(scenario: Scenario) -> str:
    """Digest of the simulated state both passes must agree on."""
    dynamo = scenario.dynamo
    return state_digest(
        {
            "events_executed": scenario.engine.events_executed,
            "total_power_w": repr(scenario.fleet.total_power_w()),
            "capped_servers": capped_servers(scenario),
            "cap_events": dynamo.total_cap_events(),
            "uncap_events": dynamo.total_uncap_events(),
            "trips": len(scenario.driver.trips),
        }
    )


def _layer_metrics(
    tracer: Tracer, delta: dict[str, int], cycles: int
) -> dict[str, float]:
    """Per-layer self times (ms per cycle) and counts from one window."""

    def ms(name: str) -> float:
        return tracer.self_ms(name, cycles)

    return {
        "server.step_ms": ms("server.step"),
        "server.step_calls": tracer.count("server.step") / cycles,
        "power.observe_breakers_ms": ms("power.observe_breakers"),
        "simulation.engine_self_ms": ms("simulation.engine"),
        "simulation.events": delta["events"] / cycles,
        "rpc.group_read_power_ms": ms("rpc.group_read_power"),
        "rpc.group_set_cap_ms": ms("rpc.group_set_cap"),
        "rpc.fast_endpoint_calls": delta["fast_calls"] / cycles,
        "rpc.fallback_endpoint_calls": delta["fallback_calls"] / cycles,
        "rpc.call_ms": ms("rpc.call") + ms("rpc.broadcast"),
        "rpc.call_count": tracer.count("rpc.call") / cycles,
        "rpc.failed_calls": float(delta["failed_calls"]),
        **{f"core.leaf.{s}_ms": ms(f"core.leaf.{s}") for s in _LEAF_STAGES},
        "core.leaf.readings_materialize_ms": ms(
            "core.leaf.readings_materialize"
        ),
        "core.capping_plan.build_ms": ms("core.capping_plan.build"),
        "core.agent_batch.read_power_ms": ms("core.agent_batch.read_power"),
        "core.agent_batch.set_cap_ms": ms("core.agent_batch.set_cap"),
        "core.upper.tick_ms": ms("core.upper.tick"),
        "core.leaf.ticks": tracer.count("core.leaf.tick") / cycles,
        "core.leaf.cap_ticks": float(delta["leaf_caps"]),
        "core.leaf.uncap_ticks": float(delta["leaf_uncaps"]),
        "core.upper.cap_ticks": float(delta["upper_caps"]),
        "core.invalid_cycles": float(delta["invalid"]),
        "telemetry.trace_record_ms": ms("telemetry.trace_record"),
    }


def run_fleet_pass(
    workload: FleetWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    spans_path: Path | None = None,
) -> PassResult:
    """Build, warm up, measure ``seconds`` of wall time, check."""
    calib_before = calibration_spin_ms()

    # Set-up: build + warm-up, repeated; the last world is measured.
    setup_s: list[float] = []
    warm_prints: list[str] = []
    scenario = None
    for _ in range(workload.setup_repeats):
        scenario = None
        gc.collect()
        t0 = perf_counter()
        scenario = workload.build(seed)
        start_s = scenario.engine.clock.now
        scenario.run_until(start_s + CYCLE_S * workload.warmup_cycles)
        setup_s.append(perf_counter() - t0)
        warm_prints.append(state_fingerprint(scenario))
    assert scenario is not None
    # A full collection now, so that where the next generation-2 pause
    # falls in the window does not depend on how set-up went.
    gc.collect()

    tracer = Tracer()
    gc_watch = GcWatch()
    cap_tick_ns: list[int] = []

    def on_tick(args: tuple, action: BandAction, duration_ns: int) -> None:
        if action is BandAction.CAP:
            cap_tick_ns.append(duration_ns)

    if trace:
        instrument_fleet(tracer, scenario, on_tick)
        gc_watch.install()
    elif workload.time_cap_ticks:
        for leaf in _leaves(scenario):
            tracer.span(leaf, "tick", "core.leaf.tick", on_tick)

    # The measured window.
    first = workload.warmup_cycles
    limit = None if workload.end_cycle is None else workload.end_cycle - first
    before = _counters(scenario)
    cycle_ns: list[int] = []
    checkpoint = ""
    engine = scenario.engine
    try:
        window_t0 = perf_counter_ns()
        deadline = window_t0 + int(seconds * 1e9)
        while True:
            tracer.cycle = len(cycle_ns)
            t0 = perf_counter_ns()
            engine.run_until(start_s + CYCLE_S * (first + len(cycle_ns) + 1))
            t1 = perf_counter_ns()
            cycle_ns.append(t1 - t0)
            cycles = len(cycle_ns)
            if cycles == workload.min_cycles:
                checkpoint = state_fingerprint(scenario)
            if cycles == limit or (
                t1 >= deadline and cycles >= workload.min_cycles
            ):
                break
        window_ns = perf_counter_ns() - window_t0
    finally:
        tracer.uninstall()
        if trace:
            gc_watch.uninstall()
    after = _counters(scenario)
    delta = {key: after[key] - before[key] for key in after}
    capped_at_window_end = capped_servers(scenario)
    calib_after = calibration_spin_ms()

    if workload.end_cycle is not None:
        scenario.run_until(start_s + CYCLE_S * workload.end_cycle)
    checks = {name: bool(ok(scenario)) for name, ok in workload.checks.items()}
    checks["setup_deterministic"] = len(set(warm_prints)) == 1

    cycles = len(cycle_ns)
    cycle_ms = [ns / 1e6 for ns in cycle_ns]
    cap_tick_ms = [ns / 1e6 for ns in cap_tick_ns]
    cap_tick_p50 = (
        median(cap_tick_ms) if len(cap_tick_ms) >= MIN_CAP_TICKS else None
    )
    failed = delta["invalid"] + delta["trips"]
    detail = {
        "cycles": cycles,
        "warmup_cycles": workload.warmup_cycles,
        "servers": len(scenario.fleet.servers),
        "cycle_ms": summarize(cycle_ms),
        "cap_tick_ms": summarize(cap_tick_ms),
        "checkpoint": {"cycle": workload.min_cycles, "digest": checkpoint},
        "setup_s": setup_s,
        **calibration_detail(calib_before, calib_after),
    }

    if not trace:
        metrics = {
            "setup_s": median(setup_s),
            "sim_s_per_wall_s": CYCLE_S * cycles / (sum(cycle_ns) / 1e9),
            "op_ms_p50": median(cycle_ms),
            "peak_rss_mb": peak_rss_mb(),
            "failed_frac": failed / max(delta["ticks"], 1),
        }
        if workload.time_cap_ticks and cap_tick_p50 is not None:
            metrics["cap_tick_ms_p50"] = cap_tick_p50
        return PassResult(checks, delta["ticks"], failed, metrics, detail)

    if spans_path is not None:
        tracer.write_jsonl(spans_path)

    metrics = {
        **_layer_metrics(tracer, delta, cycles),
        "power.devices": float(scenario.topology.device_count),
        "core.leaf.cap_tick_ms_p50": cap_tick_p50 or 0.0,
        "core.capped_servers": float(capped_at_window_end),
        **gc_watch.metrics(cycles),
        "driver.cycle_ms_p50": median(cycle_ms),
        "driver.cycle_ms_p90": percentile(cycle_ms, 90.0),
        "driver.cycle_ms_max": max(cycle_ms),
        "driver.cycles_over_budget": float(
            sum(1 for v in cycle_ms if v > BUDGET_MS)
        ),
        "driver.calib_ms": (calib_before + calib_after) / 2.0,
        "trace.unattributed_ms": (window_ns - sum(tracer.self_ns.values()))
        / 1e6
        / cycles,
    }
    detail["spans"] = len(tracer.spans)
    return PassResult(checks, delta["ticks"], failed, metrics, detail)
