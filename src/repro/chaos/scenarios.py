"""Prebuilt chaos scenarios and seeded random campaigns.

Each scenario wires a small, deliberately fragile deployment (thin SB
headroom over rows of web servers, as in
:func:`repro.analysis.worlds.build_surge_world`), arms a fault schedule
through the :class:`ChaosOrchestrator`, and attaches a health probe so
the scorecard can measure detection and recovery.  It returns an
unarmed :class:`~repro.world.World` whose ``end_s`` is the end of its
schedule and whose ``extras["monitored_device"]`` names the device the
probe and scorecard watch; :func:`chaos_world` is the recipe table's
``chaos`` entry, the same world armed and carrying its recipe.

Named scenarios map to the paper's fault-tolerance claims:

================== =======================================================
``sb-outage``       Figure 12 ride-through: an outage-recovery power surge
                    drives the SB past its capping threshold; Dynamo caps
                    offender rows and nothing trips.
``watchdog-restart`` a quarter of the agents crash; the watchdog restarts
                    them within one sweep (Section III-E).
``leaf-controller-crash``   a leaf controller primary dies mid-run; its
                    backup takes over on the next tick.
``upper-controller-crash``  same for the SB-level controller.
``rpc-storm``       per-endpoint failures and latency spikes; neighbour
                    estimation keeps aggregation valid.
``flaky-fabric-recovery``   fabric-wide failure rates ramp up to 30% and
                    back down over the fully distributed hierarchy; the
                    resilience layer (retries, breakers) must ride it out
                    with no breaker trips and no stranded limits.
``partition``       >20% of one row's agents partitioned; aggregation
                    aborts with a CRITICAL alert, no false capping.
``sensor-blackout-{30,50,70}``  30/50/70% of one row's agents partitioned
                    *with the disaggregation estimator enabled* during a
                    surge: at 30/50% the leaf keeps capping in
                    SENSOR_DEGRADED against the uncertainty-inflated
                    estimate; at 70% coverage falls below the estimation
                    floor and the controller escalates to SAFE instead
                    of aborting silently.
``price-spike-surge``  a power surge lands while the economic governor
                    is shaping against an early price spike; breaker
                    safety overrides advisory economics and nothing
                    trips.
``breaker-derate``  the SB rating is derated mid-run; capping pulls the
                    load under the new limit.
``campaign``        a seeded random campaign over the whole catalogue.
================== =======================================================
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.worlds import build_surge_world
from repro.chaos.faults import FaultSpec
from repro.config import (
    ControllerConfig,
    DynamoConfig,
    EconomicsConfig,
    EstimationConfig,
)
from repro.chaos.orchestrator import ChaosContext, ChaosOrchestrator
from repro.core.dynamo import Dynamo
from repro.core.remote import distribute_hierarchy
from repro.errors import ConfigurationError, SnapshotError
from repro.fleet import FleetDriver
from repro.simulation.rng import RngStreams
from repro.world import World


def default_health_probe(world: World) -> Callable[[ChaosContext], bool]:
    """The scenario-agnostic health predicate.

    Healthy means: no breaker has tripped, every agent is up, the
    monitored device's aggregate is at or under its (current) rating,
    and no leaf controller aborted an aggregation since the last sample.
    """
    state = {"invalid": 0}
    monitored = world.extras["monitored_device"]

    def healthy(ctx: ChaosContext) -> bool:
        ok = not world.driver.tripped
        if not all(agent.healthy for agent in ctx.dynamo.agents.values()):
            ok = False
        controller = ctx.dynamo.controller(monitored)
        device = ctx.topology.device(monitored)
        aggregate = controller.last_aggregate_power_w
        if aggregate is not None and aggregate > device.rated_power_w:
            ok = False
        invalid = sum(
            leaf.invalid_cycles
            for leaf in ctx.dynamo.hierarchy.leaf_controllers.values()
        )
        if invalid > state["invalid"]:
            ok = False
        state["invalid"] = invalid
        return ok

    # Exposed so a snapshot can capture/restore the probe's memory of
    # the last-seen invalid-cycle count.
    healthy.probe_state = state  # type: ignore[attr-defined]
    return healthy


def build_chaos_run(
    name: str,
    specs: list[FaultSpec],
    *,
    seed: int = 7,
    n_servers: int = 40,
    level: float = 0.6,
    rpp_count: int = 2,
    end_s: float = 1800.0,
    monitored_device: str = "sb0",
    probe_interval_s: float = 3.0,
    config: DynamoConfig | None = None,
) -> World:
    """Wire a chaos experiment, unarmed: world + Dynamo + orchestrator + probe."""
    engine, topology, fleet, rng = build_surge_world(
        n_servers=n_servers, level=level, rpp_count=rpp_count, seed=seed
    )
    dynamo = Dynamo(
        engine, topology, fleet, config=config,
        rng_streams=rng.fork("dynamo"),
    )
    driver = FleetDriver(engine, topology, fleet, step_interval_s=1.0)
    ctx = ChaosContext(
        engine=engine,
        dynamo=dynamo,
        topology=topology,
        fleet=fleet,
        driver=driver,
    )
    orchestrator = ChaosOrchestrator(ctx)
    world = World(
        name, engine, topology, fleet, dynamo, driver, rng=rng,
        orchestrator=orchestrator, end_s=end_s,
        extras={"monitored_device": monitored_device},
    )
    orchestrator.schedule_all(specs)
    orchestrator.attach_probe(
        default_health_probe(world), interval_s=probe_interval_s
    )
    return world


def _surge_server_ids(rows: range = range(2), per_row: int = 20) -> list[str]:
    """Server ids of the drills' surge world, sorted, without building it.

    :func:`~repro.analysis.worlds.build_surge_world` names server ``i``
    of row ``r`` ``s{r}-{i}``; the drills run its default 40 servers
    over two rows.
    """
    return sorted(f"s{row}-{i}" for row in rows for i in range(per_row))


# ---------------------------------------------------------------------------
# Named scenarios
# ---------------------------------------------------------------------------

def sb_outage(seed: int = 7) -> World:
    """Figure 12 ride-through: outage-recovery surge against the SB."""
    specs = [
        FaultSpec(
            kind="power-surge",
            start_s=300.0,
            duration_s=900.0,
            params={"multiplier": 1.6, "ramp_s": 120.0},
        )
    ]
    return build_chaos_run(
        "sb-outage",
        specs,
        seed=seed,
        end_s=1800.0,
    )


def watchdog_restart(seed: int = 7) -> World:
    """A quarter of the agents crash; the watchdog repairs them."""
    # Targets are fixed by position so the schedule itself is static;
    # only fault *consequences* vary with the seed.
    victims = tuple(_surge_server_ids()[::4])
    specs = [FaultSpec(kind="agent-crash", start_s=120.0, targets=victims)]
    return build_chaos_run(
        "watchdog-restart",
        specs,
        seed=seed,
        end_s=600.0,
    )


def leaf_controller_crash(seed: int = 7) -> World:
    """A leaf controller primary dies; its backup takes over."""
    specs = [
        FaultSpec(
            kind="controller-crash",
            start_s=150.0,
            duration_s=300.0,
            targets=("rpp0",),
        )
    ]
    return build_chaos_run(
        "leaf-controller-crash",
        specs,
        seed=seed,
        end_s=900.0,
    )


def upper_controller_crash(seed: int = 7) -> World:
    """The SB-level controller primary dies; its backup takes over."""
    specs = [
        FaultSpec(
            kind="controller-crash",
            start_s=150.0,
            duration_s=300.0,
            targets=("sb0",),
        )
    ]
    return build_chaos_run(
        "upper-controller-crash",
        specs,
        seed=seed,
        end_s=900.0,
    )


def rpc_storm(seed: int = 7) -> World:
    """Flaky fabric plus a latency spike across every agent endpoint."""
    specs = [
        FaultSpec(
            kind="rpc-flaky",
            start_s=120.0,
            duration_s=300.0,
            params={"failure_probability": 0.15},
        ),
        FaultSpec(
            kind="rpc-latency",
            start_s=120.0,
            duration_s=300.0,
            params={"mean_s": 0.050},
        ),
    ]
    return build_chaos_run(
        "rpc-storm",
        specs,
        seed=seed,
        end_s=900.0,
    )


def flaky_fabric_recovery(seed: int = 7) -> World:
    """Fabric-wide flakiness ramps up to 30%, peaks, and subsides.

    Runs the fully *distributed* hierarchy (controller endpoints on the
    fabric, parents behind RPC proxies) so contractual pushes travel the
    same lossy network as power pulls.  The resilience layer must ride
    the ramp out: retries keep aggregation live through the peak without
    a single breaker trip, and the clean tail must leave no stranded
    caps or contractual limits.
    """
    windows = [(120.0, 0.10), (240.0, 0.30), (360.0, 0.15)]
    specs = [
        FaultSpec(
            kind="rpc-flaky",
            start_s=start_s,
            duration_s=120.0,
            params={"failure_probability": rate, "scope": "fabric"},
        )
        for start_s, rate in windows
    ]
    world = build_chaos_run(
        "flaky-fabric-recovery",
        specs,
        seed=seed,
        end_s=900.0,
    )
    # Distribute after wiring so the ctrl: endpoints exist on the fabric
    # before the first injection resolves its endpoint set.
    world.extras["endpoints"] = distribute_hierarchy(
        world.dynamo.hierarchy, world.dynamo.controller_transport
    )
    return world


def partition(seed: int = 7) -> World:
    """Partition >20% of one row's agents: aggregation must abort."""
    rpp0_ids = _surge_server_ids(rows=range(1))
    victims = tuple(rpp0_ids[: max(1, int(len(rpp0_ids) * 0.3))])
    specs = [
        FaultSpec(
            kind="rpc-partition",
            start_s=120.0,
            duration_s=240.0,
            targets=victims,
        )
    ]
    return build_chaos_run(
        "partition",
        specs,
        seed=seed,
        end_s=900.0,
    )


def _sensor_blackout(fraction: float, seed: int = 7) -> World:
    """Partition ``fraction`` of one row's agents with estimation on.

    The same fault shape as ``partition`` — an rpc partition well past
    the 20% invalid-aggregation floor — but the deployment runs with the
    disaggregation estimator enabled, and a concurrent surge forces the
    leaf to actually *cap* while its sensors are dark.  At 30/50% the
    controller rides it out in SENSOR_DEGRADED; at 70% coverage drops
    below the estimator's ``SAFE_COVERAGE`` and the leaf escalates
    through the invalid-cycle path to SAFE (fail-safe capping) instead
    of aborting silently.
    """
    rpp0_ids = _surge_server_ids(rows=range(1))
    victims = tuple(rpp0_ids[: max(1, int(len(rpp0_ids) * fraction))])
    specs = [
        FaultSpec(
            kind="rpc-partition",
            start_s=120.0,
            duration_s=360.0,
            targets=victims,
        ),
        FaultSpec(
            kind="power-surge",
            start_s=180.0,
            duration_s=240.0,
            params={"multiplier": 1.5, "ramp_s": 60.0},
        ),
    ]
    config = DynamoConfig(
        controller=ControllerConfig(
            estimation=EstimationConfig(enabled=True)
        )
    )
    return build_chaos_run(
        f"sensor-blackout-{int(round(fraction * 100))}",
        specs,
        seed=seed,
        end_s=900.0,
        config=config,
    )


def sensor_blackout_30(seed: int = 7) -> World:
    """30% of one row's sensors go dark; estimation carries the cycle."""
    return _sensor_blackout(0.3, seed)


def sensor_blackout_50(seed: int = 7) -> World:
    """Half of one row's sensors go dark; estimation carries the cycle."""
    return _sensor_blackout(0.5, seed)


def sensor_blackout_70(seed: int = 7) -> World:
    """70% dark: below the estimation floor, the leaf must go SAFE."""
    return _sensor_blackout(0.7, seed)


def price_spike_surge(seed: int = 7) -> World:
    """A power surge lands mid price-spike; breaker safety must win.

    The economic governor is shaping bands against an early price spike
    (minutes 5–20) when an outage-recovery surge hits the same window.
    The drill asserts the precedence contract: advisory economics never
    blocks capping — the hierarchy rides the surge out with zero trips
    while the ledger still books the spike.
    """
    from repro.economics.governor import EconomicGovernor

    specs = [
        FaultSpec(
            kind="power-surge",
            start_s=420.0,
            duration_s=600.0,
            params={"multiplier": 1.6, "ramp_s": 120.0},
        )
    ]
    config = DynamoConfig(
        economics=EconomicsConfig(
            enabled=True,
            price_signal="price-spike-early",
            carbon_signal="carbon-flat",
        )
    )
    world = build_chaos_run(
        "price-spike-surge",
        specs,
        seed=seed,
        end_s=1800.0,
        config=config,
    )
    world.governor = EconomicGovernor(world.engine, world.dynamo, world.fleet)
    return world


def breaker_derate(seed: int = 7) -> World:
    """The SB rating is derated mid-run; capping pulls load under it."""
    specs = [
        FaultSpec(
            kind="breaker-derate",
            start_s=200.0,
            duration_s=600.0,
            targets=("sb0",),
            params={"fraction": 0.82},
        )
    ]
    return build_chaos_run(
        "breaker-derate",
        specs,
        seed=seed,
        end_s=1200.0,
    )


# ---------------------------------------------------------------------------
# Random campaigns
# ---------------------------------------------------------------------------

#: Fault kinds a random campaign draws from, with (min, max) durations.
CAMPAIGN_KINDS: list[tuple[str, float, float]] = [
    ("agent-crash", 0.0, 0.0),  # open-ended: the watchdog repairs it
    ("sensor-dropout", 120.0, 300.0),
    ("sensor-stuck", 120.0, 300.0),
    ("rpc-flaky", 90.0, 240.0),
    ("rpc-latency", 90.0, 240.0),
    ("rpc-partition", 60.0, 180.0),
    ("power-surge", 240.0, 480.0),
]


def random_campaign_specs(
    rng_streams: RngStreams,
    server_ids: list[str],
    *,
    n_faults: int = 6,
    horizon_s: float = 900.0,
    first_start_s: float = 60.0,
) -> list[FaultSpec]:
    """Draw a replayable random fault schedule.

    All randomness comes from the ``"chaos.campaign"`` stream, so the
    same root seed always yields the identical schedule — the campaign
    is as deterministic as a hand-written one.
    """
    if not server_ids:
        raise ConfigurationError("campaign needs at least one server")
    rng = rng_streams.stream("chaos.campaign")
    ordered = sorted(server_ids)
    specs: list[FaultSpec] = []
    for _ in range(n_faults):
        kind, dur_lo, dur_hi = CAMPAIGN_KINDS[
            int(rng.integers(len(CAMPAIGN_KINDS)))
        ]
        start_s = float(rng.uniform(first_start_s, horizon_s))
        duration_s = None
        if dur_hi > 0.0:
            duration_s = float(rng.uniform(dur_lo, dur_hi))
        # Target a contiguous slice of the fleet: cheap to draw, stable
        # to describe, and adjustable in severity via the slice width.
        width = max(1, int(rng.integers(1, max(2, len(ordered) // 4))))
        offset = int(rng.integers(len(ordered)))
        targets = tuple(
            ordered[(offset + i) % len(ordered)] for i in range(width)
        )
        params: dict = {}
        if kind == "power-surge":
            params = {"multiplier": float(rng.uniform(1.2, 1.5))}
            targets = ()  # surges hit every server
        elif kind == "rpc-flaky":
            params = {"failure_probability": float(rng.uniform(0.05, 0.3))}
        elif kind == "rpc-latency":
            params = {"mean_s": float(rng.uniform(0.01, 0.1))}
        specs.append(
            FaultSpec(
                kind=kind,
                start_s=round(start_s, 3),
                duration_s=None if duration_s is None else round(duration_s, 3),
                targets=targets,
                params=params,
            )
        )
    specs.sort(key=lambda s: (s.start_s, s.kind))
    return specs


def campaign(seed: int = 7, *, n_faults: int = 6) -> World:
    """A seeded random campaign over the fault catalogue."""
    # Streams depend only on (seed, name): a fresh family draws the
    # campaign's schedule exactly as the run's own would.
    specs = random_campaign_specs(
        RngStreams(seed),
        _surge_server_ids(),
        n_faults=n_faults,
        horizon_s=900.0,
    )
    return build_chaos_run(
        "campaign",
        specs,
        seed=seed,
        end_s=1500.0,
    )


CHAOS_SCENARIOS: dict[str, Callable[..., World]] = {
    "sb-outage": sb_outage,
    "watchdog-restart": watchdog_restart,
    "leaf-controller-crash": leaf_controller_crash,
    "upper-controller-crash": upper_controller_crash,
    "rpc-storm": rpc_storm,
    "flaky-fabric-recovery": flaky_fabric_recovery,
    "partition": partition,
    "sensor-blackout-30": sensor_blackout_30,
    "sensor-blackout-50": sensor_blackout_50,
    "sensor-blackout-70": sensor_blackout_70,
    "price-spike-surge": price_spike_surge,
    "breaker-derate": breaker_derate,
    "campaign": campaign,
}


def chaos_world(scenario: str, seed: int = 7) -> World:
    """The named drill ``scenario``, armed: the recipe table's ``chaos`` entry."""
    try:
        build = CHAOS_SCENARIOS[scenario]
    except KeyError:
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise SnapshotError(
            f"unknown chaos scenario {scenario!r}; known: {known}"
        ) from None
    world = build(seed=seed)
    world.recipe = {
        "builder": "chaos",
        "kwargs": {"scenario": scenario, "seed": seed},
    }
    world.start()
    return world
