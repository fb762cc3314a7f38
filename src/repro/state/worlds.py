"""Recipe-built worlds: the unit a snapshot captures and restores.

A snapshot never serializes object graphs or event closures — it stores
a *recipe* (builder name + kwargs) that deterministically rebuilds the
world's structure, and restore then overwrites the rebuilt components'
mutable state.  Anything a builder wires (topology, servers, agents,
controller hierarchy, armed schedules) therefore never needs to be in
the snapshot; only what time and randomness have changed does.

Builders:

* ``quickstart`` — the CLI's default deployment: a 1-MSB datacenter,
  36 web/cache servers, Dynamo started, fleet driver running.
* ``sized`` — the quickstart shape scaled to an arbitrary server
  count (profiling and control-plane benchmarks).
* ``chaos`` — any named scenario from
  :data:`repro.chaos.scenarios.CHAOS_SCENARIOS`, fully armed (fault
  schedule + health probe) and started.
* ``econ`` — any named scenario from
  :data:`repro.economics.scenarios.ECON_SCENARIOS`: the quickstart
  shape plus a deferrable batch tier, governed (or metered) by an
  :class:`~repro.economics.governor.EconomicGovernor`.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.chaos.orchestrator import ChaosOrchestrator
from repro.core.dynamo import Dynamo
from repro.errors import SnapshotError
from repro.fleet import Fleet, FleetDriver
from repro.power.topology import PowerTopology
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams

if TYPE_CHECKING:
    from repro.economics.governor import EconomicGovernor


@dataclass
class World:
    """One built, armed deployment plus the recipe that rebuilds it."""

    recipe: dict
    engine: SimulationEngine
    topology: PowerTopology
    fleet: Fleet
    dynamo: Dynamo
    driver: FleetDriver
    rng: RngStreams
    orchestrator: ChaosOrchestrator | None = None
    governor: "EconomicGovernor | None" = None
    extras: dict = field(default_factory=dict)

    def run_until(self, end_s: float) -> None:
        """Advance the world to ``end_s``."""
        self.engine.run_until(end_s)

    @property
    def now_s(self) -> float:
        """Current simulation time."""
        return self.engine.clock.now


def build_quickstart_world(seed: int = 0) -> World:
    """The CLI quickstart deployment, armed at t=0."""
    from repro.fleet import ServiceAllocation, populate_fleet
    from repro.power.builder import DataCenterSpec, build_datacenter
    from repro.power.oversubscription import plan_quotas

    engine = SimulationEngine()
    topology = build_datacenter(
        DataCenterSpec(
            msb_count=1, sbs_per_msb=2, rpps_per_sb=2, racks_per_rpp=3
        )
    )
    plan_quotas(topology)
    rng = RngStreams(seed)
    fleet = populate_fleet(
        topology,
        [ServiceAllocation("web", 24), ServiceAllocation("cache", 12)],
        rng,
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dynamo"))
    driver = FleetDriver(engine, topology, fleet)
    driver.start()
    dynamo.start()
    return World(
        recipe={"builder": "quickstart", "kwargs": {"seed": seed}},
        engine=engine,
        topology=topology,
        fleet=fleet,
        dynamo=dynamo,
        driver=driver,
        rng=rng,
    )


def build_sized_world(
    servers: int = 1000,
    seed: int = 0,
    on_phase: Callable[[str], None] | None = None,
) -> World:
    """A parametric-size deployment for profiling and benchmarks.

    Lays ``servers`` machines (2:1 web:cache) across a topology that
    scales its RPP fan-out with fleet size, so leaf controllers keep a
    realistic span (~hundreds of servers per leaf) as the fleet grows.

    ``on_phase`` is called with a phase name as each set-up phase
    completes (``repro profile``'s set-up table); it is not part of the
    recipe.
    """
    from repro.fleet import ServiceAllocation, populate_fleet
    from repro.power.builder import DataCenterSpec, build_datacenter
    from repro.power.oversubscription import plan_quotas

    engine = SimulationEngine()
    rpps_per_sb = max(2, min(16, servers // 400))
    topology = build_datacenter(
        DataCenterSpec(
            msb_count=1,
            sbs_per_msb=2,
            rpps_per_sb=rpps_per_sb,
            racks_per_rpp=3,
        )
    )
    plan_quotas(topology)
    done = on_phase or (lambda phase: None)
    done("topology")
    rng = RngStreams(seed)
    web = (servers * 2) // 3
    fleet = populate_fleet(
        topology,
        [
            ServiceAllocation("web", web),
            ServiceAllocation("cache", servers - web),
        ],
        rng,
    )
    done("populate")
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dynamo"))
    done("Dynamo")
    driver = FleetDriver(engine, topology, fleet)
    done("stepper bind")
    driver.start()
    dynamo.start()  # attaches the batched control plane
    done("agent-batch bind")
    return World(
        recipe={
            "builder": "sized",
            "kwargs": {"servers": servers, "seed": seed},
        },
        engine=engine,
        topology=topology,
        fleet=fleet,
        dynamo=dynamo,
        driver=driver,
        rng=rng,
    )


def build_chaos_world(scenario: str, seed: int = 7) -> World:
    """A named chaos scenario, armed and started at t=0.

    The underlying :class:`~repro.chaos.scenarios.ChaosRun` rides in
    ``extras["chaos_run"]`` so the scorecard can be built after a
    resumed campaign finishes.
    """
    from repro.chaos.scenarios import CHAOS_SCENARIOS

    try:
        builder = CHAOS_SCENARIOS[scenario]
    except KeyError:
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise SnapshotError(
            f"unknown chaos scenario {scenario!r}; known: {known}"
        ) from None
    run = builder(seed=seed)
    run.start()
    return World(
        recipe={
            "builder": "chaos",
            "kwargs": {"scenario": scenario, "seed": seed},
        },
        engine=run.engine,
        topology=run.topology,
        fleet=run.fleet,
        dynamo=run.dynamo,
        driver=run.driver,
        rng=run.rng,
        orchestrator=run.orchestrator,
        governor=run.extras.get("governor"),
        extras={"chaos_run": run, "end_s": run.end_s},
    )


def build_econ_world(
    scenario: str = "price-spike-day",
    seed: int = 0,
    governed: bool = True,
) -> World:
    """A named economics scenario, governed and started at t=0.

    Thin registry wrapper; the real builder lives with the economics
    package (imported lazily to keep this module cycle-free).
    """
    from repro.economics.scenarios import build_econ_world as build

    return build(scenario=scenario, seed=seed, governed=governed)


WORLD_BUILDERS: dict[str, Callable[..., World]] = {
    "quickstart": build_quickstart_world,
    "sized": build_sized_world,
    "chaos": build_chaos_world,
    "econ": build_econ_world,
}


def build_world(recipe: dict) -> World:
    """Rebuild a world from a snapshot recipe.

    The recipe's kwargs must bind to the builder's signature; anything
    else (an unknown or missing key, a non-mapping) is a malformed
    recipe and raises :class:`SnapshotError` naming the problem.
    """
    try:
        name = str(recipe["builder"])
        builder = WORLD_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(WORLD_BUILDERS))
        raise SnapshotError(
            f"unknown world builder {recipe.get('builder')!r}; "
            f"known: {known}"
        ) from None
    kwargs = recipe.get("kwargs", {})
    if not isinstance(kwargs, Mapping):
        raise SnapshotError(
            f"recipe kwargs for {name!r} must be a mapping, "
            f"not {type(kwargs).__name__}"
        )
    signature = inspect.signature(builder)
    unknown = sorted(set(kwargs) - set(signature.parameters))
    if unknown:
        raise SnapshotError(
            f"recipe for {name!r} has unknown kwargs {unknown}; "
            f"{name!r} takes {list(signature.parameters)}"
        )
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        raise SnapshotError(f"recipe for {name!r}: {exc}") from None
    return builder(**kwargs)
