"""The world container every builder returns, and one shared assembly.

The builders live with their families (the case studies, the chaos
drills, the econ days) and the recipe table in :mod:`repro.state.worlds`
imports them all, so :class:`World` sits below both.
:func:`datacenter_world` is the assembly the quickstart, sized and econ
worlds share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.dynamo import Dynamo
from repro.fleet import FleetDriver, populate_fleet
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.oversubscription import plan_quotas
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams

if TYPE_CHECKING:
    from repro.chaos.orchestrator import ChaosOrchestrator
    from repro.config import DynamoConfig
    from repro.economics.governor import EconomicGovernor
    from repro.fleet import Fleet, ServiceAllocation
    from repro.power.topology import PowerTopology


@dataclass
class World:
    """One built deployment: the container every builder returns.

    **When a world is armed.**  A world is armed once :meth:`start` has
    run: the fleet driver, Dynamo and any governor have put their
    periodic schedules on the engine.  Every builder in the recipe
    table (:data:`repro.state.worlds.WORLD_BUILDERS`) returns its world
    armed, because restore rebuilds from the table and then swaps the
    schedules the build armed for the snapshot's.  The scenario
    functions behind the table's case-study and chaos entries return
    their world unarmed, so a caller can instrument it or schedule
    around it before calling :meth:`start`.

    A world without a ``recipe`` runs but cannot be snapshotted.
    """

    name: str
    engine: SimulationEngine
    topology: PowerTopology
    fleet: Fleet
    dynamo: Dynamo
    driver: FleetDriver
    rng: RngStreams | None = None
    #: ``{"builder": <WORLD_BUILDERS key>, "kwargs": {...}}``.
    recipe: dict | None = None
    orchestrator: ChaosOrchestrator | None = None
    governor: EconomicGovernor | None = None
    #: Simulation time the engine starts at (the case studies start at
    #: their figure's hour of day).
    start_s: float = 0.0
    #: Natural end: a drill's schedule, an econ day, a figure's window;
    #: None for an open-ended deployment.
    end_s: float | None = None
    extras: dict = field(default_factory=dict)

    def start(self) -> None:
        """Arm the world: the fleet driver, then Dynamo, then any governor."""
        self.driver.start()
        self.dynamo.start()
        if self.governor is not None:
            self.governor.start()

    def run_until(self, end_s: float) -> None:
        """Advance the world to the absolute simulation time ``end_s``."""
        self.engine.run_until(end_s)

    @property
    def now_s(self) -> float:
        """Current simulation time."""
        return self.engine.clock.now


def datacenter_world(
    name: str,
    recipe: dict,
    allocations: list[ServiceAllocation],
    *,
    seed: int,
    rpps_per_sb: int = 2,
    config: DynamoConfig | None = None,
    on_phase: Callable[[str], None] | None = None,
) -> World:
    """An OCP datacenter populated with ``allocations``, unarmed.

    One MSB feeding two SBs of ``rpps_per_sb`` RPPs, three racks each;
    the fleet draws from ``RngStreams(seed)``, Dynamo from its
    ``"dynamo"`` fork.  ``on_phase`` is called with each set-up phase's
    name as it completes (``repro profile``'s set-up table).
    """
    done = on_phase or (lambda phase: None)
    engine = SimulationEngine()
    topology = build_datacenter(
        DataCenterSpec(
            msb_count=1,
            sbs_per_msb=2,
            rpps_per_sb=rpps_per_sb,
            racks_per_rpp=3,
        )
    )
    plan_quotas(topology)
    done("topology")
    rng = RngStreams(seed)
    fleet = populate_fleet(topology, allocations, rng)
    done("populate")
    dynamo = Dynamo(
        engine, topology, fleet, config=config, rng_streams=rng.fork("dynamo")
    )
    done("Dynamo")
    driver = FleetDriver(engine, topology, fleet)
    done("stepper bind")
    return World(
        name, engine, topology, fleet, dynamo, driver, rng=rng, recipe=recipe
    )
