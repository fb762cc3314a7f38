"""repro — a from-scratch reproduction of Dynamo (ISCA 2016).

Dynamo is Facebook's data center-wide power management system: a
hierarchy of power controllers mirroring the power delivery topology,
agents on every server reading power and enforcing RAPL caps, the
three-band capping algorithm, priority-group/high-bucket-first
performance-aware capping, and punish-offender-first coordination
between levels.

Quickstart::

    from repro import (
        DataCenterSpec, Dynamo, FleetDriver, RngStreams,
        ServiceAllocation, SimulationEngine, build_datacenter,
        plan_quotas, populate_fleet,
    )

    engine = SimulationEngine()
    topology = build_datacenter(DataCenterSpec(msb_count=1, sbs_per_msb=1,
                                               rpps_per_sb=2, racks_per_rpp=2))
    plan_quotas(topology)
    rng = RngStreams(seed=42)
    fleet = populate_fleet(topology, [ServiceAllocation("web", 40)], rng)
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("dynamo"))
    FleetDriver(engine, topology, fleet).start()
    dynamo.start()
    engine.run_until(600.0)
"""

from repro.config import ControllerConfig, DynamoConfig, ThreeBandConfig
from repro.core.dynamo import Dynamo
from repro.errors import ReproError
from repro.fleet import Fleet, FleetDriver, ServiceAllocation, populate_fleet
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.oversubscription import plan_quotas
from repro.power.topology import PowerTopology
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams

__version__ = "1.0.0"

__all__ = [
    "ControllerConfig",
    "DataCenterSpec",
    "Dynamo",
    "DynamoConfig",
    "Fleet",
    "FleetDriver",
    "PowerTopology",
    "ReproError",
    "RngStreams",
    "ServiceAllocation",
    "SimulationEngine",
    "ThreeBandConfig",
    "build_datacenter",
    "plan_quotas",
    "populate_fleet",
    "__version__",
]
