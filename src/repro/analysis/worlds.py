"""Small synthetic worlds for experiments and tests.

:func:`build_surge_world` creates a deliberately fragile deployment — an
SB with thin headroom over rows of flat-load web servers — plus an
optional surge event, for experiments that compare trip outcomes across
management strategies.
"""

from __future__ import annotations

import numpy as np

from repro.fleet import Fleet
from repro.power.device import DeviceLevel, PowerDevice
from repro.power.oversubscription import plan_quotas
from repro.power.topology import PowerTopology
from repro.server.platform import HASWELL_2015
from repro.server.power_model import PowerModel
from repro.server.server import PlatformTemplate, Server
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams
from repro.workloads.base import StochasticWorkload, WorkloadModifier


class FlatWorkload(StochasticWorkload):
    """Deterministic flat workload with modifier support."""

    def __init__(
        self,
        level: float,
        rng: np.random.Generator,
        service: str = "web",
        *,
        noise_sigma: float = 0.0,
    ) -> None:
        super().__init__(service, rng, noise_sigma=noise_sigma)
        self._level = level

    def base_utilization(self, now_s: float) -> float:
        """The flat demand level."""
        return self._level


def build_surge_world(
    *,
    n_servers: int = 40,
    level: float = 0.6,
    surge: WorkloadModifier | None = None,
    rpp_count: int = 2,
    rpp_rating_w: float | None = None,
    sb_rating_w: float | None = None,
    seed: int = 7,
) -> tuple[SimulationEngine, PowerTopology, Fleet, RngStreams]:
    """An SB with ``rpp_count`` rows of flat-load web servers.

    Default ratings leave ~15% SB headroom over the steady state, so a
    mid-size surge overloads the SB while each RPP keeps ~25% headroom —
    the configuration where coordinated capping matters.

    Returns (engine, topology, fleet, rng_streams); no controllers are
    attached, so callers choose the management strategy.
    """
    rng_streams = RngStreams(seed)
    engine = SimulationEngine()
    fleet = Fleet()
    servers_per_rpp = n_servers // rpp_count
    base_power = PowerModel(HASWELL_2015).power_w(level)
    rpp_rating = rpp_rating_w or base_power * servers_per_rpp * 1.25
    sb_rating = sb_rating_w or base_power * n_servers * 1.15
    msb = PowerDevice("msb0", DeviceLevel.MSB, sb_rating * 4)
    sb = PowerDevice("sb0", DeviceLevel.SB, sb_rating)
    msb.add_child(sb)
    template = PlatformTemplate(HASWELL_2015)
    for r in range(rpp_count):
        rpp = PowerDevice(f"rpp{r}", DeviceLevel.RPP, rpp_rating)
        sb.add_child(rpp)
        for i in range(servers_per_rpp):
            sid = f"s{r}-{i}"
            workload = FlatWorkload(level, rng_streams.stream(f"w.{sid}"))
            if surge is not None:
                workload.add_modifier(surge)
            server = Server(sid, template, workload)
            rpp.attach_load(sid, server.power_w)
            fleet.servers[sid] = server
    topology = PowerTopology("surge-world", [msb])
    plan_quotas(topology)
    return engine, topology, fleet, rng_streams
