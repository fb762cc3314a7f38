"""Fleet construction and simulation driving.

Glues the substrates together: builds servers (platform + workload) under
a power topology, attaches them as device loads, and steps the whole
physical world — servers and breakers — on a fixed interval, underneath
whatever controllers are (or are not) running.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.config import PHYSICS_BACKENDS
from repro.core.coordinator import PRIORITY_FLEET_STEP
from repro.errors import ConfigurationError
from repro.power.device import DeviceLevel, PowerDevice
from repro.power.topology import PowerTopology
from repro.server.platform import HASWELL_2015, ServerPlatform
from repro.server.rapl import RaplModule
from repro.server.server import PlatformTemplate, Server
from repro.server.vectorized import VectorizedFleetStepper
from repro.simulation.bulk import collector_held_off
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import PeriodicProcess
from repro.simulation.rng import RngStreams
from repro.simulation.soa import seq_sum
from repro.workloads.registry import make_workload


@dataclass(frozen=True)
class ServiceAllocation:
    """How many servers of one service to place, and on what hardware."""

    service: str
    count: int
    platform: ServerPlatform = HASWELL_2015
    turbo_enabled: bool = False

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError("service count cannot be negative")


@dataclass
class Fleet:
    """All servers of a deployment, indexed by id.

    Lookups that used to scan every server — ``by_service``,
    ``capped_servers``, ``total_power_w`` — are served from indexes:
    a lazily built service map, a capped set maintained by RAPL
    limit-change listeners, and (on the vectorized backend) a reduction
    over the packed power array.  The indexes guard on fleet size so
    worlds that assemble ``servers`` by direct dict assignment stay
    correct; they are rebuilt on the first query after membership
    changes.
    """

    servers: dict[str, Server] = field(default_factory=dict)

    # Index state (plain class attributes, not dataclass fields).
    _service_index = None
    _service_index_len = -1
    _capped_ids = None
    _capped_ids_len = -1
    #: The vectorized stepper stepping this fleet, set by its
    #: :class:`FleetDriver`; None on the per-object reference.
    stepper = None

    def by_service(self, service: str) -> list[Server]:
        """Servers running one service."""
        index = self._service_index
        if index is None or self._service_index_len != len(self.servers):
            index = {}
            for s in self.servers.values():
                index.setdefault(s.service, []).append(s)
            self._service_index = index
            self._service_index_len = len(self.servers)
        return list(index.get(service, ()))

    def server(self, server_id: str) -> Server:
        """Look up one server."""
        try:
            return self.servers[server_id]
        except KeyError:
            raise ConfigurationError(f"no server {server_id!r}") from None

    @property
    def server_ids(self) -> list[str]:
        """All server identifiers."""
        return list(self.servers)

    def total_power_w(self) -> float:
        """Instantaneous fleet power."""
        if self.stepper is not None and len(self.servers) == self.stepper._n:
            return self.stepper.total_power()
        return seq_sum(s.power_w() for s in self.servers.values())

    def capped_servers(self) -> list[Server]:
        """Servers currently holding a RAPL limit (cap-time order)."""
        capped = self._capped_ids
        if capped is None or self._capped_ids_len != len(self.servers):
            capped = {}
            for sid, s in self.servers.items():
                rapl = s.rapl
                if getattr(rapl, "_fleet_capped_owner", None) is not self:
                    rapl._fleet_capped_owner = self

                    def _hook(r: RaplModule, sid: str = sid) -> None:
                        self._on_limit_change(sid, r)

                    rapl.add_limit_listener(_hook)
                if rapl.capped:
                    capped[sid] = None
            self._capped_ids = capped
            self._capped_ids_len = len(self.servers)
        return [self.servers[sid] for sid in capped]

    def _on_limit_change(self, server_id: str, rapl: RaplModule) -> None:
        capped = self._capped_ids
        if capped is None:
            return
        if rapl.capped:
            capped[server_id] = None
        else:
            capped.pop(server_id, None)


@collector_held_off()
def populate_fleet(
    topology: PowerTopology,
    allocations: list[ServiceAllocation],
    rng_streams: RngStreams,
    *,
    attach_level: DeviceLevel | None = None,
) -> Fleet:
    """Create servers and attach them round-robin under the topology.

    Servers are attached to devices at ``attach_level`` (default: the
    deepest level present — racks when the topology has them, otherwise
    RPPs), cycling across those devices so every leaf sees a mix of
    services, which is what the paper's rows look like (Figure 15's RPP
    carries web, cache, and feed servers together).
    """
    attach_points = _attach_points(topology, attach_level)
    fleet = Fleet()
    #: One calibration per hardware generation, however many servers.
    templates: dict[ServerPlatform, PlatformTemplate] = {}
    slot = 0
    for allocation in allocations:
        template = templates.get(allocation.platform)
        if template is None:
            template = PlatformTemplate(allocation.platform)
            templates[allocation.platform] = template
        for i in range(allocation.count):
            server_id = f"{allocation.service}-{i:04d}"
            if server_id in fleet.servers:
                raise ConfigurationError(f"duplicate server id {server_id!r}")
            server_rng = rng_streams.stream(f"server.{server_id}")
            workload = make_workload(allocation.service, server_rng)
            server = Server(
                server_id,
                template,
                workload,
                rng=rng_streams.stream(f"sensor.{server_id}"),
                turbo_enabled=allocation.turbo_enabled,
            )
            device = attach_points[slot % len(attach_points)]
            device.attach_load(server_id, server.power_w)
            fleet.servers[server_id] = server
            slot += 1
    return fleet


def _attach_points(
    topology: PowerTopology, attach_level: DeviceLevel | None
) -> list[PowerDevice]:
    if attach_level is not None:
        points = topology.devices_at_level(attach_level)
        if not points:
            raise ConfigurationError(
                f"topology has no devices at level {attach_level.value!r}"
            )
        return points
    racks = topology.devices_at_level(DeviceLevel.RACK)
    if racks:
        return racks
    rpps = topology.devices_at_level(DeviceLevel.RPP)
    if rpps:
        return rpps
    raise ConfigurationError("topology has no rack- or RPP-level devices")


@dataclass(frozen=True)
class BreakerTrip:
    """One breaker trip observed by the driver."""

    time_s: float
    device_name: str
    level: str


class FleetDriver:
    """Steps the physical world: server power dynamics and breakers.

    Runs at a finer interval than the controllers (1 s by default) so
    RAPL settling transients and breaker thermal integration are resolved
    between control cycles.

    Servers are stepped by the vectorized stepper
    (:class:`~repro.server.vectorized.VectorizedFleetStepper`).
    ``physics_backend="scalar"`` steps each server object in turn
    instead: the per-object reference the parity tests compare against.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        topology: PowerTopology,
        fleet: Fleet,
        *,
        step_interval_s: float = 1.0,
        physics_backend: str = "vectorized",
        prefetch_draws: int = 64,
    ) -> None:
        if step_interval_s <= 0:
            raise ConfigurationError("step interval must be positive")
        if physics_backend not in PHYSICS_BACKENDS:
            known = ", ".join(PHYSICS_BACKENDS)
            raise ConfigurationError(
                f"unknown physics backend {physics_backend!r}; known: {known}"
            )
        self._topology = topology
        self._fleet = fleet
        self._dt = step_interval_s
        self.trips: list[BreakerTrip] = []
        #: Wall-clock seconds spent stepping server physics, and spent
        #: observing breakers (the two halves of the per-step barrier;
        #: they feed ``python -m repro profile``'s phase table).
        self.physics_wall_s = 0.0
        self.breakers_wall_s = 0.0
        self._backend = physics_backend
        self._stepper: VectorizedFleetStepper | None = None
        if physics_backend == "vectorized":
            self._stepper = VectorizedFleetStepper(
                fleet, prefetch_draws=prefetch_draws
            )
            self._stepper.bind_device_loads(topology)
            fleet.stepper = self._stepper
        self._process = PeriodicProcess(
            engine,
            step_interval_s,
            self._step,
            label="fleet-driver",
            priority=PRIORITY_FLEET_STEP,
        )

    @property
    def physics_backend(self) -> str:
        """Which stepping implementation this driver uses."""
        return self._backend

    @property
    def stepper(self) -> VectorizedFleetStepper | None:
        """The vectorized stepper, or None on the scalar backend."""
        return self._stepper

    def sync_physics(self) -> None:
        """Flush any speculative RNG prefetch to the logical position.

        Must run before generator states are read externally (snapshot
        capture); a no-op on the scalar backend.
        """
        if self._stepper is not None:
            self._stepper.sync()

    def start(self, phase: float = 0.0) -> None:
        """Begin stepping the world."""
        self._process.start(phase)

    def stop(self) -> None:
        """Stop stepping."""
        self._process.stop()

    def _step(self, now_s: float) -> None:
        t0 = time.perf_counter()
        if self._stepper is not None:
            self._stepper.step(now_s, self._dt)
        else:
            for server in self._fleet.servers.values():
                server.step(now_s, self._dt)
        t1 = time.perf_counter()
        self.physics_wall_s += t1 - t0
        for device in self._topology.observe_breakers(self._dt, now_s):
            self.trips.append(
                BreakerTrip(
                    time_s=now_s,
                    device_name=device.name,
                    level=device.level.value,
                )
            )
        self.breakers_wall_s += time.perf_counter() - t1

    @property
    def tripped(self) -> bool:
        """Whether any breaker has tripped so far."""
        return bool(self.trips)

    @property
    def process(self) -> PeriodicProcess:
        """The stepping schedule (for snapshot capture/re-arming)."""
        return self._process

    def snapshot_state(self) -> dict:
        """Serializable trip history (the schedule is captured apart)."""
        return {
            "trips": [
                {
                    "time_s": t.time_s,
                    "device_name": t.device_name,
                    "level": t.level,
                }
                for t in self.trips
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore trip history in place."""
        self.trips = [
            BreakerTrip(
                time_s=float(t["time_s"]),
                device_name=str(t["device_name"]),
                level=str(t["level"]),
            )
            for t in state["trips"]
        ]
