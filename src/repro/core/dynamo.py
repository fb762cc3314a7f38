"""The Dynamo facade: attach the whole system to a datacenter and run it.

Wires together everything Section III describes: one agent per server on
a shared RPC fabric, a controller hierarchy mirroring the power topology
(leaves at the RPP level by default), the consolidated coordinator
scheduling all controller cycles, and the agent watchdog.  Experiments
construct a :class:`Dynamo`, call :meth:`start`, and run the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import DynamoConfig
from repro.core.agent import DynamoAgent
from repro.core.agent_batch import AgentBatch
from repro.core.coordinator import ControllerCoordinator
from repro.core.failover import FailoverController
from repro.core.hierarchy import (
    ControllerHierarchy,
    build_controller_hierarchy,
)
from repro.core.health import EndpointHealth, HealthRegistry
from repro.core.leaf_controller import LeafPowerController
from repro.core.upper_controller import UpperLevelPowerController
from repro.core.priority import PriorityPolicy
from repro.core.watchdog import INTERVAL_S as WATCHDOG_INTERVAL_S, AgentWatchdog
from repro.fleet import Fleet
from repro.power.topology import PowerTopology
from repro.rpc.resilient import ResilientTransport
from repro.rpc.transport import FailureInjector, RpcTransport, Transport
from repro.simulation.bulk import collector_held_off
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams
from repro.telemetry.alerts import AlertSink
from repro.telemetry.tracing import TraceBuffer

if TYPE_CHECKING:
    from repro.economics.governor import EconomicGovernor


class Dynamo:
    """A complete Dynamo deployment over one datacenter."""

    @collector_held_off()
    def __init__(
        self,
        engine: SimulationEngine,
        topology: PowerTopology,
        fleet: Fleet,
        *,
        config: DynamoConfig | None = None,
        policy: PriorityPolicy | None = None,
        rng_streams: RngStreams | None = None,
        injector: FailureInjector | None = None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.fleet = fleet
        self.config = config or DynamoConfig()
        self.policy = policy or PriorityPolicy()
        self.alerts = AlertSink()
        #: Shared per-tick trace ring for every controller in the
        #: deployment (the ``repro trace`` / chaos-scorecard feed).
        self.traces = TraceBuffer()
        rng_streams = rng_streams or RngStreams(0)
        self.transport = RpcTransport(
            rng_streams.stream("rpc"), injector=injector
        )
        resilience = self.config.resilience
        #: Per-endpoint success/failure/latency history plus quarantine
        #: policy, fed by the resilient transport.
        self.health = HealthRegistry(
            quarantine_after_opens=resilience.quarantine_after_opens
        )
        self.resilient_transport: ResilientTransport | None = None
        #: What controllers call through: the resilience layer (deadline,
        #: retries, breakers) when enabled, the raw fabric otherwise.
        #: Agents always register on the raw transport — registration is
        #: pass-through either way.
        self.controller_transport: Transport = self.transport
        if resilience.enabled:
            self.resilient_transport = ResilientTransport(
                self.transport,
                max_attempts=resilience.max_attempts,
                health=self.health,
                rng=rng_streams.stream("rpc.resilience"),
                clock=engine.clock,
            )
            self.controller_transport = self.resilient_transport
        self.agents: dict[str, DynamoAgent] = {
            server_id: DynamoAgent(server, self.transport, clock=engine.clock)
            for server_id, server in fleet.servers.items()
        }
        #: The batched control plane, attached by :meth:`start` when the
        #: fleet has a vectorized stepper; None on the per-object
        #: reference.
        self.agent_batch: AgentBatch | None = None
        #: The economic governor, when one is attached
        #: (:class:`~repro.economics.governor.EconomicGovernor` sets
        #: this at construction); None for plain deployments.
        self.economics: EconomicGovernor | None = None
        self.hierarchy: ControllerHierarchy = build_controller_hierarchy(
            topology,
            self.controller_transport,
            config=self.config,
            policy=self.policy,
            alerts=self.alerts,
            tracer=self.traces,
        )
        self.coordinator = ControllerCoordinator(engine, self.hierarchy)
        self.watchdog = AgentWatchdog(engine, list(self.agents.values()))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start all controller cycles and the watchdog.

        A fleet stepped by the vectorized stepper gets the batched
        control plane here (see :meth:`enable_vectorized_control`), so
        every deployment built on it runs the array lane.
        """
        if self.fleet.stepper is not None:
            self._attach_batch(self.fleet.stepper)
        self.coordinator.start()
        self.watchdog.start(phase=WATCHDOG_INTERVAL_S)

    def stop(self) -> None:
        """Stop all periodic activity."""
        self.coordinator.stop()
        self.watchdog.stop()

    # ------------------------------------------------------------------
    # Vectorized control plane
    # ------------------------------------------------------------------

    def enable_vectorized_control(self, driver) -> AgentBatch:
        """Put the control plane on the batched fast path now.

        :meth:`start` does this for any fleet with a vectorized stepper;
        calling it earlier only moves the cost ahead of the start.
        Packs per-agent state into an :class:`AgentBatch` aligned with
        the fleet driver's vectorized stepper, attaches it to the raw
        transport (enabling the group broadcast dispatch) and to every
        leaf controller instance, including both halves of failover
        pairs.  Idempotent per deployment.  A driver without a stepper
        (the per-object reference) is refused.
        """
        stepper = getattr(driver, "stepper", None)
        if stepper is None:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "vectorized control requires the vectorized physics "
                "backend (no stepper on this fleet driver)"
            )
        return self._attach_batch(stepper)

    def _attach_batch(self, stepper) -> AgentBatch:
        if self.agent_batch is not None:
            return self.agent_batch
        batch = AgentBatch(self.agents, stepper)
        self.agent_batch = batch
        self.transport.attach_batch(batch)
        for instance in self._controller_instances():
            if isinstance(instance, LeafPowerController):
                instance.attach_control_batch(batch)
        return batch

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------

    def enable_failover(self, device_name: str) -> FailoverController:
        """Wrap one controller in a primary/backup pair (Section III-E).

        Builds a backup instance of the controller protecting
        ``device_name``, wraps primary and backup in a
        :class:`FailoverController`, and swaps the pair into the
        hierarchy, its parent's child list, and the coordinator's tick
        dispatch.  Idempotent: a second call returns the existing pair.
        """
        existing = self.hierarchy.controller(device_name)
        if isinstance(existing, FailoverController):
            return existing
        if device_name in self.hierarchy.leaf_controllers:
            primary = self.hierarchy.leaf_controllers[device_name]
            assert isinstance(primary, LeafPowerController)
            backup = LeafPowerController(
                primary.device,
                primary.server_ids,
                self.controller_transport,
                config=self.config.controller,
                policy=self.policy,
                alerts=self.alerts,
                tracer=self.traces,
            )
            if self.agent_batch is not None:
                backup.attach_control_batch(self.agent_batch)
            pair = FailoverController(primary, backup)
            self.hierarchy.leaf_controllers[device_name] = pair
        else:
            primary = self.hierarchy.upper_controllers[device_name]
            assert isinstance(primary, UpperLevelPowerController)
            backup = UpperLevelPowerController(
                primary.device,
                primary.children,
                config=self.config.controller,
                alerts=self.alerts,
                tracer=self.traces,
            )
            pair = FailoverController(primary, backup)
            self.hierarchy.upper_controllers[device_name] = pair
        self._replace_in_parents(device_name, pair)
        self.coordinator.replace_controller(device_name, pair)
        return pair

    def _replace_in_parents(self, device_name: str, pair) -> None:
        """Point every parent controller's child entry at the pair."""
        for upper in self.hierarchy.upper_controllers.values():
            for instance in (
                (upper.primary, upper.backup)
                if isinstance(upper, FailoverController)
                else (upper,)
            ):
                children = getattr(instance, "children", [])
                for i, child in enumerate(children):
                    if child.name == device_name and child is not pair:
                        children[i] = pair

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def endpoint_health(self) -> dict[str, EndpointHealth]:
        """Every called endpoint's health record, in endpoint order.

        Successes served on the batched fast lane wait in
        ``AgentBatch.fast_successes`` until their endpoint leaves that
        lane.  They are folded into copies of the records here rather
        than materialized, so reading health never changes the state a
        snapshot captures.
        """
        batch = self.agent_batch
        pending = {} if batch is None else batch.pending_successes()
        return self.health.with_pending(pending)

    def controller(self, device_name: str):
        """The controller protecting one device."""
        return self.hierarchy.controller(device_name)

    def set_band_config(self, device_name: str, band_config) -> None:
        """Override one controller's three-band thresholds.

        The paper: "we can configure the capping and uncapping
        thresholds on a per-controller basis enabling customizable
        trade-offs between power-efficiency and performance at
        different levels of the power delivery hierarchy."  Routed
        through :meth:`~repro.core.controller.BaseController.replace_band`,
        which carries capping state over so a live controller does not
        lose track of caps it has in force — and which a
        :class:`FailoverController` forwards to both primary and backup.
        """
        self.hierarchy.controller(device_name).replace_band(band_config)

    def leaf_controller(self, device_name: str):
        """The leaf controller for one leaf device."""
        return self.hierarchy.leaf_controllers[device_name]

    def controllers_by_suite(self) -> dict[int, list[str]]:
        """Controller names grouped by suite (room).

        In production all controllers for a suite consolidate into one
        binary (~100 threads); this grouping is how a deployment would
        shard the hierarchy across those binaries.  Devices without a
        suite tag land in group -1.
        """
        groups: dict[int, list[str]] = {}
        for controller in self.hierarchy.all_controllers:
            suite = controller.device.suite
            groups.setdefault(-1 if suite is None else suite, []).append(
                controller.name
            )
        return {suite: sorted(names) for suite, names in groups.items()}

    def _controller_instances(self):
        """Every concrete controller instance (both halves of a pair)."""
        for controller in self.hierarchy.all_controllers:
            if isinstance(controller, FailoverController):
                yield controller.primary
                yield controller.backup
            else:
                yield controller

    def operating_modes(self) -> dict[str, str]:
        """Current operating posture per controller (active instance)."""
        modes: dict[str, str] = {}
        for controller in self.hierarchy.all_controllers:
            instance = (
                controller.active
                if isinstance(controller, FailoverController)
                else controller
            )
            machine = getattr(instance, "modes", None)
            if machine is not None:
                modes[controller.name] = machine.mode.value
        return modes

    def safe_mode_entries(self) -> int:
        """SAFE-mode entries across every controller instance."""
        return sum(
            machine.safe_entries
            for machine in (
                getattr(i, "modes", None) for i in self._controller_instances()
            )
            if machine is not None
        )

    def degraded_mode_entries(self) -> int:
        """DEGRADED-mode entries across every controller instance."""
        return sum(
            machine.degraded_entries
            for machine in (
                getattr(i, "modes", None) for i in self._controller_instances()
            )
            if machine is not None
        )

    def sensor_degraded_entries(self) -> int:
        """SENSOR_DEGRADED entries across every controller instance."""
        return sum(
            machine.sensor_degraded_entries
            for machine in (
                getattr(i, "modes", None) for i in self._controller_instances()
            )
            if machine is not None
        )

    def time_in_sensor_degraded_s(self, now_s: float) -> float:
        """Total time spent in SENSOR_DEGRADED, summed over instances."""
        from repro.core.health import OperatingMode

        return sum(
            machine.time_in_mode_s(OperatingMode.SENSOR_DEGRADED, now_s)
            for machine in (
                getattr(i, "modes", None) for i in self._controller_instances()
            )
            if machine is not None
        )

    def capped_server_count(self) -> int:
        """Servers currently under a RAPL cap, fleet-wide."""
        return len(self.fleet.capped_servers())

    def total_cap_events(self) -> int:
        """Capping activations across all controllers."""
        return sum(c.cap_events for c in self.hierarchy.all_controllers)

    def total_uncap_events(self) -> int:
        """Uncapping activations across all controllers."""
        return sum(c.uncap_events for c in self.hierarchy.all_controllers)

    def __repr__(self) -> str:
        return (
            f"Dynamo(devices={self.topology.device_count}, "
            f"servers={len(self.fleet.servers)}, "
            f"controllers={self.hierarchy.controller_count})"
        )
