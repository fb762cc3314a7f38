"""Build the controller hierarchy mirroring the power topology.

For every power device that needs protection there is a matching
controller instance (Section III-A).  The Facebook deployment configures
RPPs (or PDU breakers) as the leaf controllers and skips rack-level
monitoring (footnote 2), so rack-attached servers roll up to their RPP's
controller: leaves sit at :data:`LEAF_LEVEL`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DynamoConfig
from repro.core.controller import PowerController
from repro.core.leaf_controller import LeafPowerController
from repro.core.priority import PriorityPolicy
from repro.core.upper_controller import UpperLevelPowerController
from repro.errors import ConfigurationError
from repro.power.device import DeviceLevel, PowerDevice
from repro.power.topology import PowerTopology
from repro.rpc.transport import Transport
from repro.telemetry.alerts import AlertSink
from repro.telemetry.tracing import TraceBuffer

#: The level whose devices get leaf controllers (footnote 2).
LEAF_LEVEL = DeviceLevel.RPP


@dataclass
class ControllerHierarchy:
    """All controller instances for one datacenter, indexed by device.

    Values are :class:`~repro.core.controller.PowerController`\\ s: plain
    leaf/upper controllers at build time, possibly
    :class:`~repro.core.failover.FailoverController` pairs after
    :meth:`~repro.core.dynamo.Dynamo.enable_failover` swaps one in.
    """

    leaf_controllers: dict[str, PowerController] = field(default_factory=dict)
    upper_controllers: dict[str, PowerController] = field(default_factory=dict)

    def controller(self, device_name: str) -> PowerController:
        """Controller (leaf or upper) protecting ``device_name``."""
        if device_name in self.leaf_controllers:
            return self.leaf_controllers[device_name]
        if device_name in self.upper_controllers:
            return self.upper_controllers[device_name]
        raise ConfigurationError(f"no controller for device {device_name!r}")

    @property
    def all_controllers(self) -> list[PowerController]:
        """Every controller, leaves first."""
        return list(self.leaf_controllers.values()) + list(
            self.upper_controllers.values()
        )

    @property
    def controller_count(self) -> int:
        """Total controller instances."""
        return len(self.leaf_controllers) + len(self.upper_controllers)


def build_controller_hierarchy(
    topology: PowerTopology,
    transport: Transport,
    *,
    config: DynamoConfig | None = None,
    policy: PriorityPolicy | None = None,
    alerts: AlertSink | None = None,
    tracer: TraceBuffer | None = None,
) -> ControllerHierarchy:
    """Instantiate one controller per device, wired parent-to-children.

    Devices at :data:`LEAF_LEVEL` get :class:`LeafPowerController`
    instances (their subtree's servers become the controller's purview);
    devices above it get :class:`UpperLevelPowerController` instances.
    Devices *below* the leaf level get no controller — the paper's
    skipped racks.
    """
    config = config or DynamoConfig()
    policy = policy or PriorityPolicy()
    alerts = alerts or AlertSink()

    hierarchy = ControllerHierarchy()

    def build(device: PowerDevice) -> PowerController | None:
        if device.level.depth > LEAF_LEVEL.depth:
            return None
        if device.level is LEAF_LEVEL or not device.children:
            server_ids = sorted(device.iter_load_ids())
            leaf = LeafPowerController(
                device,
                server_ids,
                transport,
                config=config.controller,
                policy=policy,
                alerts=alerts,
                tracer=tracer,
            )
            hierarchy.leaf_controllers[device.name] = leaf
            return leaf
        children = [build(child) for child in device.children]
        upper = UpperLevelPowerController(
            device,
            [c for c in children if c is not None],
            config=config.controller,
            alerts=alerts,
            tracer=tracer,
        )
        hierarchy.upper_controllers[device.name] = upper
        return upper

    for root in topology.roots:
        build(root)
    return hierarchy
