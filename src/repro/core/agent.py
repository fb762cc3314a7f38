"""The Dynamo agent (Section III-B, Figure 8).

A light-weight request-handler daemon on every server.  It answers two
request types from its leaf controller:

* **power read** — return current power (and breakdown).  Servers with an
  on-board sensor read it; sensor-less servers estimate power on-the-fly
  from CPU utilization through their calibrated model.
* **power cap/uncap** — set or unset the RAPL limit and acknowledge.

Agents hold no policy: all intelligence lives in the controllers.  Agents
never talk to each other, only to controllers.  The platform-specific part
(MSR write vs IPMI node-manager call) is hidden behind the RAPL module,
keeping the agent logic hardware-agnostic (Section VI).
"""

from __future__ import annotations

from typing import Callable

from repro.core.messages import CapRequest, CapResponse, PowerReading
from repro.errors import AgentError, CappingError
from repro.rpc.service import RpcService
from repro.rpc.transport import Transport
from repro.server.server import Server
from repro.simulation.soa import ArraySlot, array_backed


def agent_endpoint(server_id: str) -> str:
    """Transport endpoint name for a server's agent."""
    return f"agent:{server_id}"


class DynamoAgent:
    """Per-server power read / cap / uncap daemon.

    Mutable agent state is array-backable: when an
    :class:`~repro.core.agent_batch.AgentBatch` binds the agent, the
    health flag and request counters live in packed arrays and the
    object becomes a view — the watchdog, chaos faults, and snapshots
    keep reading/writing the same fields either way.
    """

    _soa: ArraySlot | None = None
    _healthy = array_backed("agent_healthy", kind="bool")
    reads_served = array_backed("agent_reads_served", kind="int")
    caps_applied = array_backed("agent_caps_applied", kind="int")
    uncaps_applied = array_backed("agent_uncaps_applied", kind="int")

    SOA_FIELDS = (
        "_healthy",
        "reads_served",
        "caps_applied",
        "uncaps_applied",
    )

    def __init__(
        self,
        server: Server,
        transport: Transport,
        *,
        clock=None,
    ) -> None:
        self.server = server
        self._clock = clock
        self._service = RpcService(transport, agent_endpoint(server.server_id))
        self._service.method("read_power", self._handle_read_power)
        self._service.method("set_cap", self._handle_set_cap)
        self._soa = None
        self._health_listener = None
        self._healthy = True
        self.reads_served = 0
        self.caps_applied = 0
        self.uncaps_applied = 0

    # ------------------------------------------------------------------
    # Health (watchdog interface)
    # ------------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """Whether the agent process is up."""
        return self._healthy

    #: Called with ``(agent, healthy)`` on every crash, restart and
    #: state restore; the watchdog uses it to know whom to sweep
    #: without polling the whole fleet.
    _health_listener: Callable[["DynamoAgent", bool], None] | None = None

    def _set_healthy(self, healthy: bool) -> None:
        self._healthy = healthy
        if self._health_listener is not None:
            self._health_listener(self, healthy)

    def crash(self) -> None:
        """Simulate the agent process dying (fault-injection hook)."""
        self._set_healthy(False)

    def restart(self) -> None:
        """Watchdog restart: the agent resumes serving requests."""
        self._set_healthy(True)

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------

    def _now(self) -> float:
        if self._clock is None:
            return 0.0
        return self._clock.now

    def _handle_read_power(self, _payload) -> PowerReading:
        if not self._healthy:
            raise AgentError(
                f"agent on {self.server.server_id!r} is not running"
            )
        self.reads_served += 1
        true_power = self.server.power_w()
        if self.server.sensor is not None:
            breakdown = self.server.sensor.read_breakdown(true_power)
            return PowerReading(
                server_id=self.server.server_id,
                power_w=breakdown.total_w,
                estimated=False,
                service=self.server.service,
                time_s=self._now(),
                breakdown=breakdown,
            )
        estimate = self.server.estimator.estimate_w(self.server.utilization)
        return PowerReading(
            server_id=self.server.server_id,
            power_w=estimate,
            estimated=True,
            service=self.server.service,
            time_s=self._now(),
        )

    def _handle_set_cap(self, request: CapRequest) -> CapResponse:
        if not self._healthy:
            raise AgentError(
                f"agent on {self.server.server_id!r} is not running"
            )
        try:
            if request.limit_w is None:
                self.server.rapl.clear_limit()
                self.uncaps_applied += 1
            else:
                self.server.rapl.set_limit(request.limit_w)
                self.caps_applied += 1
        except CappingError as exc:
            # The platform cannot enforce the requested limit; clamp to
            # the platform minimum rather than leaving the server
            # uncapped — partial enforcement beats none during an
            # emergency — and report what happened.
            minimum = self.server.platform.effective_min_cap_w()
            self.server.rapl.set_limit(minimum)
            self.caps_applied += 1
            return CapResponse(
                server_id=self.server.server_id,
                success=False,
                message=f"clamped to platform minimum: {exc}",
            )
        return CapResponse(server_id=self.server.server_id, success=True)

    def shutdown(self) -> None:
        """Deregister from the transport (decommission)."""
        self._service.shutdown()

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable agent health and request counters."""
        return {
            "healthy": self._healthy,
            "reads_served": self.reads_served,
            "caps_applied": self.caps_applied,
            "uncaps_applied": self.uncaps_applied,
        }

    def restore_state(self, state: dict) -> None:
        """Restore agent health and request counters in place."""
        self._set_healthy(bool(state["healthy"]))
        self.reads_served = int(state["reads_served"])
        self.caps_applied = int(state["caps_applied"])
        self.uncaps_applied = int(state["uncaps_applied"])
