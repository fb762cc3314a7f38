"""Request/response records exchanged between controllers and agents."""

from __future__ import annotations

from dataclasses import dataclass

from repro.server.sensor import PowerBreakdown


@dataclass(frozen=True)
class PowerReading:
    """An agent's answer to a power-read request.

    Attributes:
        server_id: the reporting server.
        power_w: total server power in watts.
        breakdown: component breakdown when an on-board sensor provides
            one; None for estimated readings.
        estimated: True when the value came from the agent's estimation
            model rather than a sensor.
        service: the service running on the server (controller metadata).
        time_s: simulation time of the reading.
        confidence: how much the aggregation trusts this value.
            Measured readings carry 1.0; under degraded sensing,
            disaggregation estimates derive theirs from the model's fit
            error.  Anything below
            1.0 contributes uncertainty margin to the inflated
            aggregate (never under-cap).
    """

    server_id: str
    power_w: float
    estimated: bool
    service: str
    time_s: float
    breakdown: PowerBreakdown | None = None
    confidence: float = 1.0


@dataclass(frozen=True)
class CapRequest:
    """A cap (or uncap) command sent to an agent.

    ``limit_w`` of None means uncap.
    """

    server_id: str
    limit_w: float | None


@dataclass(frozen=True)
class CapResponse:
    """Agent's acknowledgement of a cap/uncap command."""

    server_id: str
    success: bool
    message: str = ""
