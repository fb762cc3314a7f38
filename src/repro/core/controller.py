"""The shared control-cycle pipeline every Dynamo controller runs.

The paper's leaf and upper controllers execute the *same* loop — pull
readings, aggregate, run the three-band algorithm against
``min(physical, contractual)``, then actuate — and differ only in what
each stage touches: a leaf senses servers over RPC and actuates RAPL
capping plans; an upper controller senses child-controller aggregations
and actuates contractual limits, punish-offender-first.

:class:`BaseController` owns that skeleton once.  Its :meth:`tick`
template decomposes into four overridable stages::

    sense      -> readings (leaf: RPC broadcast + neighbour estimation;
                  upper: child aggregations), or None when the cycle is
                  invalid (no action this cycle, no false positives)
    aggregate  -> one power number for the protected device
    decide     -> a BandDecision from the pluggable DecisionPolicy
                  (three-band by default, PI for studies) against
                  thresholds derived from min(physical, contractual)
    actuate    -> leaf: capping-plan fan-out; upper: contractual limits

Every tick threads a :class:`~repro.telemetry.tracing.TraceBuilder`
through the stages and lands a finished
:class:`~repro.telemetry.tracing.TickTrace` in the controller's
:class:`~repro.telemetry.tracing.TraceBuffer` — per-tick observability
for the chaos scorecard and the ``repro trace`` CLI.

:class:`PowerController` is the single protocol the whole system
programs against — parents talking to children, the coordinator's tick
dispatch, failover wrapping, and chaos swapping all use this one
surface (it collapses the former ``ChildController`` and
``TickableController`` protocols).
"""

from __future__ import annotations

import abc
import time
from typing import Generic, Protocol, TypeVar, runtime_checkable

from repro.config import ControllerConfig, ThreeBandConfig
from repro.core.health import ModeStateMachine, OperatingMode
from repro.core.three_band import BandAction, BandDecision, ThreeBandController
from repro.core.thresholds import control_thresholds_w
from repro.power.device import PowerDevice
from repro.telemetry.alerts import AlertSink
from repro.telemetry.timeseries import TimeSeries
from repro.telemetry.tracing import TickTrace, TraceBuffer, TraceBuilder

SenseT = TypeVar("SenseT")

#: A cycle whose share of failed pulls (leaf) or silent children (upper)
#: exceeds this is invalid: alert, and take no action (the paper's 20%).
MAX_READING_FAILURE_FRACTION = 0.20


@runtime_checkable
class DecisionPolicy(Protocol):
    """A pluggable capping decision algorithm.

    Both :class:`~repro.core.three_band.ThreeBandController` (the
    paper's shipped algorithm) and
    :class:`~repro.core.pi_controller.PiPowerController` (the
    future-work study) satisfy this.
    """

    config: ThreeBandConfig

    @property
    def capping_active(self) -> bool:
        """Whether caps from this policy are currently in force."""
        ...

    def decide_absolute(
        self,
        aggregated_power_w: float,
        limit_w: float,
        cap_at: float,
        target: float,
        uncap_at: float,
    ) -> BandDecision:
        """Decision against explicitly supplied band thresholds."""
        ...

    def reset(self) -> None:
        """Forget capping state (controller restart)."""
        ...


@runtime_checkable
class PowerController(Protocol):
    """The uniform surface of every controller in the hierarchy.

    Parents hold children behind it, the coordinator ticks through it,
    :class:`~repro.core.failover.FailoverController` wraps it, and chaos
    swapping programs against it.
    """

    @property
    def name(self) -> str:
        """Controller name (the protected device's name)."""
        ...

    @property
    def device(self) -> PowerDevice:
        """The power device the controller protects."""
        ...

    @property
    def config(self) -> ControllerConfig:
        """Controller timing/validity configuration."""
        ...

    @property
    def last_aggregate_power_w(self) -> float | None:
        """Most recent valid power aggregation."""
        ...

    @property
    def contractual_limit_w(self) -> float | None:
        """Limit imposed by the parent controller, if any."""
        ...

    @property
    def effective_limit_w(self) -> float:
        """min(physical limit, contractual limit)."""
        ...

    @property
    def aggregate_series(self) -> TimeSeries:
        """Aggregation time series."""
        ...

    @property
    def cap_events(self) -> int:
        """Capping activations."""
        ...

    @property
    def uncap_events(self) -> int:
        """Uncapping activations."""
        ...

    @property
    def invalid_cycles(self) -> int:
        """Cycles aborted for lack of a valid aggregation."""
        ...

    def tick(self, now_s: float) -> BandAction:
        """Run one control cycle."""
        ...

    def set_contractual_limit_w(self, limit_w: float) -> None:
        """Impose a contractual limit."""
        ...

    def clear_contractual_limit(self) -> None:
        """Release the contractual limit."""
        ...

    def replace_band(self, band_config: ThreeBandConfig) -> None:
        """Swap band thresholds, preserving capping state."""
        ...


class BaseController(abc.ABC, Generic[SenseT]):
    """Common state and the sense→aggregate→decide→actuate template.

    Subclasses implement the four stages; everything else — contractual
    limits, effective-limit arithmetic, the decision policy, telemetry
    series, cap/uncap/invalid counters, alert plumbing, and per-tick
    tracing — lives here exactly once.
    """

    #: Stage label recorded in every trace ("leaf" / "upper").
    KIND = "controller"

    def __init__(
        self,
        device: PowerDevice,
        *,
        config: ControllerConfig | None = None,
        alerts: AlertSink | None = None,
        band: DecisionPolicy | None = None,
        tracer: TraceBuffer | None = None,
    ) -> None:
        self.device = device
        self.config = config or ControllerConfig()
        self.alerts = alerts or AlertSink()
        # The decision policy is pluggable: the paper's three-band
        # algorithm by default, or e.g. the PI policy for studies.
        self.band: DecisionPolicy = band or ThreeBandController(
            self.config.three_band
        )
        # NOT `tracer or ...`: an empty shared TraceBuffer is falsy.
        self.tracer = TraceBuffer() if tracer is None else tracer
        # Operating posture (NORMAL → DEGRADED → SAFE) driven by
        # consecutive invalid cycles; see repro.core.health.
        self.modes = ModeStateMachine(
            self.config.mode, name=self.name, alerts=self.alerts
        )
        self._contractual_limit_w: float | None = None
        self._last_aggregate_w: float | None = None
        # Telemetry for experiments.
        self.aggregate_series = TimeSeries(f"{device.name}.aggregate")
        self.cap_events = 0
        self.uncap_events = 0
        self.invalid_cycles = 0

    # ------------------------------------------------------------------
    # Parent-controller interface (uniform across the hierarchy)
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Controller name (the protected device's name)."""
        return self.device.name

    @property
    def last_aggregate_power_w(self) -> float | None:
        """Most recent valid power aggregation, or None before the first."""
        return self._last_aggregate_w

    @property
    def contractual_limit_w(self) -> float | None:
        """Limit imposed by the parent controller, if any."""
        return self._contractual_limit_w

    def set_contractual_limit_w(self, limit_w: float) -> None:
        """Parent imposes a (tighter) limit on this subtree."""
        self._contractual_limit_w = float(limit_w)

    def clear_contractual_limit(self) -> None:
        """Parent releases its contractual limit."""
        self._contractual_limit_w = None

    @property
    def effective_limit_w(self) -> float:
        """min(physical limit, contractual limit)."""
        if self._contractual_limit_w is None:
            return self.device.rated_power_w
        return min(self.device.rated_power_w, self._contractual_limit_w)

    def replace_band(self, band_config: ThreeBandConfig) -> None:
        """Install a fresh three-band policy with the given thresholds.

        The paper: "we can configure the capping and uncapping
        thresholds on a per-controller basis enabling customizable
        trade-offs between power-efficiency and performance at different
        levels of the power delivery hierarchy."  Capping state carries
        over so a live controller does not lose track of caps it has in
        force.
        """
        self.band = ThreeBandController(
            band_config, capping_active=self.band.capping_active
        )

    @property
    def last_trace(self) -> TickTrace | None:
        """The most recent tick trace for this controller, if retained."""
        return self.tracer.last_trace(self.name)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable controller state; subclasses extend the dict.

        Covers everything the template mutates: decision-policy
        hysteresis, operating posture, contractual limit, the last
        aggregation and its series, and the event counters.  The shared
        trace ring is captured once at the deployment level, not per
        controller.
        """
        band_state = None
        if hasattr(self.band, "snapshot_state"):
            band_state = self.band.snapshot_state()
        return {
            "band": band_state,
            "modes": self.modes.snapshot_state(),
            "contractual_limit_w": self._contractual_limit_w,
            "last_aggregate_w": self._last_aggregate_w,
            "aggregate_series": self.aggregate_series.snapshot_state(),
            "cap_events": self.cap_events,
            "uncap_events": self.uncap_events,
            "invalid_cycles": self.invalid_cycles,
        }

    def restore_state(self, state: dict) -> None:
        """Restore template-owned state in place; subclasses extend."""
        if state["band"] is not None and hasattr(self.band, "restore_state"):
            self.band.restore_state(state["band"])
        self.modes.restore_state(state["modes"])
        limit = state["contractual_limit_w"]
        self._contractual_limit_w = None if limit is None else float(limit)
        aggregate = state["last_aggregate_w"]
        self._last_aggregate_w = (
            None if aggregate is None else float(aggregate)
        )
        self.aggregate_series.restore_state(state["aggregate_series"])
        self.cap_events = int(state["cap_events"])
        self.uncap_events = int(state["uncap_events"])
        self.invalid_cycles = int(state["invalid_cycles"])

    # ------------------------------------------------------------------
    # The control cycle template
    # ------------------------------------------------------------------

    def tick(self, now_s: float) -> BandAction:
        """One control cycle; returns the action taken."""
        trace = TraceBuilder(time_s=now_s, controller=self.name, kind=self.KIND)
        t0 = time.perf_counter()
        sensed = self.sense(now_s, trace)
        t1 = time.perf_counter()
        trace.sense_duration_s = t1 - t0
        if sensed is None:
            # Invalid cycle: no aggregate, no action — no false positives.
            self.invalid_cycles += 1
            trace.valid = False
            trace.action = BandAction.HOLD.value
            trace.effective_limit_w = self.effective_limit_w
            mode = self.modes.record_invalid_cycle(now_s)
            trace.mode = mode.value
            if mode is OperatingMode.SAFE:
                # Flying blind for too long: cap conservatively at the
                # capping target rather than trusting stale limits.
                self.apply_fail_safe(now_s, trace)
            self.tracer.record(trace.finish())
            return BandAction.HOLD
        previous_mode = self.modes.mode
        if trace.disaggregated:
            # The cycle was carried by the disaggregation estimator:
            # usable but not healthy — enter/hold SENSOR_DEGRADED.
            mode = self.modes.record_degraded_sensing_cycle(now_s)
        else:
            mode = self.modes.record_valid_cycle(now_s)
        trace.mode = mode.value
        if previous_mode is OperatingMode.SAFE and mode is not OperatingMode.SAFE:
            self.release_fail_safe(now_s)
        aggregate = self.aggregate(sensed, now_s, trace)
        self._last_aggregate_w = aggregate
        self.aggregate_series.append(now_s, aggregate)
        t2 = time.perf_counter()
        trace.aggregate_duration_s = t2 - t1
        decision = self.decide(aggregate, trace)
        t3 = time.perf_counter()
        trace.decide_duration_s = t3 - t2
        self.actuate(decision, sensed, now_s, trace)
        trace.actuate_duration_s = time.perf_counter() - t3
        if decision.action is BandAction.CAP:
            self.cap_events += 1
        elif decision.action is BandAction.UNCAP:
            self.uncap_events += 1
        trace.action = decision.action.value
        self.tracer.record(trace.finish())
        return decision.action

    @abc.abstractmethod
    def sense(self, now_s: float, trace: TraceBuilder) -> SenseT | None:
        """Collect this cycle's readings, or None when the cycle is invalid.

        An invalid cycle (too many failed pulls, no child aggregations)
        must raise its own alert; the template accounts it in
        ``invalid_cycles`` and holds.
        """

    @abc.abstractmethod
    def aggregate(
        self, sensed: SenseT, now_s: float, trace: TraceBuilder
    ) -> float:
        """Reduce the readings to one power number for the device."""

    def decide(self, aggregate_w: float, trace: TraceBuilder) -> BandDecision:
        """Run the decision policy against ``min(physical, contractual)``.

        Shared verbatim by every controller level: thresholds switch
        scales by which limit binds (see
        :func:`~repro.core.thresholds.control_thresholds_w`).
        """
        cap_at, target, uncap_at, limit = control_thresholds_w(
            self.band.config, self.device.rated_power_w, self._contractual_limit_w
        )
        if (
            self.modes.mode is not OperatingMode.NORMAL
            and self.band.capping_active
            and aggregate_w < uncap_at
        ):
            # DEGRADED/SENSOR_DEGRADED/SAFE hold last limits: defer the
            # uncap without
            # running the policy, whose hysteresis state must keep the
            # caps accounted for when NORMAL resumes.
            self.modes.record_deferred_uncap()
            decision = BandDecision(
                action=BandAction.HOLD,
                total_power_cut_w=0.0,
                limit_w=limit,
                aggregated_power_w=aggregate_w,
            )
        else:
            decision = self.band.decide_absolute(
                aggregate_w, limit, cap_at, target, uncap_at
            )
        trace.aggregate_w = aggregate_w
        trace.effective_limit_w = limit
        trace.cap_at_w = cap_at
        trace.target_w = target
        trace.uncap_at_w = uncap_at
        trace.cut_requested_w = decision.total_power_cut_w
        return decision

    @abc.abstractmethod
    def actuate(
        self,
        decision: BandDecision,
        sensed: SenseT,
        now_s: float,
        trace: TraceBuilder,
    ) -> None:
        """Carry out the decision (cap fan-out / contractual limits)."""

    # ------------------------------------------------------------------
    # SAFE-posture hooks (overridden where actuation exists)
    # ------------------------------------------------------------------

    def apply_fail_safe(self, now_s: float, trace: TraceBuilder) -> None:
        """Apply a conservative cap at the capping target while SAFE.

        Called on every invalid SAFE tick, so implementations must be
        idempotent.  The default is a no-op for controllers with nothing
        to actuate.
        """

    def release_fail_safe(self, now_s: float) -> None:
        """Withdraw the fail-safe cap on leaving SAFE.

        Implementations must leave any caps the decision policy still
        accounts for in force — only the fail-safe overlay goes.
        """
