"""The leaf power controller (Section III-C).

One per leaf power device (an RPP or PDU breaker in the Facebook
deployment).  Every 3 s it runs the shared control-cycle pipeline
(:class:`~repro.core.controller.BaseController`) with leaf-specific
stages:

1. **sense** — broadcasts power-pull RPCs to all downstream agents.
   Failed pulls are estimated from neighbouring servers running the same
   service (falling back to the last known reading, then to service
   metadata).  If more than 20% of pulls fail, the aggregation is
   invalid: the controller raises a human-intervention alert and takes
   no action this cycle (no false positives).  With the disaggregation
   estimator enabled (``ControllerConfig.estimation``), that hard abort
   softens: down to the ``SAFE_COVERAGE`` floor the dark servers are
   reconstructed from the device-metering residual
   (:mod:`repro.estimation`), the cycle proceeds in the
   SENSOR_DEGRADED posture, and the aggregate is inflated by the
   estimates' uncertainty so capping can only err conservative.
2. **aggregate** — sums the readings plus fixed overhead and monitored
   non-server components.
3. **decide** (shared) — the three-band algorithm against the device's
   effective limit: the minimum of the physical breaker limit and any
   contractual limit imposed by its parent controller.
4. **actuate** — distributes the total-power-cut across priority groups
   (lowest first) and within groups high-bucket-first, then sends
   per-server cap requests.  Uncap sends clear-limit requests to every
   server it capped.

Non-server loads on the same breaker (top-of-rack switches) are accounted
through the device's ``fixed_overhead_w`` — pulled directly when a reading
exists, estimated otherwise, exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.config import ControllerConfig
from repro.core.capping_plan import CappingPlan, build_capping_plan
from repro.core.controller import (
    MAX_READING_FAILURE_FRACTION,
    BaseController,
    DecisionPolicy,
)
from repro.core.health import OperatingMode
from repro.core.messages import CapRequest, CapResponse, PowerReading
from repro.core.priority import PriorityPolicy
from repro.core.three_band import BandAction, BandDecision
from repro.core.thresholds import control_thresholds_w
from repro.errors import RpcError
from repro.estimation.disaggregator import (
    SAFE_COVERAGE,
    PowerDisaggregator,
    uncertainty_margin_w,
)
from repro.power.device import PowerDevice
from repro.rpc.transport import Transport
from repro.server.sensor import PowerSensor
from repro.simulation.soa import seq_sum
from repro.telemetry.alerts import AlertSink, Severity
from repro.telemetry.timeseries import TimeSeries
from repro.telemetry.tracing import TraceBuffer, TraceBuilder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent_batch import AgentBatch


class BatchedSense:
    """One cycle's sensed powers in packed form.

    What sense hands to aggregate and actuate: ``values``/``success_mask``
    hold per-position sensed powers (position = index into the
    controller's ``server_ids``), while estimated readings stay
    materialized (they are few).  Readings that arrived through a
    per-call RPC (no batch attached, or an endpoint off the batched fast
    lane) are kept as received in ``scalar_readings``.
    :meth:`readings` materializes the full list — successes by broadcast
    position, then estimated — which actuation's capping planner
    consumes.
    """

    __slots__ = (
        "controller",
        "now_s",
        "values",
        "success_mask",
        "scalar_readings",
        "estimated",
    )

    def __init__(
        self,
        controller: "LeafPowerController",
        now_s: float,
        values: np.ndarray,
        success_mask: np.ndarray,
        scalar_readings: dict[int, PowerReading],
        estimated: list[PowerReading],
    ) -> None:
        self.controller = controller
        self.now_s = now_s
        self.values = values
        self.success_mask = success_mask
        self.scalar_readings = scalar_readings
        self.estimated = estimated

    def total_power_w(self) -> float:
        """Sum of all sensed powers, bitwise-equal to ``seq_sum``.

        Left-to-right accumulation in :meth:`readings` order via cumsum
        (seeded implicitly at 0.0: ``0.0 + x == x`` for the non-negative
        powers involved).
        """
        parts = np.concatenate(
            (
                self.values[self.success_mask],
                [r.power_w for r in self.estimated],
            )
        )
        if parts.size == 0:
            return 0.0
        return float(np.cumsum(parts)[-1])

    def readings(self) -> list[PowerReading]:
        """Materialize the reading list (the capping planner's input)."""
        controller = self.controller
        out: list[PowerReading] = []
        for p in np.flatnonzero(self.success_mask):
            p = int(p)
            reading = self.scalar_readings.get(p)
            if reading is None:
                power = float(self.values[p])
                reading = PowerReading(
                    server_id=controller.server_ids[p],
                    power_w=power,
                    estimated=False,
                    service=controller._pos_service[p],
                    time_s=self.now_s,
                    breakdown=PowerSensor.breakdown_from_total(power),
                )
            out.append(reading)
        out.extend(self.estimated)
        return out


@dataclass(frozen=True)
class NonServerComponent:
    """A non-server load sharing the breaker (e.g. a ToR switch).

    The controller pulls power directly from the component when a
    ``source`` is available and falls back to ``estimate_w`` when not —
    exactly the paper's rule for non-server components.  Components are
    monitored, never capped.
    """

    name: str
    source: Callable[[], float] | None = None
    estimate_w: float = 0.0

    def power_w(self) -> float:
        """Current reading, or the static estimate."""
        if self.source is not None:
            return self.source()
        return self.estimate_w


class LeafPowerController(BaseController[BatchedSense]):
    """Monitors and protects one leaf power device."""

    KIND = "leaf"

    def __init__(
        self,
        device: PowerDevice,
        server_ids: list[str],
        transport: Transport,
        *,
        config: ControllerConfig | None = None,
        policy: PriorityPolicy | None = None,
        alerts: AlertSink | None = None,
        endpoint_prefix: str = "agent:",
        band: DecisionPolicy | None = None,
        tracer: TraceBuffer | None = None,
    ) -> None:
        super().__init__(
            device, config=config, alerts=alerts, band=band, tracer=tracer
        )
        self.server_ids = list(server_ids)
        self._transport = transport
        self.policy = policy or PriorityPolicy()
        self._endpoint_prefix = endpoint_prefix
        # Broadcast endpoints are rebuilt only when membership changes.
        self._endpoint_cache: list[str] = []
        self._endpoint_cache_key: tuple[str, ...] | None = None
        self._capped_servers: dict[str, float] = {}
        self._fail_safe_engaged = False
        # Disaggregation estimator (degraded-sensing subsystem).  Public
        # so the attribution CLI and serve views can inspect the fitted
        # models; None when estimation is disabled in config.
        self.estimator: PowerDisaggregator | None = (
            PowerDisaggregator() if self.config.estimation.enabled else None
        )
        # Device-metered total stashed at sense time on disaggregated
        # cycles, so aggregate() can report the signed estimation error
        # against the simulated ground truth.
        self._cycle_metered_w = 0.0
        # The most recent successful sense result, for per-service
        # attribution of the last cycle including disaggregated
        # readings.
        self._last_sensed: BatchedSense | None = None
        self._components: list[NonServerComponent] = []
        self._actuation_successes = 0
        self._actuation_failures = 0
        self.capped_count_series = TimeSeries(f"{device.name}.capped")
        # The batched control plane (attach_control_batch); None in unit
        # tests and the per-object reference, where sense broadcasts.
        self._batch: "AgentBatch | None" = None
        # The last-known-good reading cache and each position's service,
        # in arrays aligned with server_ids (position = broadcast order).
        # A service code of -1 means not yet known: the batch supplies
        # every service, otherwise a position's first reading does.
        n = len(self.server_ids)
        self._pos_of_server = {
            server_id: p for p, server_id in enumerate(self.server_ids)
        }
        self._pos_service: list[str] = ["unknown"] * n
        self._svc_codes = np.full(n, -1, dtype=np.int64)
        self._svc_code_of: dict[str, int] = {}
        self._last_power = np.zeros(n)
        self._last_time = np.zeros(n)
        self._last_est = np.zeros(n, dtype=bool)
        self._last_has = np.zeros(n, dtype=bool)

    def attach_control_batch(self, batch: "AgentBatch") -> None:
        """Sense and actuate through the batch's group entry points.

        The batch knows every server's service, so each position's
        service is recorded now rather than from its first reading.
        """
        self._batch = batch
        self._pos_service = [
            batch.services[batch.row_for_server_id[server_id]]
            for server_id in self.server_ids
        ]
        code_of = self._svc_code_of
        self._svc_codes = np.array(
            [
                code_of.setdefault(service, len(code_of))
                for service in self._pos_service
            ],
            dtype=np.int64,
        )

    def _record_service(self, p: int, service: str) -> None:
        """Record the service running at position ``p``."""
        self._pos_service[p] = service
        self._svc_codes[p] = self._svc_code_of.setdefault(
            service, len(self._svc_code_of)
        )

    def _cached_reading(self, p: int) -> PowerReading:
        """Materialize the cached reading at position ``p``.

        Breakdowns are deterministic functions of the sensed total, so a
        cached (power, estimated, time) triple reconstructs the original
        reading exactly: sensored readings get the standard split,
        estimated ones never carry a breakdown.
        """
        power = float(self._last_power[p])
        estimated = bool(self._last_est[p])
        return PowerReading(
            server_id=self.server_ids[p],
            power_w=power,
            estimated=estimated,
            service=self._pos_service[p],
            time_s=float(self._last_time[p]),
            breakdown=(
                None if estimated else PowerSensor.breakdown_from_total(power)
            ),
        )

    @property
    def capped_server_ids(self) -> list[str]:
        """Servers currently holding a cap from this controller."""
        return list(self._capped_servers)

    def _endpoints(self) -> list[str]:
        """Downstream agent endpoints, cached until membership changes."""
        key = tuple(self.server_ids)
        if key != self._endpoint_cache_key:
            self._endpoint_cache = [self._endpoint_prefix + s for s in key]
            self._endpoint_cache_key = key
        return self._endpoint_cache

    def add_component(self, component: NonServerComponent) -> None:
        """Register a monitored non-server load on this breaker."""
        self._components.append(component)

    @property
    def components(self) -> list[NonServerComponent]:
        """Monitored non-server components."""
        return list(self._components)

    # ------------------------------------------------------------------
    # Stage 1: power pulling with failure estimation
    # ------------------------------------------------------------------

    def sense(self, now_s: float, trace: TraceBuilder) -> BatchedSense | None:
        """Pull every agent; estimate failures; None when >20% failed.

        With a batch attached the pull is one group read (per-call RPC
        only for endpoints off the fast lane); otherwise, or when the
        whole group falls back (e.g. global fault rates armed), it is a
        sequential broadcast.
        """
        group = None
        if self._batch is not None:
            group_read = getattr(self._transport, "group_read_power", None)
            if group_read is not None:
                group = group_read(self._endpoints())
        if group is None:
            results, failures = self._transport.broadcast(
                self._endpoints(), "read_power", None
            )
        else:
            results, failures = group.results, group.failures
        n = len(self.server_ids)
        trace.pulls_attempted = n
        trace.pulls_failed = len(failures)
        prefix_len = len(self._endpoint_prefix)
        unresolved = [
            self._pos_of_server[endpoint[prefix_len:]] for endpoint in failures
        ]
        if n:
            trace.coverage_fraction = 1.0 - len(unresolved) / n
        over_threshold = bool(n) and (
            len(unresolved) / n > MAX_READING_FAILURE_FRACTION
        )
        if over_threshold and not self._can_disaggregate(
            trace.coverage_fraction
        ):
            self._raise_aggregation_invalid(now_s, len(unresolved))
            return None
        if group is not None:
            values = group.powers
            success = group.fast_mask.copy()
        else:
            values = np.zeros(n)
            success = np.zeros(n, dtype=bool)
        scalar_readings: dict[int, PowerReading] = {}
        for reading in results.values():
            p = self._pos_of_server[reading.server_id]
            if self._svc_codes[p] < 0:
                self._record_service(p, reading.service)
            values[p] = reading.power_w
            success[p] = True
            scalar_readings[p] = reading
            self._last_power[p] = reading.power_w
            self._last_time[p] = reading.time_s
            self._last_est[p] = reading.estimated
            self._last_has[p] = True
        if group is not None:
            fast = group.fast_mask
            self._last_power[fast] = group.powers[fast]
            self._last_time[fast] = now_s
            self._last_est[fast] = False
            self._last_has[fast] = True
        if self.estimator is not None:
            # Healthy (or merely below-threshold) cycle: fit the
            # per-service models from the live measurements, in broadcast
            # position order, so they are ready the moment sensing
            # collapses.  Reads values only — no RNG, no reading
            # mutation — so enabling estimation leaves healthy cycles
            # bit-identical.
            self.estimator.observe_cycle(
                (
                    self.server_ids[p],
                    float(values[p]),
                    self._pos_service[p],
                )
                for p in map(int, np.flatnonzero(success))
            )
        if over_threshold:
            estimated = self._disaggregate(
                values, success, unresolved, now_s, trace
            )
        else:
            estimated = [
                self._estimate_failed(p, values, success, now_s)
                for p in unresolved
            ]
            trace.pulls_estimated = len(unresolved)
        sensed = BatchedSense(
            self, now_s, values, success, scalar_readings, estimated
        )
        self._last_sensed = sensed
        return sensed

    def last_cycle_readings(self) -> list[PowerReading]:
        """The latest cycle's full reading set, any provenance.

        Measured and estimated/disaggregated readings alike — the
        attribution CLI's input.  Falls back to the
        last-known-good cache before the first successful cycle.
        """
        if self._last_sensed is None:
            return [reading for _, reading in self._iter_last_readings()]
        return self._last_sensed.readings()

    def _can_disaggregate(self, coverage_fraction: float) -> bool:
        """Whether the estimator can carry this over-threshold cycle."""
        return (
            self.estimator is not None
            and coverage_fraction >= SAFE_COVERAGE
        )

    def _raise_aggregation_invalid(self, now_s: float, unresolved: int) -> None:
        """The paper's abort-and-alert rule."""
        self.alerts.raise_alert(
            now_s,
            Severity.CRITICAL,
            self.name,
            f"power aggregation invalid: {unresolved}/"
            f"{len(self.server_ids)} pulls failed; human intervention "
            "required",
        )

    def _disaggregate(
        self,
        values: np.ndarray,
        success: np.ndarray,
        unresolved: list[int],
        now_s: float,
        trace: TraceBuilder,
    ) -> list[PowerReading]:
        """Over-threshold cycle carried by the disaggregation estimator.

        Live measurements were consumed as usual (and still trained the
        models); the dark remainder is reconstructed by distributing the
        device-metering residual across dark servers in proportion to
        the fitted models (:meth:`PowerDisaggregator.disaggregate`).
        The estimates sum to the residual by construction, so the
        un-inflated aggregate tracks the metered total.  The measured
        sum is a left-to-right cumsum over successes in broadcast
        position order.
        """
        estimator = self.estimator
        assert estimator is not None
        parts = values[success]
        measured_sum = float(np.cumsum(parts)[-1]) if parts.size else 0.0
        dark: list[tuple[str, str]] = []
        for p in unresolved:
            service = self._pos_service[p] if self._last_has[p] else "unknown"
            dark.append((self.server_ids[p], service))
        residual_w, metered_w = self._metering_residual_w(measured_sum)
        estimated = [
            PowerReading(
                server_id=estimate.server_id,
                power_w=estimate.power_w,
                estimated=True,
                service=estimate.service,
                time_s=now_s,
                confidence=estimate.confidence,
            )
            for estimate in estimator.disaggregate(residual_w, dark)
        ]
        trace.pulls_estimated = len(unresolved)
        trace.disaggregated = len(unresolved)
        self._cycle_metered_w = metered_w
        return estimated

    def _metering_residual_w(self, measured_sum: float) -> tuple[float, float]:
        """(residual to distribute over dark servers, metered device total).

        The residual is the device/breaker metering minus fixed overhead,
        monitored components, and every measured server —
        i.e. exactly the dark servers' combined draw in the simulated
        world.  Clamped at zero: metering drift must never produce
        negative server estimates.
        """
        metered_w = self.device.power_w()
        residual_w = (
            metered_w
            - self.device.fixed_overhead_w
            - seq_sum(c.power_w() for c in self._components)
            - measured_sum
        )
        return max(residual_w, 0.0), metered_w

    def _estimate_failed(
        self,
        p: int,
        values: np.ndarray,
        success: np.ndarray,
        now_s: float,
    ) -> PowerReading:
        """Estimate one unresolved pull.

        From neighbouring servers running the same service (the paper's
        primary fallback), else the last known reading, else a
        conservative generic 200 W draw.  The neighbour mean is a
        left-to-right cumsum over successes in broadcast position order
        divided by the count, bitwise-equal to ``seq_sum(list) /
        len(list)``.
        """
        has_last = bool(self._last_has[p])
        service = self._pos_service[p] if has_last else "unknown"
        code = self._svc_code_of.get(service)
        neighbours = 0
        if code is not None:
            selector = success & (self._svc_codes == code)
            neighbours = int(np.count_nonzero(selector))
        if neighbours:
            power = float(np.cumsum(values[selector])[-1]) / neighbours
        elif has_last:
            power = float(self._last_power[p])
        else:
            power = 200.0
        return PowerReading(
            server_id=self.server_ids[p],
            power_w=power,
            estimated=True,
            service=service,
            time_s=now_s,
        )

    # ------------------------------------------------------------------
    # Stage 2: aggregation
    # ------------------------------------------------------------------

    def aggregate(
        self, sensed: BatchedSense, now_s: float, trace: TraceBuilder
    ) -> float:
        """Sum server readings, fixed overhead, and component draws.

        On disaggregated cycles the sum is additionally inflated by the
        uncertain readings' margin (power weighted by lost confidence,
        scaled by ``UNCERTAINTY_INFLATION``): the controller
        caps against an over-estimate, never an under-estimate, while
        sensors are dark.  The signed gap between the inflated aggregate
        and the metered ground truth lands in the trace so campaigns can
        report the margin.
        """
        aggregate = sensed.total_power_w() + self.device.fixed_overhead_w
        components_w = seq_sum(c.power_w() for c in self._components)
        aggregate += components_w
        if trace.disaggregated:
            aggregate += uncertainty_margin_w(sensed.estimated)
            trace.estimation_error_w = aggregate - (
                self._cycle_metered_w + components_w
            )
        return aggregate

    # ------------------------------------------------------------------
    # Stage 4: cap / uncap fan-out
    # ------------------------------------------------------------------

    def actuate(
        self,
        decision: BandDecision,
        sensed: BatchedSense,
        now_s: float,
        trace: TraceBuilder,
    ) -> None:
        """Fan the decision out to the agents as cap/clear requests."""
        self._actuation_successes = 0
        self._actuation_failures = 0
        if decision.action is BandAction.CAP:
            plan = build_capping_plan(
                sensed.readings(),
                decision.total_power_cut_w,
                self.policy,
            )
            trace.cut_allocated_w = plan.allocated_w
            self._apply_plan(plan, now_s)
        elif decision.action is BandAction.UNCAP:
            self._uncap_all(now_s)
        if (
            self._fail_safe_engaged
            and self.modes.mode is not OperatingMode.SAFE
            and decision.action is not BandAction.CAP
        ):
            # A fail-safe release left unacknowledged uncaps behind (or
            # never ran to completion): keep retiring them until none
            # remain, so SAFE mode can never strand a cap.
            if self.band.capping_active:
                # The policy re-capped on top: it owns the limits now.
                self._fail_safe_engaged = False
            else:
                self._uncap_all(now_s)
                if not self._capped_servers:
                    self._fail_safe_engaged = False
        trace.actuation_successes = self._actuation_successes
        trace.actuation_failures = self._actuation_failures
        trace.capped_after = len(self._capped_servers)
        self.capped_count_series.append(now_s, len(self._capped_servers))

    def _group_set_cap(
        self, items: list[tuple[str, str, float | None]]
    ) -> Any:
        """Batched set_cap through the transport, or None on fallback."""
        if self._batch is None or not items:
            return None
        group_set_cap = getattr(self._transport, "group_set_cap", None)
        if group_set_cap is None:
            return None
        return group_set_cap(items)

    def _apply_plan(self, plan: CappingPlan, now_s: float) -> None:
        if plan.unallocated_w > 1e-6:
            self.alerts.raise_alert(
                now_s,
                Severity.WARNING,
                self.name,
                f"{plan.unallocated_w:.0f} W of required cut could not be "
                "allocated: all servers at SLA floors",
            )
        group = self._group_set_cap(
            [
                (self._endpoint_prefix + cut.server_id, cut.server_id, cut.cap_w)
                for cut in plan.affected_servers
            ]
        )
        if group is not None:
            for cut, status in zip(plan.affected_servers, group.status):
                if status == "ok":
                    self._capped_servers[cut.server_id] = cut.cap_w
                    self._actuation_successes += 1
                elif status == "error":
                    self._actuation_failures += 1
            return
        for cut in plan.affected_servers:
            endpoint = self._endpoint_prefix + cut.server_id
            request = CapRequest(server_id=cut.server_id, limit_w=cut.cap_w)
            try:
                response: CapResponse = self._transport.call(
                    endpoint, "set_cap", request
                )
            except RpcError:
                # The server will be re-capped next cycle if still needed;
                # its power remains in the aggregate so safety converges.
                self._actuation_failures += 1
                continue
            if response.success or response.message:
                self._capped_servers[cut.server_id] = cut.cap_w
                self._actuation_successes += 1

    def _uncap_all(self, now_s: float) -> None:
        group = self._group_set_cap(
            [
                (self._endpoint_prefix + server_id, server_id, None)
                for server_id in self._capped_servers
            ]
        )
        if group is not None:
            still: dict[str, float] = {}
            for (server_id, cap_w), status in zip(
                self._capped_servers.items(), group.status
            ):
                if status == "ok":
                    self._actuation_successes += 1
                else:
                    self._actuation_failures += 1
                    still[server_id] = cap_w
            self._capped_servers = still
            return
        still_capped: dict[str, float] = {}
        for server_id in self._capped_servers:
            endpoint = self._endpoint_prefix + server_id
            request = CapRequest(server_id=server_id, limit_w=None)
            try:
                self._transport.call(endpoint, "set_cap", request)
                self._actuation_successes += 1
            except RpcError:
                self._actuation_failures += 1
                still_capped[server_id] = self._capped_servers[server_id]
        self._capped_servers = still_capped

    # ------------------------------------------------------------------
    # SAFE-posture fail-safe capping
    # ------------------------------------------------------------------

    def apply_fail_safe(self, now_s: float, trace: TraceBuilder) -> None:
        """Cap every server to an equal share of the capping target.

        With sensing gone for long enough to reach SAFE, the aggregate
        cannot be trusted, so the controller stops reasoning about
        offenders and bounds the whole breaker: the capping target minus
        overheads, split evenly.  Re-fanned out every SAFE tick, so
        servers missed by a lossy fabric converge.
        """
        if not self.server_ids:
            return
        _, target, _, _ = control_thresholds_w(
            self.band.config,
            self.device.rated_power_w,
            self._contractual_limit_w,
        )
        budget = target - self.device.fixed_overhead_w
        budget -= seq_sum(c.power_w() for c in self._components)
        per_server_w = max(budget, 0.0) / len(self.server_ids)
        group = self._group_set_cap(
            [
                (endpoint, server_id, per_server_w)
                for server_id, endpoint in zip(
                    self.server_ids, self._endpoints()
                )
            ]
        )
        if group is not None:
            for server_id, status in zip(self.server_ids, group.status):
                if status == "ok":
                    self._capped_servers[server_id] = per_server_w
                    trace.actuation_successes += 1
                elif status == "error":
                    trace.actuation_failures += 1
        else:
            for server_id, endpoint in zip(self.server_ids, self._endpoints()):
                request = CapRequest(
                    server_id=server_id, limit_w=per_server_w
                )
                try:
                    response: CapResponse = self._transport.call(
                        endpoint, "set_cap", request
                    )
                except RpcError:
                    trace.actuation_failures += 1
                    continue
                if response.success or response.message:
                    self._capped_servers[server_id] = per_server_w
                    trace.actuation_successes += 1
        self._fail_safe_engaged = True
        trace.detail = "fail-safe"
        trace.capped_after = len(self._capped_servers)
        self.capped_count_series.append(now_s, len(self._capped_servers))

    def release_fail_safe(self, now_s: float) -> None:
        """Withdraw fail-safe caps unless the policy has caps in force."""
        if not self._fail_safe_engaged:
            return
        if self.band.capping_active:
            # The decision policy believes caps are needed: leave every
            # limit in place and let its own uncap path retire them.
            self._fail_safe_engaged = False
            return
        self._uncap_all(now_s)
        if not self._capped_servers:
            self._fail_safe_engaged = False
        self.capped_count_series.append(now_s, len(self._capped_servers))

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def _iter_last_readings(self):
        """Cached readings as (server_id, PowerReading) pairs.

        Materialized from the position arrays in broadcast order
        (snapshot serialization sorts keys, so the on-disk form is
        order-independent).
        """
        for p in np.flatnonzero(self._last_has):
            p = int(p)
            yield self.server_ids[p], self._cached_reading(p)

    def snapshot_state(self) -> dict:
        """Template state plus the reading cache and cap bookkeeping."""
        state = super().snapshot_state()
        state["last_readings"] = {
            server_id: {
                "server_id": r.server_id,
                "power_w": r.power_w,
                "estimated": r.estimated,
                "service": r.service,
                "time_s": r.time_s,
                "breakdown": (
                    None
                    if r.breakdown is None
                    else {
                        "total_w": r.breakdown.total_w,
                        "cpu_w": r.breakdown.cpu_w,
                        "memory_w": r.breakdown.memory_w,
                        "other_w": r.breakdown.other_w,
                        "ac_dc_loss_w": r.breakdown.ac_dc_loss_w,
                    }
                ),
            }
            for server_id, r in self._iter_last_readings()
        }
        state["capped_servers"] = dict(self._capped_servers)
        state["fail_safe_engaged"] = self._fail_safe_engaged
        state["actuation_successes"] = self._actuation_successes
        state["actuation_failures"] = self._actuation_failures
        state["capped_count_series"] = self.capped_count_series.snapshot_state()
        state["estimator"] = (
            None if self.estimator is None else self.estimator.snapshot_state()
        )
        return state

    def restore_state(self, state: dict) -> None:
        """Restore template state plus leaf-local caches in place.

        Breakdowns are not read back: a cached reading's breakdown is a
        function of its total (see :meth:`_cached_reading`).
        """
        super().restore_state(state)
        self._last_has[:] = False
        self._last_est[:] = False
        self._last_power[:] = 0.0
        self._last_time[:] = 0.0
        for server_id, r in state["last_readings"].items():
            p = self._pos_of_server.get(server_id)
            if p is None:
                continue
            if self._svc_codes[p] < 0:
                self._record_service(p, r["service"])
            self._last_power[p] = float(r["power_w"])
            self._last_time[p] = float(r["time_s"])
            self._last_est[p] = bool(r["estimated"])
            self._last_has[p] = True
        self._capped_servers = {
            server_id: float(cap)
            for server_id, cap in state["capped_servers"].items()
        }
        self._fail_safe_engaged = bool(state["fail_safe_engaged"])
        self._actuation_successes = int(state["actuation_successes"])
        self._actuation_failures = int(state["actuation_failures"])
        self.capped_count_series.restore_state(state["capped_count_series"])
        # Estimator model state (absent in pre-estimation snapshots; a
        # mid-blackout snapshot must restore the fitted models or the
        # resumed run would re-learn from scratch while dark).
        estimator_state = state.get("estimator")
        if self.estimator is not None and estimator_state is not None:
            self.estimator.restore_state(estimator_state)

    # ------------------------------------------------------------------
    # Validation against breaker readings
    # ------------------------------------------------------------------

    def validate_against_breaker(
        self,
        breaker_reading_w: float,
        now_s: float,
        *,
        tolerance_fraction: float = 0.10,
    ) -> bool:
        """Compare the aggregate with a (coarse) breaker-side reading.

        The paper uses breaker readings only to validate the server-side
        aggregation (their sampling is minute-grained, far too slow for
        control).  Returns True when the two agree within tolerance;
        raises a WARNING alert stamped ``now_s`` otherwise.
        """
        if self._last_aggregate_w is None:
            return True
        if breaker_reading_w <= 0.0:
            return True
        drift = abs(self._last_aggregate_w - breaker_reading_w)
        if drift / breaker_reading_w <= tolerance_fraction:
            return True
        self.alerts.raise_alert(
            now_s,
            Severity.WARNING,
            self.name,
            f"aggregate {self._last_aggregate_w:.0f} W drifts "
            f"{100 * drift / breaker_reading_w:.1f}% from breaker reading "
            f"{breaker_reading_w:.0f} W",
        )
        return False

    def __repr__(self) -> str:
        return (
            f"LeafPowerController({self.name!r}, servers={len(self.server_ids)}, "
            f"capped={len(self._capped_servers)})"
        )
