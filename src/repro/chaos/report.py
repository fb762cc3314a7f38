"""The robustness scorecard: did Dynamo survive the chaos?

A scorecard condenses one finished chaos :class:`~repro.world.World`
into the metrics the paper's fault-tolerance story hinges on:

* **time-to-detect** — seconds from the first injection to the first
  unhealthy health-probe sample (``None`` if the fault never became
  visible, i.e. a clean ride-through);
* **time-to-recover** — seconds from the first injection until health
  stays restored (0.0 for a ride-through);
* **breaker trips** — the one number that must be zero;
* **capping SLA violation** — integrated seconds the monitored device's
  aggregate sat above its rated limit;
* **aggregation aborts** — leaf cycles invalidated by >20% pull failures.

Watchdog restart/suppression counters, failover takeovers, and cap/uncap
event totals round out the picture, and the control-cycle trace ring
(:class:`~repro.telemetry.tracing.TraceBuffer`) contributes per-tick
pipeline metrics: ticks traced, invalid-tick counts, estimated pulls,
and how much of the requested power cut the allocators actually placed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table
from repro.core.failover import FailoverController
from repro.telemetry.alerts import Severity
from repro.telemetry.timeseries import TimeSeries
from repro.world import World


@dataclass(frozen=True)
class RobustnessScore:
    """Robustness metrics for one finished chaos run."""

    scenario: str
    seed: int
    injections: int
    recoveries: int
    time_to_detect_s: float | None
    time_to_recover_s: float
    breaker_trips: int
    sla_violation_s: float
    aggregation_aborts: int
    critical_alerts: int
    watchdog_restarts: int
    watchdog_suppressed: int
    failovers: int
    cap_events: int
    uncap_events: int
    #: Control-cycle pipeline metrics, from the deployment trace ring.
    ticks_traced: int = 0
    invalid_ticks: int = 0
    pulls_estimated: int = 0
    cut_requested_w: float = 0.0
    cut_allocated_w: float = 0.0
    #: RPC resilience metrics, from the deployment health registry.
    rpc_retries: int = 0
    rpc_retry_successes: int = 0
    circuit_breaker_opens: int = 0
    endpoint_quarantines: int = 0
    #: Degraded-posture metrics, from the controller mode machines.
    degraded_mode_entries: int = 0
    safe_mode_entries: int = 0
    #: Degraded-sensing metrics (disaggregation estimator); all zero for
    #: runs that never carried a cycle on estimated readings.
    sensor_degraded_entries: int = 0
    time_in_sensor_degraded_s: float = 0.0
    pulls_disaggregated: int = 0
    max_estimation_error_w: float = 0.0

    @property
    def survived(self) -> bool:
        """The headline verdict: nothing tripped."""
        return self.breaker_trips == 0

    @property
    def cut_allocation_fraction(self) -> float | None:
        """Fraction of requested power cuts the allocators placed."""
        if self.cut_requested_w <= 0.0:
            return None
        return self.cut_allocated_w / self.cut_requested_w


def _detect_and_recover(
    series: TimeSeries, first_injection_s: float | None, end_s: float
) -> tuple[float | None, float]:
    """Detection and recovery latencies from the health-probe series.

    Detection is the first unhealthy sample at/after the first
    injection.  Recovery is the first healthy sample *after the last
    unhealthy sample* — health must stay restored to the end of the run.
    """
    if first_injection_s is None or len(series) == 0:
        return None, 0.0
    times = series.times
    values = series.values
    unhealthy = [
        t for t, v in zip(times, values) if t >= first_injection_s and v < 0.5
    ]
    if not unhealthy:
        return None, 0.0
    detect_s = unhealthy[0] - first_injection_s
    last_bad = unhealthy[-1]
    recovered_at = [t for t in times if t > last_bad]
    # If no healthy sample follows the last unhealthy one, the run ended
    # degraded: charge recovery through the end of the run.
    recover_s = (recovered_at[0] if recovered_at else end_s) - first_injection_s
    return float(detect_s), float(recover_s)


def _sla_violation_s(world: World) -> float:
    """Integrated seconds the monitored aggregate exceeded its rating.

    Uses the device rating at scorecard time; for derating scenarios
    whose fault has already recovered this is the original rating.
    """
    monitored = world.extras["monitored_device"]
    controller = world.dynamo.controller(monitored)
    limit_w = world.topology.device(monitored).rated_power_w
    series = controller.aggregate_series
    if len(series) < 2:
        return 0.0
    times = series.times
    values = series.values
    violation = 0.0
    for i in range(1, len(times)):
        if values[i] > limit_w:
            violation += times[i] - times[i - 1]
    return float(violation)


def build_scorecard(world: World) -> RobustnessScore:
    """Score a finished chaos run."""
    orchestrator, end_s, rng = world.orchestrator, world.end_s, world.rng
    if orchestrator is None or end_s is None or rng is None:
        raise ValueError(f"{world.name!r} is not a chaos drill to score")
    first_injection_s = orchestrator.first_injection_time_s()
    detect_s, recover_s = _detect_and_recover(
        orchestrator.health_series, first_injection_s, end_s
    )
    aborts = sum(
        leaf.invalid_cycles
        for leaf in world.dynamo.hierarchy.leaf_controllers.values()
    )
    failovers = sum(
        c.failovers
        for c in world.dynamo.hierarchy.all_controllers
        if isinstance(c, FailoverController)
    )
    trace_metrics = world.dynamo.traces.metrics()
    health = getattr(world.dynamo, "health", None)
    return RobustnessScore(
        scenario=world.name,
        seed=rng.seed,
        injections=orchestrator.injection_count,
        recoveries=len(orchestrator.events.by_kind_prefix("recover.")),
        time_to_detect_s=detect_s,
        time_to_recover_s=recover_s,
        breaker_trips=len(world.driver.trips),
        sla_violation_s=_sla_violation_s(world),
        aggregation_aborts=aborts,
        critical_alerts=len(world.dynamo.alerts.by_severity(Severity.CRITICAL)),
        watchdog_restarts=world.dynamo.watchdog.restarts,
        watchdog_suppressed=world.dynamo.watchdog.restarts_suppressed,
        failovers=failovers,
        cap_events=world.dynamo.total_cap_events(),
        uncap_events=sum(
            c.uncap_events for c in world.dynamo.hierarchy.all_controllers
        ),
        ticks_traced=trace_metrics.ticks,
        invalid_ticks=trace_metrics.invalid_ticks,
        pulls_estimated=trace_metrics.pulls_estimated,
        cut_requested_w=trace_metrics.cut_requested_w,
        cut_allocated_w=trace_metrics.cut_allocated_w,
        rpc_retries=health.total_retries if health is not None else 0,
        rpc_retry_successes=(
            health.total_retry_successes if health is not None else 0
        ),
        circuit_breaker_opens=(
            health.total_breaker_opens if health is not None else 0
        ),
        endpoint_quarantines=(
            health.total_quarantines if health is not None else 0
        ),
        degraded_mode_entries=world.dynamo.degraded_mode_entries(),
        safe_mode_entries=world.dynamo.safe_mode_entries(),
        sensor_degraded_entries=world.dynamo.sensor_degraded_entries(),
        time_in_sensor_degraded_s=world.dynamo.time_in_sensor_degraded_s(
            end_s
        ),
        pulls_disaggregated=trace_metrics.pulls_disaggregated,
        max_estimation_error_w=trace_metrics.max_estimation_error_w,
    )


def render_scorecard(score: RobustnessScore) -> str:
    """Render one scorecard as an aligned text table."""
    table = Table(
        f"Robustness scorecard: {score.scenario} (seed {score.seed})",
        ["metric", "value"],
    )
    detect = (
        "never unhealthy"
        if score.time_to_detect_s is None
        else f"{score.time_to_detect_s:.1f} s"
    )
    table.add_row("faults injected", score.injections)
    table.add_row("faults recovered", score.recoveries)
    table.add_row("time to detect", detect)
    table.add_row("time to recover", f"{score.time_to_recover_s:.1f} s")
    table.add_row("breaker trips", score.breaker_trips)
    table.add_row("capping SLA violation", f"{score.sla_violation_s:.1f} s")
    table.add_row("aggregation aborts", score.aggregation_aborts)
    table.add_row("critical alerts", score.critical_alerts)
    table.add_row("watchdog restarts", score.watchdog_restarts)
    table.add_row("watchdog suppressed", score.watchdog_suppressed)
    table.add_row("failover takeovers", score.failovers)
    table.add_row("cap events", score.cap_events)
    table.add_row("uncap events", score.uncap_events)
    table.add_row("ticks traced", score.ticks_traced)
    table.add_row("invalid ticks", score.invalid_ticks)
    table.add_row("pulls estimated", score.pulls_estimated)
    table.add_row("rpc retries", score.rpc_retries)
    table.add_row("rpc retry successes", score.rpc_retry_successes)
    table.add_row("circuit-breaker opens", score.circuit_breaker_opens)
    table.add_row("endpoint quarantines", score.endpoint_quarantines)
    table.add_row("degraded-mode entries", score.degraded_mode_entries)
    table.add_row("safe-mode entries", score.safe_mode_entries)
    table.add_row("sensor-degraded entries", score.sensor_degraded_entries)
    table.add_row(
        "time in sensor-degraded", f"{score.time_in_sensor_degraded_s:.1f} s"
    )
    table.add_row("pulls disaggregated", score.pulls_disaggregated)
    table.add_row(
        "max estimation error",
        "-"
        if score.pulls_disaggregated == 0
        else f"{score.max_estimation_error_w:.1f} W",
    )
    fraction = score.cut_allocation_fraction
    table.add_row(
        "cut allocated / requested",
        "n/a"
        if fraction is None
        else (
            f"{score.cut_allocated_w:.0f} / {score.cut_requested_w:.0f} W"
            f" ({fraction:.0%})"
        ),
    )
    table.add_row("survived", "yes" if score.survived else "NO")
    return table.render()
