"""Endpoint health tracking and the degraded-mode state machine.

Two robustness primitives the paper's abort-and-alert story stops short
of, both motivated by running controllers over a lossy fabric:

* :class:`HealthRegistry` — per-endpoint success/failure/latency
  history fed by the resilient transport
  (:class:`~repro.rpc.resilient.ResilientTransport`).  Persistently bad
  endpoints — ones whose circuit breaker keeps tripping — are
  quarantined: calls fail fast for a cooling-off window instead of
  burning retries against a dead host every cycle.
* :class:`ModeStateMachine` — a per-controller operating posture
  (NORMAL → DEGRADED → SAFE) driven by consecutive invalid cycles.
  The paper's rule is "abort and alert"; repeated aborts here
  additionally harden the posture: DEGRADED defers uncapping (holds
  last limits) and widens alerting, SAFE applies a conservative
  fail-safe cap at the capping target.  Recovery hysteresis walks the
  posture back one level per run of consecutive valid cycles.  A
  parallel SENSOR_DEGRADED branch covers cycles the disaggregation
  estimator carried (coverage below the failure-fraction floor but the
  aggregate still usable): capping proceeds, uncaps defer, and recovery
  goes straight back to NORMAL once sensing returns.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.config import OperatingModeConfig
from repro.telemetry.alerts import AlertSink, Severity

#: Latency samples retained per endpoint for the mean-latency view.
_LATENCY_WINDOW = 64
#: How long a quarantined endpoint fails fast before it is probed again.
QUARANTINE_DURATION_S = 120.0
#: Consecutive invalid cycles that enter DEGRADED, then SAFE.
DEGRADED_AFTER_INVALID_CYCLES = 3
SAFE_AFTER_INVALID_CYCLES = 6
#: Consecutive valid cycles that step the posture down one level.
RECOVERY_VALID_CYCLES = 5


@dataclass
class EndpointHealth:
    """Success/failure/latency history for one RPC endpoint."""

    endpoint: str
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    #: Attempts beyond the first within one logical call.
    retries: int = 0
    #: Logical calls that failed at least once but ultimately succeeded.
    retry_successes: int = 0
    #: Full (closed → open) circuit-breaker trips.
    breaker_opens: int = 0
    #: Calls rejected without touching the wire (quarantine).
    fast_fails: int = 0
    consecutive_failures: int = 0
    last_success_s: float | None = None
    last_failure_s: float | None = None
    backoff_waited_s: float = 0.0
    quarantines: int = 0
    quarantined_until_s: float | None = None
    latencies: deque[float] = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW)
    )

    @property
    def failure_rate(self) -> float:
        """Lifetime attempt-failure fraction (0.0 before any attempt)."""
        if self.attempts == 0:
            return 0.0
        return self.failures / self.attempts

    @property
    def mean_latency_s(self) -> float:
        """Mean over the retained latency window."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def quarantined(self, now_s: float) -> bool:
        """Whether the endpoint is quarantined at ``now_s``."""
        return (
            self.quarantined_until_s is not None
            and now_s < self.quarantined_until_s
        )

    def render(self, now_s: float) -> str:
        """Stable one-line form for the ``repro health`` CLI."""
        state = "quarantined" if self.quarantined(now_s) else "ok"
        return (
            f"{self.endpoint} calls={self.successes}/{self.attempts}"
            f" retries={self.retries}({self.retry_successes} won)"
            f" opens={self.breaker_opens} fastfail={self.fast_fails}"
            f" lat={1e3 * self.mean_latency_s:.2f}ms {state}"
        )

    def snapshot_state(self) -> dict:
        """Serializable counters plus the retained latency window."""
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "retries": self.retries,
            "retry_successes": self.retry_successes,
            "breaker_opens": self.breaker_opens,
            "fast_fails": self.fast_fails,
            "consecutive_failures": self.consecutive_failures,
            "last_success_s": self.last_success_s,
            "last_failure_s": self.last_failure_s,
            "backoff_waited_s": self.backoff_waited_s,
            "quarantines": self.quarantines,
            "quarantined_until_s": self.quarantined_until_s,
            "latencies": list(self.latencies),
        }

    def restore_state(self, state: dict) -> None:
        """Restore counters and latency window in place."""
        self.attempts = int(state["attempts"])
        self.successes = int(state["successes"])
        self.failures = int(state["failures"])
        self.retries = int(state["retries"])
        self.retry_successes = int(state["retry_successes"])
        self.breaker_opens = int(state["breaker_opens"])
        self.fast_fails = int(state["fast_fails"])
        self.consecutive_failures = int(state["consecutive_failures"])
        self.last_success_s = state["last_success_s"]
        self.last_failure_s = state["last_failure_s"]
        self.backoff_waited_s = float(state["backoff_waited_s"])
        self.quarantines = int(state["quarantines"])
        self.quarantined_until_s = state["quarantined_until_s"]
        self.latencies = deque(
            (float(v) for v in state["latencies"]), maxlen=_LATENCY_WINDOW
        )


def _count_successes(stats: EndpointHealth, count: int) -> None:
    stats.attempts += count
    stats.successes += count
    stats.consecutive_failures = 0


class HealthRegistry:
    """Per-endpoint health fed by the resilient transport.

    The registry is passive bookkeeping plus one policy: an endpoint
    whose breaker has fully tripped ``quarantine_after_opens`` times is
    quarantined for :data:`QUARANTINE_DURATION_S` — the caller fails fast
    instead of re-probing a persistently bad host every cycle.
    """

    def __init__(self, *, quarantine_after_opens: int = 3) -> None:
        self.quarantine_after_opens = quarantine_after_opens
        self._endpoints: dict[str, EndpointHealth] = {}

    def stats(self, endpoint: str) -> EndpointHealth | None:
        """Health record for one endpoint, or None if never called."""
        return self._endpoints.get(endpoint)

    def _stats(self, endpoint: str) -> EndpointHealth:
        stats = self._endpoints.get(endpoint)
        if stats is None:
            stats = self._endpoints[endpoint] = EndpointHealth(endpoint)
        return stats

    @property
    def endpoints(self) -> list[str]:
        """All endpoints with recorded history, sorted."""
        return sorted(self._endpoints)

    # ------------------------------------------------------------------
    # Recording hooks (called by ResilientTransport)
    # ------------------------------------------------------------------

    def record_success(
        self, endpoint: str, now_s: float, latency_s: float, *, retried: bool
    ) -> None:
        """Account one successful attempt."""
        stats = self._stats(endpoint)
        stats.attempts += 1
        stats.successes += 1
        stats.consecutive_failures = 0
        stats.last_success_s = now_s
        stats.latencies.append(latency_s)
        if retried:
            stats.retry_successes += 1

    def record_failure(self, endpoint: str, now_s: float) -> None:
        """Account one failed attempt."""
        stats = self._stats(endpoint)
        stats.attempts += 1
        stats.failures += 1
        stats.consecutive_failures += 1
        stats.last_failure_s = now_s

    def backfill_successes(self, endpoint: str, count: int) -> None:
        """Account ``count`` successes served on the batched fast lane.

        Called when an endpoint leaves the vectorized control plane's
        fast path: attempt/success totals and the consecutive-failure
        reset match ``count`` sequential :meth:`record_success` calls.
        Latency samples and the last-success timestamp are
        diagnostics-only and are not backfilled.
        """
        _count_successes(self._stats(endpoint), count)

    def with_pending(
        self, pending: Mapping[str, int]
    ) -> dict[str, EndpointHealth]:
        """Every record, with ``pending`` fast-lane successes folded in.

        Endpoints with a nonzero count get a copy of their record
        accounted as :meth:`backfill_successes` would; the registry
        itself is left untouched.  Sorted by endpoint.
        """
        records = dict(self._endpoints)
        for endpoint, count in pending.items():
            if count:
                base = records.get(endpoint) or EndpointHealth(endpoint)
                records[endpoint] = folded = replace(base)
                _count_successes(folded, count)
        return dict(sorted(records.items()))

    def record_retry(self, endpoint: str, backoff_s: float) -> None:
        """Account one retry attempt and its backoff delay."""
        stats = self._stats(endpoint)
        stats.retries += 1
        stats.backoff_waited_s += backoff_s

    def record_fast_fail(self, endpoint: str) -> None:
        """Account a call rejected by quarantine."""
        self._stats(endpoint).fast_fails += 1

    def record_breaker_open(self, endpoint: str, now_s: float) -> None:
        """Account a full (closed → open) breaker trip; maybe quarantine."""
        stats = self._stats(endpoint)
        stats.breaker_opens += 1
        if (
            self.quarantine_after_opens > 0
            and stats.breaker_opens >= self.quarantine_after_opens
        ):
            stats.quarantined_until_s = now_s + QUARANTINE_DURATION_S
            stats.quarantines += 1

    def release(self, endpoint: str) -> None:
        """Lift an endpoint's quarantine early (operator override)."""
        stats = self._endpoints.get(endpoint)
        if stats is not None:
            stats.quarantined_until_s = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_quarantined(self, endpoint: str, now_s: float) -> bool:
        """Whether calls to ``endpoint`` should fail fast at ``now_s``."""
        stats = self._endpoints.get(endpoint)
        return stats is not None and stats.quarantined(now_s)

    def quarantined_endpoints(self, now_s: float) -> list[str]:
        """Endpoints currently quarantined, sorted."""
        return sorted(
            e for e, s in self._endpoints.items() if s.quarantined(now_s)
        )

    @property
    def total_retries(self) -> int:
        """Retry attempts across all endpoints."""
        return sum(s.retries for s in self._endpoints.values())

    @property
    def total_retry_successes(self) -> int:
        """Logical calls rescued by a retry, across all endpoints."""
        return sum(s.retry_successes for s in self._endpoints.values())

    @property
    def total_breaker_opens(self) -> int:
        """Full breaker trips across all endpoints."""
        return sum(s.breaker_opens for s in self._endpoints.values())

    @property
    def total_quarantines(self) -> int:
        """Quarantine impositions across all endpoints."""
        return sum(s.quarantines for s in self._endpoints.values())

    def snapshot_state(self) -> dict:
        """Serializable per-endpoint histories (insertion order kept)."""
        return {
            "endpoints": {
                endpoint: stats.snapshot_state()
                for endpoint, stats in self._endpoints.items()
            }
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild endpoint histories from a snapshot."""
        self._endpoints = {}
        for endpoint, stats_state in state["endpoints"].items():
            stats = EndpointHealth(endpoint)
            stats.restore_state(stats_state)
            self._endpoints[endpoint] = stats

    def __repr__(self) -> str:
        return f"HealthRegistry(endpoints={len(self._endpoints)})"


# ---------------------------------------------------------------------------
# Operating-mode state machine
# ---------------------------------------------------------------------------


class OperatingMode(enum.Enum):
    """A controller's operating posture."""

    NORMAL = "normal"
    DEGRADED = "degraded"
    #: Sensing coverage fell below the failure-fraction floor but the
    #: disaggregation estimator kept the aggregate usable: capping
    #: proceeds against an uncertainty-inflated total, uncaps are
    #: deferred.  Sits between DEGRADED and SAFE in severity but forms
    #: its own branch — it is entered by degraded *sensing*, not by
    #: invalid cycles, and recovers straight to NORMAL.
    SENSOR_DEGRADED = "sensor-degraded"
    SAFE = "safe"


#: Escalation order for the invalid-cycle branch; recovery steps one
#: level left per hysteresis run.  SENSOR_DEGRADED is deliberately not
#: in this list: it is a parallel branch (see OperatingMode docs).
_MODE_ORDER = [OperatingMode.NORMAL, OperatingMode.DEGRADED, OperatingMode.SAFE]


class ModeStateMachine:
    """NORMAL → DEGRADED → SAFE escalation on consecutive invalid cycles.

    Escalation is monotone within an outage: 3 invalid cycles in a row
    enter DEGRADED, 6 enter SAFE.  Any valid cycle resets the invalid
    streak; 5 valid cycles in a row step the posture down one level (SAFE →
    DEGRADED → NORMAL), so recovery is deliberately slower than
    escalation.  Disabled machines always report NORMAL.
    """

    def __init__(
        self,
        config: OperatingModeConfig | None = None,
        *,
        name: str = "",
        alerts: AlertSink | None = None,
    ) -> None:
        self.config = config or OperatingModeConfig()
        self.name = name
        self.alerts = alerts
        self.mode = OperatingMode.NORMAL
        self.consecutive_invalid = 0
        self.consecutive_valid = 0
        #: (time_s, from_mode, to_mode) history, oldest first.
        self.transitions: list[tuple[float, str, str]] = []
        self.degraded_entries = 0
        self.safe_entries = 0
        self.sensor_degraded_entries = 0
        #: UNCAP decisions deferred while not NORMAL.
        self.deferred_uncaps = 0

    def _alert(self, now_s: float, severity: Severity, message: str) -> None:
        if self.alerts is not None:
            self.alerts.raise_alert(now_s, severity, self.name, message)

    def _transition(self, now_s: float, to: OperatingMode) -> None:
        if to is self.mode:
            return
        previous = self.mode
        self.mode = to
        self.transitions.append((now_s, previous.value, to.value))
        if to is OperatingMode.DEGRADED and previous is OperatingMode.NORMAL:
            self.degraded_entries += 1
            self._alert(
                now_s,
                Severity.WARNING,
                f"entering DEGRADED after {self.consecutive_invalid} "
                "consecutive invalid cycles; holding last limits",
            )
        elif to is OperatingMode.SAFE:
            self.safe_entries += 1
            self._alert(
                now_s,
                Severity.CRITICAL,
                f"entering SAFE after {self.consecutive_invalid} consecutive "
                "invalid cycles; applying fail-safe cap at the capping target",
            )
        elif to is OperatingMode.SENSOR_DEGRADED and previous in (
            OperatingMode.NORMAL,
            OperatingMode.DEGRADED,
        ):
            self.sensor_degraded_entries += 1
            self._alert(
                now_s,
                Severity.WARNING,
                "entering SENSOR_DEGRADED: sensing coverage below the "
                "failure-fraction floor; capping against the "
                "uncertainty-inflated disaggregation estimate, uncaps "
                "deferred",
            )
        else:
            self._alert(
                now_s,
                Severity.INFO,
                f"recovered from {previous.value} to {to.value} after "
                f"{self.consecutive_valid} consecutive valid cycles",
            )

    def record_invalid_cycle(self, now_s: float) -> OperatingMode:
        """One invalid cycle; escalate when thresholds are crossed."""
        if not self.config.enabled:
            return self.mode
        self.consecutive_invalid += 1
        self.consecutive_valid = 0
        if self.consecutive_invalid >= SAFE_AFTER_INVALID_CYCLES:
            self._transition(now_s, OperatingMode.SAFE)
        elif self.consecutive_invalid >= DEGRADED_AFTER_INVALID_CYCLES:
            if self.mode is OperatingMode.NORMAL:
                self._transition(now_s, OperatingMode.DEGRADED)
        return self.mode

    def record_valid_cycle(self, now_s: float) -> OperatingMode:
        """One valid cycle; step the posture down after a hysteresis run."""
        if not self.config.enabled:
            return self.mode
        self.consecutive_invalid = 0
        self.consecutive_valid += 1
        if (
            self.mode is not OperatingMode.NORMAL
            and self.consecutive_valid >= RECOVERY_VALID_CYCLES
        ):
            if self.mode is OperatingMode.SENSOR_DEGRADED:
                # Sensing is back: the estimator branch recovers
                # straight to NORMAL (there was never a trusted-limits
                # problem, only a coverage problem).
                step_down = OperatingMode.NORMAL
            else:
                step_down = _MODE_ORDER[_MODE_ORDER.index(self.mode) - 1]
            self._transition(now_s, step_down)
            # Each level of recovery needs its own full run of valid
            # cycles — SAFE does not collapse straight to NORMAL.
            self.consecutive_valid = 0
        return self.mode

    def record_degraded_sensing_cycle(self, now_s: float) -> OperatingMode:
        """One cycle carried by the disaggregation estimator.

        The cycle produced a usable (inflated) aggregate, so it is not
        invalid — the invalid streak resets — but it does not count as
        healthy either: the valid streak resets outside SAFE, so
        recovery hysteresis only starts once real coverage returns.
        While SAFE, estimator-carried cycles do count toward the
        hysteresis run, stepping the posture down to SENSOR_DEGRADED
        (not DEGRADED: sensing is still impaired).
        """
        if not self.config.enabled:
            return self.mode
        self.consecutive_invalid = 0
        if self.mode is OperatingMode.SAFE:
            self.consecutive_valid += 1
            if self.consecutive_valid >= RECOVERY_VALID_CYCLES:
                self._transition(now_s, OperatingMode.SENSOR_DEGRADED)
                self.consecutive_valid = 0
            return self.mode
        self.consecutive_valid = 0
        if self.mode in (OperatingMode.NORMAL, OperatingMode.DEGRADED):
            self._transition(now_s, OperatingMode.SENSOR_DEGRADED)
        return self.mode

    def time_in_mode_s(self, mode: OperatingMode, now_s: float) -> float:
        """Total seconds spent in ``mode`` up to ``now_s``.

        Reconstructed from the transition history; an interval still
        open at ``now_s`` is charged through ``now_s``.  The machine
        starts in NORMAL at t=0.
        """
        total = 0.0
        current = OperatingMode.NORMAL.value
        since = 0.0
        for time_s, _, to in self.transitions:
            if current == mode.value:
                total += time_s - since
            current = to
            since = time_s
        if current == mode.value and now_s > since:
            total += now_s - since
        return total

    def record_deferred_uncap(self) -> None:
        """Account an UNCAP decision deferred by a non-NORMAL posture."""
        self.deferred_uncaps += 1

    def snapshot_state(self) -> dict:
        """Serializable posture, streaks, and transition history."""
        return {
            "mode": self.mode.value,
            "consecutive_invalid": self.consecutive_invalid,
            "consecutive_valid": self.consecutive_valid,
            "transitions": [list(t) for t in self.transitions],
            "degraded_entries": self.degraded_entries,
            "safe_entries": self.safe_entries,
            "sensor_degraded_entries": self.sensor_degraded_entries,
            "deferred_uncaps": self.deferred_uncaps,
        }

    def restore_state(self, state: dict) -> None:
        """Restore posture and counters in place (no alerts raised)."""
        self.mode = OperatingMode(state["mode"])
        self.consecutive_invalid = int(state["consecutive_invalid"])
        self.consecutive_valid = int(state["consecutive_valid"])
        self.transitions = [
            (float(t), str(a), str(b)) for t, a, b in state["transitions"]
        ]
        self.degraded_entries = int(state["degraded_entries"])
        self.safe_entries = int(state["safe_entries"])
        self.sensor_degraded_entries = int(
            state.get("sensor_degraded_entries", 0)
        )
        self.deferred_uncaps = int(state["deferred_uncaps"])

    def __repr__(self) -> str:
        return (
            f"ModeStateMachine({self.name!r}, mode={self.mode.value}, "
            f"invalid_streak={self.consecutive_invalid})"
        )
