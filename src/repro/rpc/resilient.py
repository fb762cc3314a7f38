"""The resilience layer between controllers and the RPC transport.

The paper's controllers make every RPC exactly once and treat any
failure as a failed pull.  That is fine for sensing (estimation covers
it) but fragile for actuation and for a genuinely flaky fabric.  This
module wraps any :class:`~repro.rpc.transport.Transport` with:

* a **call policy** — per-call deadline (checked against the drawn
  latency; simulation time does not advance), bounded retries, and
  deterministic jittered exponential backoff drawn from a dedicated
  simulation RNG stream, so a seeded run retries on a byte-identical
  schedule;
* a per-endpoint **circuit breaker** (closed → open → half-open)
  tripping on consecutive-failure and failure-rate thresholds, so a
  dead endpoint stops consuming retry budget;
* a :class:`~repro.core.health.HealthRegistry` feed — every attempt,
  retry, trip, and fast-fail is recorded, and persistently bad
  endpoints are quarantined.

On the happy path the wrapper is invisible by construction: one inner
call, no extra RNG draws, the result passed straight through.  Failure
handling, not failure-free behaviour, is where it differs — which is
what keeps golden-fingerprint parity with the unwrapped transport.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.config import CallPolicyConfig, CircuitBreakerConfig
from repro.errors import RpcError, RpcTimeoutError
from repro.rpc.transport import (
    GroupCapResult,
    GroupReadResult,
    Handler,
    Transport,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> rpc)
    from repro.core.health import HealthRegistry


class BreakerState(enum.Enum):
    """Circuit-breaker state."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-endpoint circuit breaker.

    Trips from CLOSED on either ``consecutive_failure_threshold``
    attempt failures in a row or a failure rate of at least
    ``failure_rate_threshold`` over the last ``window_size`` attempts
    (with at least ``min_samples`` seen).  While OPEN, calls are
    rejected until ``open_duration_s`` has elapsed; the next call then
    half-opens the breaker and runs as a probe — success closes and
    resets, failure re-opens (a re-open, distinct from a full trip).
    """

    def __init__(
        self, config: CircuitBreakerConfig | None = None, *, name: str = ""
    ) -> None:
        self.config = config or CircuitBreakerConfig()
        self.name = name
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: float | None = None
        #: Full CLOSED → OPEN trips (what quarantining counts).
        self.opens = 0
        #: HALF_OPEN probe failures sending the breaker back to OPEN.
        self.reopens = 0
        self._window: deque[bool] = deque(maxlen=self.config.window_size)

    def allow(self, now_s: float) -> bool:
        """Whether a call may proceed at ``now_s`` (may half-open)."""
        if self.state is BreakerState.OPEN:
            assert self.opened_at_s is not None
            if now_s - self.opened_at_s >= self.config.open_duration_s:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True

    def record_success(self, now_s: float) -> None:
        """A successful attempt: close (from a probe) and reset history."""
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self.opened_at_s = None
            self._window.clear()
        else:
            self._window.append(True)

    def record_failure(self, now_s: float) -> bool:
        """A failed attempt; returns True on a full CLOSED → OPEN trip."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: back to OPEN for another window.
            self.state = BreakerState.OPEN
            self.opened_at_s = now_s
            self.reopens += 1
            return False
        if self.state is BreakerState.CLOSED:
            self._window.append(False)
            if (
                self.consecutive_failures
                >= self.config.consecutive_failure_threshold
                or self._rate_tripped()
            ):
                self.state = BreakerState.OPEN
                self.opened_at_s = now_s
                self.opens += 1
                return True
        return False

    def _rate_tripped(self) -> bool:
        if len(self._window) < self.config.min_samples:
            return False
        failures = sum(1 for ok in self._window if not ok)
        return (
            failures / len(self._window) >= self.config.failure_rate_threshold
        )

    def snapshot_state(self) -> dict:
        """Serializable breaker state including the attempt window."""
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "opened_at_s": self.opened_at_s,
            "opens": self.opens,
            "reopens": self.reopens,
            "window": list(self._window),
        }

    def restore_state(self, state: dict) -> None:
        """Restore breaker state in place."""
        self.state = BreakerState(state["state"])
        self.consecutive_failures = int(state["consecutive_failures"])
        opened = state["opened_at_s"]
        self.opened_at_s = None if opened is None else float(opened)
        self.opens = int(state["opens"])
        self.reopens = int(state["reopens"])
        self._window = deque(
            (bool(ok) for ok in state["window"]),
            maxlen=self.config.window_size,
        )

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state.value}, "
            f"opens={self.opens})"
        )


class ResilientTransport:
    """A :class:`Transport` wrapper adding deadline/retry/breaker/health.

    Registration, endpoint listing, and the failure injector delegate to
    the wrapped transport — the resilient layer changes only how calls
    fail, never how endpoints are wired.
    """

    def __init__(
        self,
        inner: Transport,
        *,
        policy: CallPolicyConfig | None = None,
        breaker: CircuitBreakerConfig | None = None,
        health: "HealthRegistry | None" = None,
        rng: np.random.Generator | None = None,
        clock=None,
    ) -> None:
        self._inner = inner
        self.policy = policy or CallPolicyConfig()
        self.breaker_config = breaker or CircuitBreakerConfig()
        if health is None:
            from repro.core.health import HealthRegistry

            health = HealthRegistry()
        self.health = health
        self._rng = rng
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Total backoff delay accounted (not slept: RPC timescales sit
        #: far below the 3 s control cycle, like call latency itself).
        self.backoff_waited_s = 0.0
        self.injector = inner.injector

    # ------------------------------------------------------------------
    # Transport delegation
    # ------------------------------------------------------------------

    @property
    def inner(self) -> Transport:
        """The wrapped transport."""
        return self._inner

    @property
    def endpoints(self) -> list[str]:
        """All registered endpoint names."""
        return self._inner.endpoints

    def register(self, endpoint: str, handler: Handler) -> None:
        """Register (or replace) the handler for ``endpoint``."""
        self._inner.register(endpoint, handler)

    def unregister(self, endpoint: str) -> None:
        """Remove an endpoint."""
        self._inner.unregister(endpoint)

    # ------------------------------------------------------------------
    # Breakers
    # ------------------------------------------------------------------

    def breaker(self, endpoint: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker for one endpoint."""
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            breaker = self._breakers[endpoint] = CircuitBreaker(
                self.breaker_config, name=endpoint
            )
        return breaker

    def breaker_state(self, endpoint: str) -> str:
        """Breaker state name for one endpoint ("closed" if never used)."""
        breaker = self._breakers.get(endpoint)
        return breaker.state.value if breaker else BreakerState.CLOSED.value

    def _now(self) -> float:
        return float(self._clock.now) if self._clock is not None else 0.0

    def backoff_delay_s(self, retry_index: int) -> float:
        """The (jittered) backoff before retry ``retry_index`` (1-based).

        Deterministic: the exponential schedule comes from the policy,
        the jitter from the dedicated RNG stream — same seed, same
        delays.  Without an RNG the schedule is purely exponential.
        """
        delay = min(
            self.policy.backoff_max_s,
            self.policy.backoff_base_s
            * self.policy.backoff_multiplier ** (retry_index - 1),
        )
        if self._rng is not None and self.policy.jitter_fraction > 0.0:
            spread = self.policy.jitter_fraction * (
                2.0 * float(self._rng.random()) - 1.0
            )
            delay *= 1.0 + spread
        return delay

    # ------------------------------------------------------------------
    # The resilient call path
    # ------------------------------------------------------------------

    def call(self, endpoint: str, method: str, payload: Any = None) -> Any:
        """One logical call: quarantine gate → breaker gate → attempts.

        Raises:
            RpcError: all attempts failed, the breaker is open, or the
                endpoint is quarantined.
            RpcTimeoutError: the final attempt exceeded the deadline or
                hit an injected timeout.
        """
        batch = getattr(self._inner, "_batch", None)
        if batch is not None:
            # A direct resilient call takes the endpoint off the batched
            # fast lane: flush its pending fast-path successes into the
            # breaker/health record first so the state this call sees is
            # what sequential scalar calls would have built.
            batch.materialize_pending(endpoint, self)
        now_s = self._now()
        if self.health.is_quarantined(endpoint, now_s):
            self.health.record_fast_fail(endpoint)
            raise RpcError(f"endpoint {endpoint!r} is quarantined")
        breaker = self.breaker(endpoint)
        if not breaker.allow(now_s):
            self.health.record_fast_fail(endpoint)
            raise RpcError(f"circuit open for endpoint {endpoint!r}")
        # A half-open breaker gets exactly one probe, not a retry burst.
        attempts = (
            1
            if breaker.state is BreakerState.HALF_OPEN
            else max(1, self.policy.max_attempts)
        )
        last_exc: RpcError | None = None
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                delay = self.backoff_delay_s(attempt - 1)
                self.backoff_waited_s += delay
                self.health.record_retry(endpoint, delay)
            try:
                result = self._inner.call(endpoint, method, payload)
                latency = getattr(self._inner, "last_call_latency_s", 0.0)
                if latency > self.policy.deadline_s:
                    # The reply came back after the caller gave up: the
                    # handler's side effects stand, the result does not.
                    raise RpcTimeoutError(
                        f"call to {endpoint!r} exceeded the "
                        f"{self.policy.deadline_s:g} s deadline"
                    )
            except RpcError as exc:
                last_exc = exc
                tripped = breaker.record_failure(now_s)
                self.health.record_failure(endpoint, now_s)
                if tripped:
                    self.health.record_breaker_open(endpoint, now_s)
                if breaker.state is BreakerState.OPEN:
                    break
            else:
                breaker.record_success(now_s)
                self.health.record_success(
                    endpoint, now_s, latency, retried=attempt > 1
                )
                return result
        assert last_exc is not None
        raise last_exc

    def broadcast(
        self, endpoints: list[str], method: str, payload: Any = None
    ) -> tuple[dict[str, Any], dict[str, Exception]]:
        """Fan out through the resilient call path per endpoint."""
        results: dict[str, Any] = {}
        failures: dict[str, Exception] = {}
        for endpoint in endpoints:
            try:
                results[endpoint] = self.call(endpoint, method, payload)
            except RpcError as exc:
                failures[endpoint] = exc
        return results, failures

    # ------------------------------------------------------------------
    # Batched broadcast fast path (a batch attached)
    # ------------------------------------------------------------------

    def _strike_resilient(
        self, pos: dict[str, int], fast: "np.ndarray", now_s: float
    ) -> None:
        """Drop endpoints with resilience state to the scalar lane.

        Any endpoint with an existing breaker (whatever its state) or an
        active quarantine goes through :meth:`call` at its original
        position, so breaker transitions, fast-fails, and health records
        happen exactly as in the sequential broadcast.  An endpoint that
        has been materialized once therefore stays on the scalar lane —
        a performance choice only, never a semantic one.
        """
        for endpoint in self._breakers:
            p = pos.get(endpoint)
            if p is not None:
                fast[p] = False
        for endpoint in self.health.quarantined_endpoints(now_s):
            p = pos.get(endpoint)
            if p is not None:
                fast[p] = False

    def _settle_fast_lane(
        self,
        endpoints: list[str],
        rows: "np.ndarray",
        fast: "np.ndarray",
        latencies: "np.ndarray",
        now_s: float,
    ) -> list[int]:
        """Credit fast-lane successes; handle the deadline cold path.

        Returns the positions demoted to failures by the deadline check.
        With the default 1.0 s deadline against a 2 ms exponential
        latency the overrun probability per call is e^-500 — the branch
        exists for configured tight deadlines.  (The scalar path would
        burn its remaining retry attempts before giving up; the batched
        path records a single failure — a documented divergence on this
        practically-unreachable branch.)
        """
        demoted: list[int] = []
        if not fast.any():
            return demoted
        batch = self._inner._batch
        over = fast & (latencies > self.policy.deadline_s)
        if over.any():
            for p in np.flatnonzero(over):
                endpoint = endpoints[int(p)]
                batch.materialize_pending(endpoint, self)
                breaker = self.breaker(endpoint)
                tripped = breaker.record_failure(now_s)
                self.health.record_failure(endpoint, now_s)
                if tripped:
                    self.health.record_breaker_open(endpoint, now_s)
                fast[p] = False
                demoted.append(int(p))
        batch.fast_successes[rows[fast]] += 1
        return demoted

    def group_read_power(
        self, endpoints: list[str]
    ) -> GroupReadResult | None:
        """Batched ``read_power`` through the resilience gates.

        Besides the raw transport's fallback triggers, endpoints with an
        existing breaker or active quarantine take the scalar lane.
        Fast-lane successes are credited to the batch's pending counters
        and materialized into breaker/health state only when the
        endpoint first leaves the fast path.
        """
        inner = self._inner
        if not hasattr(inner, "_group_plan"):
            return None
        plan = inner._group_plan(endpoints)
        if plan is None:
            return None
        if not inner._group_allowed():
            inner.group_full_fallbacks += 1
            return None
        now_s = self._now()
        fast = inner._group_fast_mask(plan, plan.sense_ok)
        self._strike_resilient(plan.pos, fast, now_s)
        result = inner._execute_group_read(
            endpoints,
            plan.rows,
            fast,
            lambda endpoint: self.call(endpoint, "read_power", None),
        )
        demoted = self._settle_fast_lane(
            endpoints, plan.rows, result.fast_mask, result.latencies, now_s
        )
        for p in demoted:
            result.failures[endpoints[p]] = RpcTimeoutError(
                f"call to {endpoints[p]!r} exceeded the "
                f"{self.policy.deadline_s:g} s deadline"
            )
        return result

    def group_set_cap(
        self, items: list[tuple[str, str, float | None]]
    ) -> GroupCapResult | None:
        """Batched ``set_cap`` through the resilience gates."""
        inner = self._inner
        if not hasattr(inner, "_execute_group_cap"):
            return None
        if getattr(inner, "_batch", None) is None:
            return None
        if not inner._group_allowed():
            inner.group_full_fallbacks += 1
            return None
        now_s = self._now()
        blocked = set(self._breakers)
        blocked.update(self.health.quarantined_endpoints(now_s))
        result = inner._execute_group_cap(items, blocked, self.call)
        demoted = self._settle_fast_lane(
            result.endpoints,
            result.rows,
            result.fast_mask,
            result.latencies,
            now_s,
        )
        for p in demoted:
            result.status[p] = "error"
        return result

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable resilience state.

        Captures the jitter RNG (a world-internal stream not reachable
        through the root :class:`~repro.simulation.rng.RngStreams`),
        per-endpoint breakers in insertion order, and the backoff
        accounting.  The :class:`~repro.core.health.HealthRegistry` is
        captured separately (it is shared with the controllers).
        """
        return {
            "rng": (
                None if self._rng is None else self._rng.bit_generator.state
            ),
            "backoff_waited_s": self.backoff_waited_s,
            "breakers": {
                endpoint: breaker.snapshot_state()
                for endpoint, breaker in self._breakers.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore resilience state; breakers are recreated lazily."""
        if self._rng is not None and state["rng"] is not None:
            self._rng.bit_generator.state = state["rng"]
        self.backoff_waited_s = float(state["backoff_waited_s"])
        self._breakers = {}
        for endpoint, breaker_state in state["breakers"].items():
            self.breaker(endpoint).restore_state(breaker_state)

    def __repr__(self) -> str:
        return (
            f"ResilientTransport(breakers={len(self._breakers)}, "
            f"policy=attempts<={self.policy.max_attempts})"
        )
