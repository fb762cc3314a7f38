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

from repro.errors import RpcError, RpcTimeoutError
from repro.rpc.transport import (
    GroupCapResult,
    GroupReadResult,
    Handler,
    Transport,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> rpc)
    from repro.core.health import HealthRegistry

#: A reply slower than this is a failed attempt, whatever it carried.
DEADLINE_S = 1.0
#: Retry ``n`` (1-based) waits ``BACKOFF_BASE_S * BACKOFF_MULTIPLIER**(n-1)``
#: seconds, at most ``BACKOFF_MAX_S``, jittered by up to
#: ``±JITTER_FRACTION`` from the simulation RNG so two runs of the same
#: seed retry on the identical schedule.
BACKOFF_BASE_S = 0.05
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_S = 1.0
JITTER_FRACTION = 0.5
#: A breaker trips on this many attempt failures in a row ...
CONSECUTIVE_FAILURE_THRESHOLD = 12
#: ... or on at least this failure rate over the last ``WINDOW_SIZE``
#: attempts, once ``MIN_SAMPLES`` have been seen.
FAILURE_RATE_THRESHOLD = 0.6
WINDOW_SIZE = 40
MIN_SAMPLES = 25


class BreakerState(enum.Enum):
    """Circuit-breaker state."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-endpoint circuit breaker.

    Trips from CLOSED on either :data:`CONSECUTIVE_FAILURE_THRESHOLD`
    attempt failures in a row or a failure rate of at least
    :data:`FAILURE_RATE_THRESHOLD` over the last :data:`WINDOW_SIZE`
    attempts (with at least :data:`MIN_SAMPLES` seen).  The open window
    is zero: the next call half-opens the breaker and runs as a single
    probe — success closes and resets, failure re-opens (a re-open,
    distinct from a full trip).  A tripped endpoint loses its retry
    burst, but recovery is detected on the first post-repair call: the
    breaker never makes a healed endpoint look dead.
    """

    def __init__(self, *, name: str = "") -> None:
        self.name = name
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: float | None = None
        #: Full CLOSED → OPEN trips (what quarantining counts).
        self.opens = 0
        #: HALF_OPEN probe failures sending the breaker back to OPEN.
        self.reopens = 0
        self._window: deque[bool] = deque(maxlen=WINDOW_SIZE)

    def half_open(self) -> None:
        """Let the next call through an OPEN breaker as its probe."""
        if self.state is BreakerState.OPEN:
            self.state = BreakerState.HALF_OPEN

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
                self.consecutive_failures >= CONSECUTIVE_FAILURE_THRESHOLD
                or self._rate_tripped()
            ):
                self.state = BreakerState.OPEN
                self.opened_at_s = now_s
                self.opens += 1
                return True
        return False

    def _rate_tripped(self) -> bool:
        if len(self._window) < MIN_SAMPLES:
            return False
        failures = sum(1 for ok in self._window if not ok)
        return failures / len(self._window) >= FAILURE_RATE_THRESHOLD

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
            (bool(ok) for ok in state["window"]), maxlen=WINDOW_SIZE
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
        max_attempts: int = 3,
        health: "HealthRegistry | None" = None,
        rng: np.random.Generator | None = None,
        clock=None,
    ) -> None:
        self._inner = inner
        #: Attempts per call, the first included (retries are the rest).
        self.max_attempts = max_attempts
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
            breaker = self._breakers[endpoint] = CircuitBreaker(name=endpoint)
        return breaker

    def breaker_state(self, endpoint: str) -> str:
        """Breaker state name for one endpoint ("closed" if never used)."""
        breaker = self._breakers.get(endpoint)
        return breaker.state.value if breaker else BreakerState.CLOSED.value

    def _now(self) -> float:
        return float(self._clock.now) if self._clock is not None else 0.0

    def backoff_delay_s(self, retry_index: int) -> float:
        """The (jittered) backoff before retry ``retry_index`` (1-based).

        Deterministic: the exponential schedule is fixed, the jitter
        comes from the dedicated RNG stream — same seed, same delays.
        Without an RNG the schedule is purely exponential.
        """
        delay = min(
            BACKOFF_MAX_S,
            BACKOFF_BASE_S * BACKOFF_MULTIPLIER ** (retry_index - 1),
        )
        if self._rng is not None:
            spread = JITTER_FRACTION * (2.0 * float(self._rng.random()) - 1.0)
            delay *= 1.0 + spread
        return delay

    # ------------------------------------------------------------------
    # The resilient call path
    # ------------------------------------------------------------------

    def call(self, endpoint: str, method: str, payload: Any = None) -> Any:
        """One logical call: quarantine gate → attempts.

        Raises:
            RpcError: all attempts failed, or the endpoint is
                quarantined.
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
        breaker.half_open()
        # A half-open breaker gets exactly one probe, not a retry burst.
        attempts = (
            1 if breaker.state is BreakerState.HALF_OPEN else self.max_attempts
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
                if latency > DEADLINE_S:
                    # The reply came back after the caller gave up: the
                    # handler's side effects stand, the result does not.
                    raise RpcTimeoutError(
                        f"call to {endpoint!r} exceeded the "
                        f"{DEADLINE_S:g} s deadline"
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

    def _credit_fast_lane(self, rows: "np.ndarray", fast: "np.ndarray") -> None:
        """Credit fast-lane successes to the batch's pending counters.

        No deadline check: a fast-lane endpoint has no injected latency
        (a latency spike drops it to the scalar lane), and a 2 ms
        exponential draw overruns the 1 s deadline with probability
        e^-500.
        """
        self._inner._batch.fast_successes[rows[fast]] += 1

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
        self._credit_fast_lane(plan.rows, result.fast_mask)
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
        self._credit_fast_lane(result.rows, result.fast_mask)
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
            f"attempts<={self.max_attempts})"
        )
