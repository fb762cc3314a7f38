"""Tests for the resilient RPC layer (call policy + circuit breakers)."""

import numpy as np
import pytest

from repro.core.health import HealthRegistry
from repro.errors import RpcError, RpcTimeoutError
from repro.rpc.resilient import (
    CONSECUTIVE_FAILURE_THRESHOLD,
    BreakerState,
    CircuitBreaker,
    ResilientTransport,
)
from repro.rpc.transport import RpcTransport


class FakeClock:
    """A settable simulation clock (the transport reads ``.now``)."""

    def __init__(self, now=0.0):
        self.now = now


def make_resilient(
    *, max_attempts=3, health=None, rng=None, clock=None, seed=0
):
    inner = RpcTransport(np.random.default_rng(seed))
    resilient = ResilientTransport(
        inner,
        max_attempts=max_attempts,
        health=health,
        rng=rng,
        clock=clock,
    )
    return resilient, inner


class TestHappyPath:
    def test_call_passes_through(self):
        resilient, _ = make_resilient()
        resilient.register("echo", lambda method, payload: (method, payload))
        assert resilient.call("echo", "ping", 42) == ("ping", 42)

    def test_one_inner_call_per_success(self):
        resilient, inner = make_resilient()
        resilient.register("x", lambda m, p: 1)
        for _ in range(10):
            resilient.call("x", "ping")
        assert inner.calls_made == 10

    def test_no_rng_draws_on_success(self):
        # The parity contract: the jitter stream is untouched unless a
        # retry actually happens, so a clean run is byte-identical with
        # and without the resilience layer.
        rng = np.random.default_rng(7)
        resilient, _ = make_resilient(rng=rng)
        resilient.register("x", lambda m, p: 1)
        for _ in range(25):
            resilient.call("x", "ping")
        assert rng.random() == np.random.default_rng(7).random()

    def test_delegation_surface(self):
        resilient, inner = make_resilient()
        resilient.register("x", lambda m, p: 1)
        assert resilient.endpoints == ["x"]
        assert resilient.inner is inner
        assert resilient.injector is inner.injector
        resilient.unregister("x")
        assert resilient.endpoints == []

    def test_broadcast_routes_through_resilient_path(self):
        resilient, _ = make_resilient()
        resilient.register("a", lambda m, p: "A")
        resilient.register("b", lambda m, p: "B")
        resilient.injector.take_down("b")
        results, failures = resilient.broadcast(["a", "b"], "ping")
        assert results == {"a": "A"}
        assert set(failures) == {"b"}


class TestBackoffSchedule:
    def test_same_seed_same_delays(self):
        a, _ = make_resilient(rng=np.random.default_rng(3))
        b, _ = make_resilient(rng=np.random.default_rng(3))
        delays_a = [a.backoff_delay_s(i) for i in range(1, 6)]
        delays_b = [b.backoff_delay_s(i) for i in range(1, 6)]
        assert delays_a == delays_b

    def test_jitter_bounded_around_exponential_schedule(self):
        # 0.05 s doubling per retry up to 1 s, jittered by up to ±50%.
        resilient, _ = make_resilient(rng=np.random.default_rng(11))
        for i in range(1, 8):
            pure = min(1.0, 0.05 * 2.0 ** (i - 1))
            delay = resilient.backoff_delay_s(i)
            assert pure * 0.5 <= delay <= pure * 1.5

    def test_no_rng_means_pure_exponential(self):
        resilient, _ = make_resilient(rng=None)
        assert resilient.backoff_delay_s(1) == pytest.approx(0.05)
        assert resilient.backoff_delay_s(2) == pytest.approx(0.1)
        assert resilient.backoff_delay_s(3) == pytest.approx(0.2)

    def test_backoff_capped_at_max(self):
        # 0.05 * 2**5 = 1.6 s is past the 1 s ceiling.
        resilient, _ = make_resilient(rng=None)
        assert resilient.backoff_delay_s(5) == pytest.approx(0.8)
        assert resilient.backoff_delay_s(6) == pytest.approx(1.0)
        assert resilient.backoff_delay_s(9) == pytest.approx(1.0)


class TestRetries:
    def test_retry_rescues_transient_failure(self):
        resilient, inner = make_resilient(max_attempts=3)
        failures_left = [2]

        def handler(method, payload):
            if failures_left[0] > 0:
                failures_left[0] -= 1
                raise RpcError("transient")
            return "ok"

        resilient.register("x", handler)
        assert resilient.call("x", "ping") == "ok"
        assert inner.calls_made == 3
        stats = resilient.health.stats("x")
        assert stats.retries == 2
        assert stats.retry_successes == 1
        assert stats.failures == 2
        assert stats.successes == 1

    def test_exhausted_retries_raise_last_error(self):
        resilient, inner = make_resilient(max_attempts=3)
        resilient.register("x", lambda m, p: 1)
        resilient.injector.take_down("x")
        with pytest.raises(RpcError):
            resilient.call("x", "ping")
        assert inner.calls_made == 3
        assert resilient.health.stats("x").failures == 3

    def test_backoff_time_accounted(self):
        # Without a jitter stream the one retry waits exactly 0.05 s.
        resilient, _ = make_resilient(max_attempts=2)
        resilient.register("x", lambda m, p: 1)
        resilient.injector.take_down("x")
        with pytest.raises(RpcError):
            resilient.call("x", "ping")
        assert resilient.backoff_waited_s == pytest.approx(0.05)


class TestDeadline:
    def test_slow_reply_is_a_timeout(self):
        # A latency spike far past the 1 s deadline: every attempt's
        # reply comes back "too late" and the call times out.
        resilient, inner = make_resilient(max_attempts=2)
        resilient.register("x", lambda m, p: 1)
        resilient.injector.set_endpoint_faults("x", extra_latency_mean_s=1e9)
        with pytest.raises(RpcTimeoutError):
            resilient.call("x", "ping")
        assert inner.calls_made == 2
        # The handler ran (side effects stand) but the call failed.
        assert resilient.health.stats("x").failures == 2

    def test_generous_deadline_passes(self):
        # Millisecond latencies sit far inside the 1 s deadline.
        resilient, _ = make_resilient()
        resilient.register("x", lambda m, p: 1)
        assert resilient.call("x", "ping") == 1


class TestCircuitBreakerUnit:
    def test_consecutive_failures_trip(self):
        # 12 attempt failures in a row trip the breaker.
        breaker = CircuitBreaker()
        for _ in range(CONSECUTIVE_FAILURE_THRESHOLD - 1):
            assert breaker.record_failure(0.0) is False
        assert breaker.record_failure(0.0) is True
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker()
        for _ in range(CONSECUTIVE_FAILURE_THRESHOLD - 1):
            breaker.record_failure(0.0)
        breaker.record_success(0.0)
        for _ in range(CONSECUTIVE_FAILURE_THRESHOLD - 1):
            breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_failure_rate_trips_without_consecutive_run(self):
        # Fail, fail, succeed: never 3 in a row, but 2/3 >= 60% once
        # the window holds its 25-sample minimum.
        breaker = CircuitBreaker()
        tripped_at = None
        for attempt in range(1, 40):
            if attempt % 3 == 0:
                breaker.record_success(0.0)
            elif breaker.record_failure(0.0):
                tripped_at = attempt
                break
        assert tripped_at == 25
        assert breaker.state is BreakerState.OPEN

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker()
        for _ in range(CONSECUTIVE_FAILURE_THRESHOLD):
            breaker.record_failure(0.0)
        breaker.half_open()
        breaker.record_success(10.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.opened_at_s is None

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker()
        for _ in range(CONSECUTIVE_FAILURE_THRESHOLD):
            breaker.record_failure(0.0)
        breaker.half_open()
        # A re-open is not a full trip: opens stays 1.
        assert breaker.record_failure(10.0) is False
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert breaker.reopens == 1
        # The next call probes again.
        breaker.half_open()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_zero_open_duration_probes_immediately(self):
        breaker = CircuitBreaker()
        for _ in range(CONSECUTIVE_FAILURE_THRESHOLD):
            breaker.record_failure(5.0)
        breaker.half_open()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_leaves_a_closed_breaker_alone(self):
        breaker = CircuitBreaker()
        breaker.half_open()
        assert breaker.state is BreakerState.CLOSED


class TestBreakerInTransport:
    def make_tripping(self, clock, **registry_kwargs):
        health = HealthRegistry(**registry_kwargs) if registry_kwargs else None
        resilient, inner = make_resilient(
            max_attempts=3, health=health, clock=clock
        )
        resilient.register("x", lambda m, p: 1)
        return resilient, inner

    @staticmethod
    def trip(resilient):
        """Call the downed endpoint until 12 failed attempts trip it."""
        for _ in range(CONSECUTIVE_FAILURE_THRESHOLD // 3):
            with pytest.raises(RpcError):
                resilient.call("x", "ping")
        assert resilient.breaker_state("x") == "open"

    def test_half_open_gets_single_probe_then_reopens(self):
        clock = FakeClock()
        resilient, inner = self.make_tripping(clock)
        resilient.injector.take_down("x")
        self.trip(resilient)
        made = inner.calls_made
        with pytest.raises(RpcError):
            resilient.call("x", "ping")
        # One probe, not a retry burst — and the breaker re-opened.
        assert inner.calls_made == made + 1
        assert resilient.breaker_state("x") == "open"
        assert resilient.breaker("x").reopens == 1

    def test_successful_probe_closes_breaker(self):
        clock = FakeClock()
        resilient, inner = self.make_tripping(clock)
        resilient.injector.take_down("x")
        self.trip(resilient)
        resilient.injector.restore("x")
        assert resilient.call("x", "ping") == 1
        assert resilient.breaker_state("x") == "closed"

    def test_quarantine_fails_fast_and_expires(self):
        clock = FakeClock()
        resilient, inner = self.make_tripping(clock, quarantine_after_opens=1)
        resilient.injector.take_down("x")
        self.trip(resilient)
        assert resilient.health.is_quarantined("x", clock.now)
        made = inner.calls_made
        with pytest.raises(RpcError, match="quarantined"):
            resilient.call("x", "ping")
        assert inner.calls_made == made
        # Quarantine expires with the clock (120 s); the breaker then
        # probes.
        resilient.injector.restore("x")
        clock.now = 119.0
        with pytest.raises(RpcError, match="quarantined"):
            resilient.call("x", "ping")
        clock.now = 120.0
        assert resilient.call("x", "ping") == 1

    def test_breaker_state_defaults_closed(self):
        resilient, _ = make_resilient()
        assert resilient.breaker_state("never-called") == "closed"
