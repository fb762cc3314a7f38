"""Tests for endpoint health tracking and the operating-mode machine."""

import pytest

from repro.config import OperatingModeConfig
from repro.core.health import (
    EndpointHealth,
    HealthRegistry,
    ModeStateMachine,
    OperatingMode,
)
from repro.telemetry.alerts import AlertSink, Severity


class TestEndpointHealth:
    def test_failure_rate(self):
        stats = EndpointHealth("x")
        assert stats.failure_rate == 0.0
        stats.attempts, stats.failures = 4, 1
        assert stats.failure_rate == pytest.approx(0.25)

    def test_mean_latency_over_window(self):
        stats = EndpointHealth("x")
        assert stats.mean_latency_s == 0.0
        stats.latencies.extend([0.002, 0.004])
        assert stats.mean_latency_s == pytest.approx(0.003)

    def test_render_one_line(self):
        stats = EndpointHealth("agent:s0")
        stats.attempts, stats.successes = 5, 4
        line = stats.render(0.0)
        assert "agent:s0" in line
        assert "calls=4/5" in line
        assert line.endswith("ok")
        stats.quarantined_until_s = 10.0
        assert stats.render(0.0).endswith("quarantined")


class TestHealthRegistry:
    def test_success_failure_accounting(self):
        registry = HealthRegistry()
        registry.record_failure("x", 1.0)
        registry.record_success("x", 2.0, 0.001, retried=False)
        stats = registry.stats("x")
        assert stats.attempts == 2
        assert stats.successes == 1
        assert stats.failures == 1
        assert stats.consecutive_failures == 0
        assert stats.last_failure_s == 1.0
        assert stats.last_success_s == 2.0
        assert stats.retry_successes == 0

    def test_retried_success_counted(self):
        registry = HealthRegistry()
        registry.record_retry("x", 0.05)
        registry.record_success("x", 1.0, 0.001, retried=True)
        stats = registry.stats("x")
        assert stats.retries == 1
        assert stats.retry_successes == 1
        assert stats.backoff_waited_s == pytest.approx(0.05)

    def test_totals_span_endpoints(self):
        registry = HealthRegistry()
        registry.record_retry("a", 0.01)
        registry.record_retry("b", 0.01)
        registry.record_success("a", 1.0, 0.001, retried=True)
        assert registry.total_retries == 2
        assert registry.total_retry_successes == 1
        assert registry.endpoints == ["a", "b"]

    def test_unknown_endpoint_has_no_stats(self):
        registry = HealthRegistry()
        assert registry.stats("ghost") is None
        assert not registry.is_quarantined("ghost", 0.0)

    def test_quarantine_after_repeat_opens(self):
        # Quarantined for QUARANTINE_DURATION_S = 120 s.
        registry = HealthRegistry(quarantine_after_opens=2)
        registry.record_breaker_open("x", 0.0)
        assert not registry.is_quarantined("x", 0.0)
        registry.record_breaker_open("x", 10.0)
        assert registry.is_quarantined("x", 10.0)
        assert registry.is_quarantined("x", 129.0)
        assert not registry.is_quarantined("x", 130.0)
        stats = registry.stats("x")
        assert stats.breaker_opens == 2
        assert stats.quarantines == 1
        assert registry.total_breaker_opens == 2
        assert registry.total_quarantines == 1

    def test_quarantined_endpoints_listing(self):
        registry = HealthRegistry(quarantine_after_opens=1)
        registry.record_breaker_open("b", 0.0)
        registry.record_breaker_open("a", 0.0)
        registry.record_failure("c", 0.0)
        assert registry.quarantined_endpoints(1.0) == ["a", "b"]

    def test_release_lifts_quarantine_early(self):
        registry = HealthRegistry(quarantine_after_opens=1)
        registry.record_breaker_open("x", 0.0)
        assert registry.is_quarantined("x", 0.0)
        registry.release("x")
        assert not registry.is_quarantined("x", 0.0)

    def test_zero_threshold_disables_quarantine(self):
        registry = HealthRegistry(quarantine_after_opens=0)
        for _ in range(10):
            registry.record_breaker_open("x", 0.0)
        assert not registry.is_quarantined("x", 0.0)


def make_machine(alerts=None, **config_kwargs):
    config = OperatingModeConfig(**config_kwargs) if config_kwargs else None
    return ModeStateMachine(config, name="rpp0", alerts=alerts)


class TestModeEscalation:
    def test_starts_normal(self):
        assert make_machine().mode is OperatingMode.NORMAL

    def test_degraded_after_threshold(self):
        machine = make_machine()
        for i in range(3):
            mode = machine.record_invalid_cycle(float(i))
        assert mode is OperatingMode.DEGRADED
        assert machine.degraded_entries == 1

    def test_safe_after_larger_threshold(self):
        machine = make_machine()
        for i in range(6):
            mode = machine.record_invalid_cycle(float(i))
        assert mode is OperatingMode.SAFE
        assert machine.safe_entries == 1
        assert machine.degraded_entries == 1

    def test_valid_cycle_resets_invalid_streak(self):
        machine = make_machine()
        machine.record_invalid_cycle(0.0)
        machine.record_invalid_cycle(1.0)
        machine.record_valid_cycle(2.0)
        machine.record_invalid_cycle(3.0)
        machine.record_invalid_cycle(4.0)
        assert machine.mode is OperatingMode.NORMAL

    def test_transitions_recorded(self):
        machine = make_machine()
        for i in range(6):
            machine.record_invalid_cycle(float(i))
        assert machine.transitions == [
            (2.0, "normal", "degraded"),
            (5.0, "degraded", "safe"),
        ]

    def test_disabled_machine_stays_normal(self):
        machine = make_machine(enabled=False)
        for i in range(50):
            machine.record_invalid_cycle(float(i))
        assert machine.mode is OperatingMode.NORMAL
        assert machine.transitions == []

    def test_alert_severities(self):
        alerts = AlertSink()
        machine = make_machine(alerts=alerts)
        for i in range(6):
            machine.record_invalid_cycle(float(i))
        assert len(alerts.by_severity(Severity.WARNING)) == 1
        assert len(alerts.by_severity(Severity.CRITICAL)) == 1


class TestModeRecovery:
    def _escalate_to_safe(self, machine):
        for i in range(6):
            machine.record_invalid_cycle(float(i))
        assert machine.mode is OperatingMode.SAFE

    def test_recovery_steps_down_one_level(self):
        machine = make_machine()
        self._escalate_to_safe(machine)
        for i in range(5):
            mode = machine.record_valid_cycle(10.0 + i)
        assert mode is OperatingMode.DEGRADED

    def test_each_level_needs_its_own_run(self):
        # SAFE must not collapse straight to NORMAL: the hysteresis
        # counter resets at each step down.
        machine = make_machine()
        self._escalate_to_safe(machine)
        for i in range(9):
            machine.record_valid_cycle(10.0 + i)
        assert machine.mode is OperatingMode.DEGRADED
        machine.record_valid_cycle(19.0)
        assert machine.mode is OperatingMode.NORMAL

    def test_invalid_cycle_restarts_hysteresis(self):
        machine = make_machine()
        for i in range(3):
            machine.record_invalid_cycle(float(i))
        for i in range(4):
            machine.record_valid_cycle(3.0 + i)
        machine.record_invalid_cycle(7.0)
        assert machine.mode is OperatingMode.DEGRADED
        for i in range(4):
            machine.record_valid_cycle(8.0 + i)
        assert machine.mode is OperatingMode.DEGRADED
        machine.record_valid_cycle(12.0)
        assert machine.mode is OperatingMode.NORMAL

    def test_recovery_raises_info_alert(self):
        alerts = AlertSink()
        machine = make_machine(alerts=alerts)
        for i in range(3):
            machine.record_invalid_cycle(float(i))
        for i in range(5):
            machine.record_valid_cycle(3.0 + i)
        infos = alerts.by_severity(Severity.INFO)
        assert len(infos) == 1
        assert "recovered" in infos[0].message

    def test_deferred_uncaps_counted(self):
        machine = make_machine()
        machine.record_deferred_uncap()
        machine.record_deferred_uncap()
        assert machine.deferred_uncaps == 2



class TestModeConfigValidation:
    """The posture thresholds are constants; their ordering still holds."""

    def test_safe_threshold_must_exceed_degraded(self):
        from repro.core.health import (
            DEGRADED_AFTER_INVALID_CYCLES,
            SAFE_AFTER_INVALID_CYCLES,
        )

        assert 1 <= DEGRADED_AFTER_INVALID_CYCLES < SAFE_AFTER_INVALID_CYCLES
        machine = make_machine()
        for i in range(SAFE_AFTER_INVALID_CYCLES):
            machine.record_invalid_cycle(float(i))
        assert machine.degraded_entries == 1 and machine.safe_entries == 1

    def test_recovery_run_must_be_positive(self):
        from repro.core.health import RECOVERY_VALID_CYCLES

        assert RECOVERY_VALID_CYCLES >= 1
