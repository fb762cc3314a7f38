"""Breaker-reading validation and dynamic estimator recalibration.

Section VI, "Use accurate estimation for missing power information":
breaker power readings are too coarse (minute-grained) for control, but
Dynamo uses them to *validate* the server-side aggregation and to
*dynamically tune* the power estimators when the two drift apart.

:class:`BreakerValidator` periodically compares a leaf controller's
aggregate against the (downsampled, delayed) breaker-side reading.
Persistent drift beyond tolerance triggers either an alert (sensor
aggregation — something is wrong) or a recalibration of the servers'
estimation models (estimated aggregation — tune the models).
"""

from __future__ import annotations

from repro.core.coordinator import PRIORITY_BREAKER_READING, PRIORITY_VALIDATOR
from repro.core.leaf_controller import LeafPowerController
from repro.errors import ConfigurationError
from repro.power.device import PowerDevice
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import PeriodicProcess
from repro.telemetry.alerts import AlertSink, Severity
from repro.telemetry.timeseries import TimeSeries


class BreakerReadingSource:
    """Minute-grained breaker-side power readings with reporting delay.

    Real breaker telemetry updates on the order of minutes; we sample
    the device's true power on that coarse interval and serve the most
    recent *completed* sample, like the real feed would.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        device: PowerDevice,
        *,
        interval_s: float = 60.0,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("breaker reading interval must be positive")
        self.device = device
        self.series = TimeSeries(f"{device.name}.breaker")
        self._process = PeriodicProcess(
            engine,
            interval_s,
            self._sample,
            label=f"breaker-reading.{device.name}",
            priority=PRIORITY_BREAKER_READING,
        )

    def start(self, phase: float = 0.0) -> None:
        """Begin sampling."""
        self._process.start(phase)

    def stop(self) -> None:
        """Stop sampling."""
        self._process.stop()

    def _sample(self, now_s: float) -> None:
        self.series.append(now_s, self.device.power_w())

    def latest_reading_w(self) -> float | None:
        """Most recent completed breaker reading, or None if none yet."""
        if len(self.series) == 0:
            return None
        return self.series.latest()[1]


class BreakerValidator:
    """Cross-checks aggregates against breaker readings, recalibrating.

    On each validation tick:

    * drift within tolerance — nothing to do;
    * drift beyond tolerance — count a strike; after
      ``strikes_before_action`` consecutive strikes, either recalibrate
      the fleet's estimators toward the breaker reading (when enabled)
      or raise a WARNING alert for humans.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        controller: LeafPowerController,
        source: BreakerReadingSource,
        *,
        interval_s: float = 120.0,
        tolerance_fraction: float = 0.08,
        strikes_before_action: int = 2,
        recalibrate: bool = True,
        servers: dict | None = None,
        alerts: AlertSink | None = None,
    ) -> None:
        if not 0.0 < tolerance_fraction < 1.0:
            raise ConfigurationError("tolerance must be in (0, 1)")
        self._controller = controller
        self._source = source
        self._tolerance = tolerance_fraction
        self._strike_limit = max(1, strikes_before_action)
        self._recalibrate = recalibrate
        self._servers = servers or {}
        self.alerts = alerts or controller.alerts
        self._strikes = 0
        self.recalibrations = 0
        self.validations = 0
        self._process = PeriodicProcess(
            engine,
            interval_s,
            self._tick,
            label=f"breaker-validator.{controller.name}",
            priority=PRIORITY_VALIDATOR,
        )

    def start(self, phase: float = 0.0) -> None:
        """Begin validating."""
        self._process.start(phase)

    def stop(self) -> None:
        """Stop validating."""
        self._process.stop()

    def _tick(self, now_s: float) -> None:
        aggregate = self._controller.last_aggregate_power_w
        breaker = self._source.latest_reading_w()
        if aggregate is None or breaker is None or breaker <= 0.0:
            return
        self.validations += 1
        drift = (aggregate - breaker) / breaker
        if abs(drift) <= self._tolerance:
            self._strikes = 0
            return
        self._strikes += 1
        if self._strikes < self._strike_limit:
            return
        self._strikes = 0
        if self._recalibrate and self._servers:
            self._apply_recalibration(breaker / aggregate)
            self.recalibrations += 1
            self.alerts.raise_alert(
                now_s,
                Severity.INFO,
                self._controller.name,
                f"estimators recalibrated by {breaker / aggregate:.3f} "
                f"after {100 * drift:+.1f}% drift from breaker reading",
            )
        else:
            self.alerts.raise_alert(
                now_s,
                Severity.WARNING,
                self._controller.name,
                f"aggregate drifts {100 * drift:+.1f}% from breaker "
                "reading; check sensors",
            )

    def _apply_recalibration(self, scale: float) -> None:
        # Clamp per-pass adjustment: breaker feeds are coarse and noisy,
        # so tune gently; repeated passes converge.
        scale = min(1.25, max(0.75, scale))
        for server in self._servers.values():
            server.estimator = server.estimator.recalibrate(scale)
