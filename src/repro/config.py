"""The values a caller can set, with defaults taken from the paper.

A value lives here only when a world, a bench or the serve layer sets it
to something other than its default, or when it is an on/off toggle the
robustness ablation turns off.  The defaults reproduce the deployment
the paper describes:

* leaf controllers pull power every 3 s; upper controllers every 9 s (3x),
* the three-band algorithm caps at 99% of the breaker limit, targets 95%,
  and uncaps below a configurable lower threshold.

Every other number of the design is a module constant beside the code
that reads it: the 20 W bucket width in :mod:`repro.core.capping_plan`,
the 20% failed-pull abort in :mod:`repro.core.controller`, RAPL's ~2 s
settling in :mod:`repro.server.rapl`, the posture thresholds in
:mod:`repro.core.health`, the call policy and circuit-breaker thresholds
in :mod:`repro.rpc.resilient`, the watchdog ladder in
:mod:`repro.core.watchdog`, the estimator's in
:mod:`repro.estimation.disaggregator` and the governor's in
:mod:`repro.economics.governor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ThreeBandConfig:
    """Thresholds for the three-band capping/uncapping algorithm (Fig 10).

    All three values are fractions of the device power limit.  The paper
    uses a capping threshold of 99% of the breaker limit and a capping
    target "conservatively chosen to be 5% below the breaker limit".
    """

    capping_threshold: float = 0.99
    capping_target: float = 0.95
    uncapping_threshold: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 < self.uncapping_threshold < self.capping_target:
            raise ConfigurationError(
                "uncapping threshold must lie strictly below the capping target"
            )
        if not self.capping_target < self.capping_threshold <= 1.0:
            raise ConfigurationError(
                "capping target must lie strictly below the capping threshold"
            )


@dataclass(frozen=True)
class OperatingModeConfig:
    """Whether controllers run the NORMAL → DEGRADED → SAFE posture machine.

    A controller escalates after consecutive invalid cycles: DEGRADED
    defers uncapping and widens alerting; SAFE additionally applies a
    conservative fail-safe cap at the capping target
    (:class:`~repro.core.health.ModeStateMachine`).
    """

    enabled: bool = True


@dataclass(frozen=True)
class EstimationConfig:
    """Online power-disaggregation for degraded sensing (WattScope-style).

    When enabled, a leaf controller whose pull-failure fraction exceeds
    the paper's 20% abort threshold no longer aborts the cycle outright.
    Instead it distributes the device-metering residual (breaker-side
    aggregate minus the sum of measured servers) across the dark
    servers, weighted by per-service utilisation→power models fitted
    from healthy readings, and keeps capping against an
    uncertainty-inflated total in the SENSOR_DEGRADED posture
    (:mod:`repro.estimation.disaggregator`).

    Disabled by default: the paper's 20%-abort rule stays the reference
    behaviour, and fully healthy runs are bit-identical either way.
    """

    enabled: bool = False


@dataclass(frozen=True)
class EconomicsConfig:
    """Price/carbon-aware headroom shaping (the economics subsystem).

    When enabled, an :class:`~repro.economics.governor.EconomicGovernor`
    periodically scores the moment's electricity price and grid carbon
    intensity, and during expensive/dirty windows shapes *deferrable*
    demand (see the governor module for its thresholds).

    Disabled by default: economics-off runs are bit-identical to runs
    built before the subsystem existed.
    """

    enabled: bool = False
    #: Named entries in :data:`repro.economics.signals.SIGNALS`.
    price_signal: str = "price-diurnal"
    carbon_signal: str = "carbon-diurnal"

    def __post_init__(self) -> None:
        if not self.price_signal or not self.carbon_signal:
            raise ConfigurationError("signal names cannot be empty")


@dataclass(frozen=True)
class ResilienceConfig:
    """The RPC resilience layer between controllers and the transport.

    Deadline, backoff and circuit-breaker thresholds are constants of
    :mod:`repro.rpc.resilient`; quarantine's duration is one of
    :mod:`repro.core.health`.
    """

    enabled: bool = True
    #: Attempts per call, the first included; 1 disables retries.
    max_attempts: int = 3
    #: Quarantine an endpoint after this many full (closed → open)
    #: breaker trips; 0 disables quarantining.
    quarantine_after_opens: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max attempts must be >= 1")
        if self.quarantine_after_opens < 0:
            raise ConfigurationError("quarantine trip count cannot be negative")


@dataclass(frozen=True)
class ControllerConfig:
    """Timing and robustness parameters for Dynamo controllers."""

    leaf_pull_interval_s: float = 3.0
    upper_pull_interval_s: float = 9.0
    three_band: ThreeBandConfig = field(default_factory=ThreeBandConfig)
    mode: OperatingModeConfig = field(default_factory=OperatingModeConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)

    def __post_init__(self) -> None:
        if self.leaf_pull_interval_s <= 2.0:
            # Figure 9: RAPL takes ~2 s to settle; sampling faster than
            # that yields unstable readings.
            raise ConfigurationError(
                "leaf pull interval must exceed the 2 s RAPL settling time"
            )
        if self.upper_pull_interval_s < self.leaf_pull_interval_s:
            raise ConfigurationError(
                "upper-level pull interval must be >= the leaf pull interval"
            )


#: Physics backends the fleet driver can step servers with.
PHYSICS_BACKENDS = ("scalar", "vectorized")


@dataclass(frozen=True)
class DynamoConfig:
    """Top-level configuration for a Dynamo deployment.

    Leaf controllers sit at the RPP / PDU-breaker level: the paper skips
    rack-level controllers in the Facebook deployment (footnote 2).
    """

    controller: ControllerConfig = field(default_factory=ControllerConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    economics: EconomicsConfig = field(default_factory=EconomicsConfig)
