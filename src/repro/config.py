"""Central configuration dataclasses with defaults taken from the paper.

Every tunable in the reproduction lives here so experiments can be described
as configuration deltas.  The defaults reproduce the deployment the paper
describes:

* leaf controllers pull power every 3 s; upper controllers every 9 s (3x),
* the three-band algorithm caps at 99% of the breaker limit, targets 95%,
  and uncaps below a configurable lower threshold,
* the high-bucket-first allocator uses 20 W buckets,
* RAPL capping settles in roughly 2 s.
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
    """Degraded-mode state machine (NORMAL → DEGRADED → SAFE) knobs.

    A controller escalates after consecutive invalid cycles: DEGRADED
    defers uncapping and widens alerting; SAFE additionally applies a
    conservative fail-safe cap at the capping target.  Recovery walks
    back one level per ``recovery_valid_cycles`` consecutive valid
    cycles (hysteresis, so one good cycle amid a storm does not bounce
    the posture).
    """

    enabled: bool = True
    degraded_after_invalid_cycles: int = 3
    safe_after_invalid_cycles: int = 6
    recovery_valid_cycles: int = 5

    def __post_init__(self) -> None:
        if self.degraded_after_invalid_cycles < 1:
            raise ConfigurationError(
                "degraded escalation threshold must be >= 1 invalid cycle"
            )
        if self.safe_after_invalid_cycles <= self.degraded_after_invalid_cycles:
            raise ConfigurationError(
                "safe escalation threshold must exceed the degraded threshold"
            )
        if self.recovery_valid_cycles < 1:
            raise ConfigurationError(
                "recovery hysteresis must be >= 1 valid cycle"
            )


@dataclass(frozen=True)
class EstimationConfig:
    """Online power-disaggregation for degraded sensing (WattScope-style).

    When enabled, a leaf controller whose pull-failure fraction exceeds
    ``ControllerConfig.max_reading_failure_fraction`` no longer aborts
    the cycle outright.  Instead it distributes the device-metering
    residual (breaker-side aggregate minus the sum of measured servers)
    across the dark servers, weighted by per-service utilisation→power
    models fitted from healthy readings, and keeps capping against an
    uncertainty-inflated total in the SENSOR_DEGRADED posture.  Only
    when coverage drops below ``safe_coverage`` does the controller give
    up the cycle and let the legacy invalid-cycle escalation reach SAFE.

    Disabled by default: the paper's 20%-abort rule stays the reference
    behaviour, and fully healthy runs are bit-identical either way.
    """

    enabled: bool = False
    #: Below this measured+stale coverage the estimate is not trusted:
    #: the cycle is invalid and the controller escalates toward SAFE.
    safe_coverage: float = 0.40
    #: EWMA smoothing for the per-service mean-power models and their
    #: relative fit error.
    ewma_alpha: float = 0.2
    #: Aggregate margin per uncertain watt: the sensed total grows by
    #: ``inflation * sum(power * (1 - confidence))`` over uncertain
    #: readings, so degraded sensing can only over-cap, never under-cap.
    uncertainty_inflation: float = 1.5
    #: Confidence floor for model-estimated and stale readings.
    min_confidence: float = 0.05
    #: Last-resort per-server estimate when no model data exists.
    default_power_w: float = 200.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.safe_coverage <= 1.0:
            raise ConfigurationError(
                "safe coverage must be within [0, 1]"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError(
                "estimation EWMA alpha must be within (0, 1]"
            )
        if self.uncertainty_inflation < 0.0:
            raise ConfigurationError(
                "uncertainty inflation cannot be negative"
            )
        if not 0.0 <= self.min_confidence < 1.0:
            raise ConfigurationError(
                "minimum confidence must be within [0, 1)"
            )
        if self.default_power_w <= 0.0:
            raise ConfigurationError(
                "default estimated power must be positive"
            )


@dataclass(frozen=True)
class EconomicsConfig:
    """Price/carbon-aware headroom shaping (the economics subsystem).

    When enabled, an :class:`~repro.economics.governor.EconomicGovernor`
    periodically scores the moment's electricity price and grid carbon
    intensity, and during expensive/dirty windows shapes *deferrable*
    demand: batch workloads are deferred (utilization ceiling + Turbo
    disabled) and leaf controllers receive tightened advisory three-band
    configs via ``set_band_config``.  Shaping is advisory only — bands
    are scaled by at most ``max_shaping`` and never loosened, SAFE /
    SENSOR_DEGRADED postures take precedence, and deferral is bounded by
    SLA deadline floors.

    Disabled by default: economics-off runs are bit-identical to runs
    built before the subsystem existed.
    """

    enabled: bool = False
    #: How often the governor re-scores the signals and re-shapes.
    governor_interval_s: float = 60.0
    #: Named entries in :data:`repro.economics.signals.SIGNALS`.
    price_signal: str = "price-diurnal"
    carbon_signal: str = "carbon-diurnal"
    #: Relative weights of the normalized price and carbon scores in the
    #: composite (renormalized to sum to 1).
    price_weight: float = 0.6
    carbon_weight: float = 0.4
    #: Composite score in [0, 1] above which shaping begins.
    shape_threshold: float = 0.55
    #: Deepest fractional cut water-filling may take from the fleet
    #: demand budget; also the floor on advisory band scaling (bands
    #: never scale below ``1 - max_shaping`` of baseline).
    max_shaping: float = 0.25
    #: Utilization ceiling applied to deferrable batch workloads while
    #: their priority group is being shaped.
    defer_ceiling: float = 0.40
    #: SLA deadline window for deferred batch work.
    sla_deadline_s: float = 86400.0
    #: At most this fraction of a deadline window may be spent deferred;
    #: beyond it the governor force-releases and counts a deadline miss.
    sla_max_defer_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.governor_interval_s <= 0:
            raise ConfigurationError("governor interval must be positive")
        if not self.price_signal or not self.carbon_signal:
            raise ConfigurationError("signal names cannot be empty")
        if self.price_weight < 0 or self.carbon_weight < 0:
            raise ConfigurationError("signal weights cannot be negative")
        if self.price_weight + self.carbon_weight <= 0:
            raise ConfigurationError("at least one signal weight must be > 0")
        if not 0.0 <= self.shape_threshold < 1.0:
            raise ConfigurationError("shape threshold must be within [0, 1)")
        if not 0.0 < self.max_shaping < 1.0:
            raise ConfigurationError("max shaping must be within (0, 1)")
        if not 0.0 < self.defer_ceiling <= 1.0:
            raise ConfigurationError("defer ceiling must be within (0, 1]")
        if self.sla_deadline_s <= 0:
            raise ConfigurationError("SLA deadline window must be positive")
        if not 0.0 < self.sla_max_defer_fraction <= 1.0:
            raise ConfigurationError(
                "SLA max defer fraction must be within (0, 1]"
            )


@dataclass(frozen=True)
class CallPolicyConfig:
    """Per-call resilience policy: deadline, retries, backoff.

    Backoff delays follow ``base * multiplier**(retry-1)`` capped at
    ``backoff_max_s`` with a deterministic jitter of up to
    ``±jitter_fraction`` drawn from the simulation RNG, so two runs of
    the same seed retry on the identical schedule.
    """

    deadline_s: float = 1.0
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 1.0
    jitter_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ConfigurationError("call deadline must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff times cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError("jitter fraction must be within [0, 1)")


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Per-endpoint circuit-breaker thresholds.

    The breaker trips on either ``consecutive_failure_threshold``
    attempt failures in a row or a failure rate of at least
    ``failure_rate_threshold`` over the last ``window_size`` attempts
    (once ``min_samples`` have been seen).  While open it rejects calls
    until ``open_duration_s`` elapses, then half-opens and lets one
    probe through.  The default zero open window means the very next
    call probes: a tripped endpoint loses its retry burst but recovery
    is detected on the first post-repair call — the breaker never makes
    a healed endpoint look dead.
    """

    consecutive_failure_threshold: int = 12
    failure_rate_threshold: float = 0.6
    window_size: int = 40
    min_samples: int = 25
    open_duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.consecutive_failure_threshold < 1:
            raise ConfigurationError(
                "consecutive failure threshold must be >= 1"
            )
        if not 0.0 < self.failure_rate_threshold <= 1.0:
            raise ConfigurationError(
                "failure rate threshold must be within (0, 1]"
            )
        if self.window_size < self.min_samples or self.min_samples < 1:
            raise ConfigurationError(
                "breaker window must hold at least min_samples (>= 1) attempts"
            )
        if self.open_duration_s < 0:
            raise ConfigurationError("open duration cannot be negative")


@dataclass(frozen=True)
class ResilienceConfig:
    """The RPC resilience layer between controllers and the transport."""

    enabled: bool = True
    call: CallPolicyConfig = field(default_factory=CallPolicyConfig)
    breaker: CircuitBreakerConfig = field(default_factory=CircuitBreakerConfig)
    #: Quarantine an endpoint after this many full (closed → open)
    #: breaker trips; 0 disables quarantining.
    quarantine_after_opens: int = 3
    quarantine_duration_s: float = 120.0

    def __post_init__(self) -> None:
        if self.quarantine_after_opens < 0:
            raise ConfigurationError("quarantine trip count cannot be negative")
        if self.quarantine_duration_s < 0:
            raise ConfigurationError("quarantine duration cannot be negative")


@dataclass(frozen=True)
class ControllerConfig:
    """Timing and robustness parameters for Dynamo controllers."""

    leaf_pull_interval_s: float = 3.0
    upper_pull_interval_s: float = 9.0
    rpc_timeout_s: float = 1.0
    max_reading_failure_fraction: float = 0.20
    #: Serve a cached last-known-good reading for a failed pull when it
    #: is at most this old (stale-tolerant sensing); 0 disables the
    #: cache and failed pulls go straight to neighbour estimation.
    reading_cache_ttl_s: float = 0.0
    three_band: ThreeBandConfig = field(default_factory=ThreeBandConfig)
    mode: OperatingModeConfig = field(default_factory=OperatingModeConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)

    def __post_init__(self) -> None:
        if self.reading_cache_ttl_s < 0:
            raise ConfigurationError("reading cache TTL cannot be negative")
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
        if not 0.0 <= self.max_reading_failure_fraction <= 1.0:
            raise ConfigurationError(
                "max reading failure fraction must be within [0, 1]"
            )


@dataclass(frozen=True)
class BucketConfig:
    """High-bucket-first allocation parameters (Section III-C3).

    The paper finds bucket sizes between 10 and 30 W work well and deploys
    20 W buckets.
    """

    bucket_width_w: float = 20.0

    def __post_init__(self) -> None:
        if self.bucket_width_w <= 0:
            raise ConfigurationError("bucket width must be positive")


@dataclass(frozen=True)
class RaplConfig:
    """Behaviour of the simulated RAPL power-limiting module."""

    settling_time_s: float = 2.0
    min_limit_w: float = 50.0
    enforcement_slack_w: float = 1.0

    def __post_init__(self) -> None:
        if self.settling_time_s <= 0:
            raise ConfigurationError("settling time must be positive")
        if self.min_limit_w < 0:
            raise ConfigurationError("minimum RAPL limit cannot be negative")


@dataclass(frozen=True)
class AgentConfig:
    """Per-server Dynamo agent parameters.

    The watchdog fields govern the restart policy: an agent that keeps
    failing health checks is restarted with exponential backoff
    (``base * 2**(n-1)`` seconds after its n-th consecutive restart,
    capped at ``watchdog_backoff_max_s``) and at most
    ``watchdog_restart_budget`` restarts per
    ``watchdog_budget_window_s`` window, so a crash-looping agent cannot
    consume the watchdog forever.
    """

    rapl: RaplConfig = field(default_factory=RaplConfig)
    sensor_noise_fraction: float = 0.005
    watchdog_interval_s: float = 30.0
    watchdog_backoff_base_s: float = 30.0
    watchdog_backoff_max_s: float = 480.0
    watchdog_restart_budget: int = 8
    watchdog_budget_window_s: float = 900.0

    def __post_init__(self) -> None:
        if self.watchdog_backoff_base_s < 0 or self.watchdog_backoff_max_s < 0:
            raise ConfigurationError("watchdog backoff times cannot be negative")
        if self.watchdog_restart_budget < 1:
            raise ConfigurationError("watchdog restart budget must be >= 1")
        if self.watchdog_budget_window_s <= 0:
            raise ConfigurationError("watchdog budget window must be positive")


#: Physics backends the fleet driver can step servers with.
PHYSICS_BACKENDS = ("scalar", "vectorized")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide knobs the deployment reads while it builds.

    ``prefetch_draws`` is the per-server block size of pre-drawn
    sensor-noise normals in the batched control plane
    (:class:`~repro.core.agent_batch.AgentBatch`); it trades refill
    frequency against rewind cost on foreign draws and has no effect on
    results.
    """

    prefetch_draws: int = 64
    #: Whether leaf controllers can read device/breaker-side metering
    #: (``PowerDevice.power_w``).  The disaggregation estimator needs it
    #: for the aggregate residual; with metering unavailable an enabled
    #: estimator is detached and degraded sensing falls back to the
    #: paper's abort-and-alert rule.
    device_metering: bool = True

    def __post_init__(self) -> None:
        if self.prefetch_draws < 1:
            raise ConfigurationError("prefetch block must hold >= 1 draw")


@dataclass(frozen=True)
class SnapshotConfig:
    """World checkpoint/restore behaviour.

    ``include_traces`` controls whether per-tick control-cycle traces
    ride along in a snapshot.  Dropping them keeps snapshot files small
    for fork sweeps but makes resumed-run fingerprints differ from an
    uninterrupted run in the trace section, so bit-exact verification
    keeps it on.  ``fork_stream`` names the RNG namespace branch seeds
    are derived from in :func:`repro.state.fork.fork_world`.
    """

    include_traces: bool = True
    fork_stream: str = "branch"

    def __post_init__(self) -> None:
        if not self.fork_stream:
            raise ConfigurationError("fork stream name cannot be empty")


@dataclass(frozen=True)
class DynamoConfig:
    """Top-level configuration for a Dynamo deployment."""

    controller: ControllerConfig = field(default_factory=ControllerConfig)
    bucket: BucketConfig = field(default_factory=BucketConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    snapshot: SnapshotConfig = field(default_factory=SnapshotConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    economics: EconomicsConfig = field(default_factory=EconomicsConfig)
    # The paper skips rack-level controllers in the Facebook deployment
    # (footnote 2): leaf controllers sit at the RPP / PDU-breaker level.
    leaf_level: str = "rpp"
    enable_backup_controllers: bool = True
