"""The EconomicGovernor: shape deferrable demand into cheap/clean hours.

The governor sits *above* the controller hierarchy and runs on a slow
cadence (minutes, vs seconds for the leaves).  Each tick it:

1. Scores the moment: price and carbon signals are normalized against
   their own envelopes and blended into one expensive/dirty score.
2. Water-fills a shaped power budget over the service priority groups.
   Every group first receives its SLA floor (the per-server minimum cap
   the registry already defines), then remaining budget pours into the
   highest-priority groups first — so the lowest group (batch: hadoop,
   f4storage) is what actually gets squeezed during expensive hours,
   exactly the group whose work can wait.
3. Actuates only *advisory*, never-loosening knobs: batch servers get a
   :class:`~repro.workloads.events.DeferModifier` utilization ceiling
   and their Turbo grants revoked, and leaf controllers receive
   proportionally tightened three-band configs via the existing
   ``set_band_config`` seam.  Scaling all three thresholds by a factor
   in (0, 1] keeps the band ordering invariants, and the scale is
   clamped to at most ``MAX_SHAPING`` below baseline — the governor can
   only make controllers cap *earlier*, never later.
4. Books the interval in the :class:`~repro.economics.ledger.CostCarbonLedger`.

Safety precedence is structural, not best-effort: a leaf whose
operating mode is not NORMAL (degraded sensing, SAFE fail-safe) has its
baseline band restored and receives no shaping until it recovers, and
deferral is force-released (and booked as an SLA-deadline miss) once a
batch deadline window has spent its allowed deferral budget.

A governor built with ``shaping=False`` meters without actuating — the
price-blind baseline with an identical physics trajectory, which is
what the scorecard comparisons and the econ benchmark lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.config import ThreeBandConfig
from repro.core.coordinator import PRIORITY_GOVERNOR
from repro.core.health import OperatingMode
from repro.economics.ledger import CostCarbonLedger
from repro.economics.signals import get_signal, normalized_score
from repro.errors import ConfigurationError
from repro.simulation.process import PeriodicProcess
from repro.workloads.events import DeferModifier
from repro.workloads.registry import service_spec

if TYPE_CHECKING:
    from repro.core.controller import PowerController
    from repro.core.dynamo import Dynamo
    from repro.fleet import Fleet
    from repro.simulation.engine import SimulationEngine

# Smoothing for the batch-group power baseline used in deferred-energy
# accounting; slow enough to ride out workload noise at minute cadence.
_EWMA_ALPHA = 0.2

# Allowance this close to 1.0 is "not squeezed" — avoids flapping the
# deferral state on float dust.
_ALLOWANCE_EPS = 1e-3

#: How often the governor re-scores the signals and re-shapes.
GOVERNOR_INTERVAL_S = 60.0
#: Weights of the normalized price and carbon scores in the composite;
#: they sum to 1.
PRICE_WEIGHT = 0.6
CARBON_WEIGHT = 0.4
#: Composite score in [0, 1] above which shaping begins.
SHAPE_THRESHOLD = 0.55
#: Deepest fractional cut water-filling may take from the fleet demand
#: budget; also the floor on advisory band scaling (bands never scale
#: below ``1 - MAX_SHAPING`` of baseline).
MAX_SHAPING = 0.25
#: Utilization ceiling applied to deferrable batch workloads while
#: their priority group is being shaped.
DEFER_CEILING = 0.40
#: SLA deadline window for deferred batch work, and the share of it
#: that may be spent deferred before the governor force-releases and
#: counts a deadline miss.
SLA_DEADLINE_S = 86400.0
SLA_MAX_DEFER_FRACTION = 0.5


@dataclass(frozen=True)
class GroupDemand:
    """One priority group's momentary demand and SLA floor, in watts."""

    group: int
    demand_w: float
    floor_w: float

    def __post_init__(self) -> None:
        if self.demand_w < 0 or self.floor_w < 0:
            raise ConfigurationError("group demand/floor cannot be negative")


def water_fill(
    groups: list[GroupDemand], budget_w: float
) -> dict[int, float]:
    """Allocate ``budget_w`` over priority groups, SLA floors first.

    Two passes, both highest-priority-group first (larger group number =
    higher priority, matching the leaf controllers' cap-lowest-first
    convention): every group first claims ``min(floor, demand)``, then
    the remainder pours until each group reaches its full demand.  The
    lowest group is therefore the first to be starved of
    headroom-above-floor — the batch work the governor exists to defer.
    """
    allocation = {g.group: 0.0 for g in groups}
    remaining = max(0.0, budget_w)
    ordered = sorted(groups, key=lambda g: g.group, reverse=True)
    for g in ordered:
        take = min(g.floor_w, g.demand_w, remaining)
        allocation[g.group] += take
        remaining -= take
    for g in ordered:
        take = min(g.demand_w - allocation[g.group], remaining)
        if take > 0.0:
            allocation[g.group] += take
            remaining -= take
    return allocation


def _active_instance(controller: "PowerController") -> Any:
    """Unwrap a failover pair to the instance currently in control."""
    return getattr(controller, "active", controller)


class EconomicGovernor:
    """Price/carbon-aware shaper above the upper controllers."""

    def __init__(
        self,
        engine: "SimulationEngine",
        dynamo: "Dynamo",
        fleet: "Fleet",
        *,
        shaping: bool = True,
    ) -> None:
        config = dynamo.config.economics
        if not config.enabled:
            raise ConfigurationError(
                "economics is disabled in this DynamoConfig; build the "
                "world with EconomicsConfig(enabled=True) to attach a "
                "governor"
            )
        self.config = config
        self.dynamo = dynamo
        self.fleet = fleet
        self.shaping = shaping
        self.price = get_signal(config.price_signal)
        self.carbon = get_signal(config.carbon_signal)
        self.ledger = CostCarbonLedger()
        # Baseline three-band configs, captured before any shaping, so
        # the governor always knows what "unshaped" means per leaf.
        self._baseline_bands: dict[str, ThreeBandConfig] = {
            name: _active_instance(ctrl).band.config
            for name, ctrl in sorted(
                dynamo.hierarchy.leaf_controllers.items()
            )
        }
        self._applied_scale: dict[str, float] = {}
        self._deferring = False
        self._turbo_disabled: list[str] = []
        self._window_start_s = float(engine.clock.now)
        self._window_deferred_s = 0.0
        self._window_missed = False
        self._group0_ewma_w = 0.0
        self.last_score = 0.0
        self.process = PeriodicProcess(
            engine,
            GOVERNOR_INTERVAL_S,
            self._tick,
            label="econ-governor",
            priority=PRIORITY_GOVERNOR,
        )
        dynamo.economics = self

    def start(self, phase: float = 0.0) -> None:
        """Begin governing."""
        self.process.start(phase)

    def stop(self) -> None:
        """Stop governing; applied shaping stays in place."""
        self.process.stop()

    @property
    def deferring(self) -> bool:
        """Whether a deferral window is currently open."""
        return self._deferring

    @property
    def applied_scale(self) -> dict[str, float]:
        """Per-leaf band scales currently in force (a copy)."""
        return dict(self._applied_scale)

    # ------------------------------------------------------------------
    # The governing tick
    # ------------------------------------------------------------------

    def _tick(self, now_s: float) -> None:
        price_n = normalized_score(self.price, now_s)
        carbon_n = normalized_score(self.carbon, now_s)
        score = PRICE_WEIGHT * price_n + CARBON_WEIGHT * carbon_n
        self.last_score = score
        excess = max(0.0, score - SHAPE_THRESHOLD) / (1.0 - SHAPE_THRESHOLD)
        interval_s = self.process.interval_s

        # Roll the SLA deadline window.
        while now_s - self._window_start_s >= SLA_DEADLINE_S:
            self._window_start_s += SLA_DEADLINE_S
            self._window_deferred_s = 0.0
            self._window_missed = False

        groups = self._group_demands()
        total_w = sum(g.demand_w for g in groups)
        budget_w = total_w * (1.0 - MAX_SHAPING * excess)
        allocation = water_fill(groups, budget_w)
        allowance = {
            g.group: (
                allocation[g.group] / g.demand_w if g.demand_w > 0 else 1.0
            )
            for g in groups
        }

        want_defer = (
            self.shaping
            and excess > 0.0
            and allowance.get(0, 1.0) < 1.0 - _ALLOWANCE_EPS
        )
        # SLA deadline floor: once this window has spent its deferral
        # budget, batch work must run regardless of price.
        defer_budget_s = SLA_MAX_DEFER_FRACTION * SLA_DEADLINE_S
        if want_defer and (
            self._window_deferred_s + interval_s > defer_budget_s
        ):
            want_defer = False
            if not self._window_missed:
                self._window_missed = True
                self.ledger.sla_deadline_misses += 1

        if want_defer and not self._deferring:
            self._start_deferral()
            self.ledger.defer_windows += 1
        elif self._deferring and not want_defer:
            self._end_deferral()
        if self._deferring:
            self._window_deferred_s += interval_s

        # Deferred-energy accounting: while deferring, the gap between
        # the batch group's smoothed undeferred draw and its actual draw
        # is energy shifted out of this (expensive) window.
        group0_w = sum(
            g.demand_w for g in groups if g.group == 0
        )
        if self._deferring:
            avoided_w = max(0.0, self._group0_ewma_w - group0_w)
            self.ledger.deferred_energy_kwh += (
                avoided_w * interval_s / 3_600_000.0
            )
        elif group0_w > 0.0:
            if self._group0_ewma_w == 0.0:
                self._group0_ewma_w = group0_w
            else:
                self._group0_ewma_w += _EWMA_ALPHA * (
                    group0_w - self._group0_ewma_w
                )

        shaped = False
        if self.shaping:
            shaped = self._apply_bands(allowance)

        self.ledger.record(
            time_s=now_s,
            interval_s=interval_s,
            power_w=self.fleet.total_power_w(),
            price_per_kwh=self.price.value(now_s),
            carbon_g_per_kwh=self.carbon.value(now_s),
            score=score,
            shaped=shaped or self._deferring,
            deferring=self._deferring,
        )

    def _group_demands(self) -> list[GroupDemand]:
        """Momentary per-priority-group demand and SLA floors."""
        demand: dict[int, float] = {}
        floor: dict[int, float] = {}
        for _, server in sorted(self.fleet.servers.items()):
            spec = service_spec(server.service)
            power = server.power_w()
            group = spec.priority_group
            demand[group] = demand.get(group, 0.0) + power
            floor[group] = floor.get(group, 0.0) + min(
                power, spec.sla_min_cap_w
            )
        return [
            GroupDemand(group=g, demand_w=demand[g], floor_w=floor[g])
            for g in sorted(demand)
        ]

    # ------------------------------------------------------------------
    # Actuation: batch deferral
    # ------------------------------------------------------------------

    def _deferrable_servers(self) -> list[tuple[str, Any]]:
        """(id, server) pairs in priority group 0, id-sorted."""
        return [
            (server_id, server)
            for server_id, server in sorted(self.fleet.servers.items())
            if service_spec(server.service).priority_group == 0
        ]

    def _start_deferral(self) -> None:
        modifier = DeferModifier(ceiling=DEFER_CEILING)
        self._turbo_disabled = []
        for server_id, server in self._deferrable_servers():
            server.workload.add_modifier(modifier)
            if server.turbo.enabled:
                server.turbo.disable()
                self._turbo_disabled.append(server_id)
        self._deferring = True

    def _end_deferral(self) -> None:
        modifier = DeferModifier(ceiling=DEFER_CEILING)
        for _, server in self._deferrable_servers():
            # Modifiers compare by value (frozen dataclass), so removal
            # finds the instance added at deferral start; guard anyway
            # in case a snapshot/restore rebuilt the list differently.
            if modifier in server.workload._modifiers:
                server.workload.remove_modifier(modifier)
        for server_id in self._turbo_disabled:
            server = self.fleet.servers.get(server_id)
            if server is not None:
                server.turbo.enable()
        self._turbo_disabled = []
        self._deferring = False

    # ------------------------------------------------------------------
    # Actuation: advisory bands
    # ------------------------------------------------------------------

    def _leaf_scale(self, name: str, allowance: dict[int, float]) -> float:
        """The band scale for one leaf: power-weighted group allowance."""
        instance = _active_instance(
            self.dynamo.hierarchy.leaf_controllers[name]
        )
        if instance.modes.mode is not OperatingMode.NORMAL:
            # Degraded/SAFE posture wins: restore the baseline band and
            # stand back until the controller recovers.
            return 1.0
        weighted = 0.0
        total = 0.0
        for server_id in instance.server_ids:
            server = self.fleet.servers.get(server_id)
            if server is None:
                continue
            power = server.power_w()
            group = service_spec(server.service).priority_group
            weighted += power * allowance.get(group, 1.0)
            total += power
        scale = weighted / total if total > 0.0 else 1.0
        scale = max(1.0 - MAX_SHAPING, min(1.0, scale))
        # Quantize to 1% steps: workload noise wiggles the power
        # weighting every tick, and sub-percent band churn is all cost
        # (a replacement per leaf per tick) and no control value.
        return round(scale, 2)

    def _scaled_band(self, name: str, scale: float) -> ThreeBandConfig:
        base = self._baseline_bands[name]
        if scale >= 1.0:
            return base
        return ThreeBandConfig(
            capping_threshold=base.capping_threshold * scale,
            capping_target=base.capping_target * scale,
            uncapping_threshold=base.uncapping_threshold * scale,
        )

    def _apply_bands(self, allowance: dict[int, float]) -> bool:
        shaped = False
        for name in self._baseline_bands:
            scale = self._leaf_scale(name, allowance)
            if scale < 1.0:
                shaped = True
            if abs(scale - self._applied_scale.get(name, 1.0)) < 1e-9:
                continue
            self.dynamo.set_band_config(name, self._scaled_band(name, scale))
            self._applied_scale[name] = scale
            self.ledger.band_adjustments += 1
        return shaped

    # ------------------------------------------------------------------
    # Snapshot/restore
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """Serialize governor + ledger state for bit-exact resume.

        The process schedule itself is captured by the world process
        registry (label ``econ-governor``), alongside every other
        periodic process.
        """
        return {
            "ledger": self.ledger.snapshot_state(),
            "applied_scale": dict(self._applied_scale),
            "deferring": self._deferring,
            "turbo_disabled": list(self._turbo_disabled),
            "window_start_s": self._window_start_s,
            "window_deferred_s": self._window_deferred_s,
            "window_missed": self._window_missed,
            "group0_ewma_w": self._group0_ewma_w,
            "last_score": self.last_score,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore governor state and reapply shaped bands.

        Controller snapshots capture band *hysteresis* but not band
        *config* — a restored world holds builder-fresh baseline bands —
        so any scale the governor had in force must be reapplied here.
        Deferral modifiers and Turbo posture are NOT reapplied: server
        snapshots already restore workload modifiers and turbo state.
        """
        self.ledger.restore_state(state["ledger"])
        self._applied_scale = {
            str(k): float(v) for k, v in state["applied_scale"].items()
        }
        self._deferring = bool(state["deferring"])
        self._turbo_disabled = [str(s) for s in state["turbo_disabled"]]
        self._window_start_s = float(state["window_start_s"])
        self._window_deferred_s = float(state["window_deferred_s"])
        self._window_missed = bool(state["window_missed"])
        self._group0_ewma_w = float(state["group0_ewma_w"])
        self.last_score = float(state["last_score"])
        for name, scale in sorted(self._applied_scale.items()):
            if name in self._baseline_bands and scale < 1.0:
                self.dynamo.set_band_config(
                    name, self._scaled_band(name, scale)
                )


__all__ = ["EconomicGovernor", "GroupDemand", "water_fill"]
