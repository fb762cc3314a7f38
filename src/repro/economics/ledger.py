"""The cost/carbon ledger and scorecard.

The ledger is the economics subsystem's flight recorder: every governor
tick it books the interval's energy at the prevailing price and carbon
intensity, and tracks what the governor actually did about it (shaped
intervals, deferral windows, band adjustments, SLA-deadline misses).
The scorecard condenses a finished run into one comparable row, the
same way the chaos :class:`~repro.chaos.report.RobustnessScore` does
for fault drills — so a governed day and a price-blind day of the same
seed can sit side by side with their safety counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.analysis.report import Table
from repro.units import format_duration

if TYPE_CHECKING:
    from repro.world import World


@dataclass(frozen=True)
class LedgerSample:
    """One governor interval's booking."""

    time_s: float
    price_per_kwh: float
    carbon_g_per_kwh: float
    power_w: float
    energy_kwh: float
    cost: float
    carbon_g: float
    score: float
    shaped: bool
    deferring: bool


class CostCarbonLedger:
    """Accumulates per-interval cost/carbon bookings for one run."""

    def __init__(self) -> None:
        self.samples: list[LedgerSample] = []
        self.energy_kwh = 0.0
        self.cost = 0.0
        self.carbon_g = 0.0
        self.deferred_energy_kwh = 0.0
        self.deferral_active_s = 0.0
        self.defer_windows = 0
        self.sla_deadline_misses = 0
        self.band_adjustments = 0
        self.shaped_intervals = 0

    def record(
        self,
        *,
        time_s: float,
        interval_s: float,
        power_w: float,
        price_per_kwh: float,
        carbon_g_per_kwh: float,
        score: float,
        shaped: bool,
        deferring: bool,
    ) -> LedgerSample:
        """Book one interval (rectangle rule at current power/price)."""
        energy_kwh = power_w * interval_s / 3_600_000.0
        sample = LedgerSample(
            time_s=time_s,
            price_per_kwh=price_per_kwh,
            carbon_g_per_kwh=carbon_g_per_kwh,
            power_w=power_w,
            energy_kwh=energy_kwh,
            cost=energy_kwh * price_per_kwh,
            carbon_g=energy_kwh * carbon_g_per_kwh,
            score=score,
            shaped=shaped,
            deferring=deferring,
        )
        self.samples.append(sample)
        self.energy_kwh += sample.energy_kwh
        self.cost += sample.cost
        self.carbon_g += sample.carbon_g
        if shaped:
            self.shaped_intervals += 1
        if deferring:
            self.deferral_active_s += interval_s
        return sample

    @property
    def last_sample(self) -> LedgerSample | None:
        """The most recent booking, if any."""
        return self.samples[-1] if self.samples else None

    def summary(self) -> dict[str, Any]:
        """Totals as a plain dict (health/serve views, CI smoke)."""
        return {
            "samples": len(self.samples),
            "energy_kwh": self.energy_kwh,
            "cost": self.cost,
            "carbon_kg": self.carbon_g / 1000.0,
            "deferred_energy_kwh": self.deferred_energy_kwh,
            "deferral_active_s": self.deferral_active_s,
            "defer_windows": self.defer_windows,
            "sla_deadline_misses": self.sla_deadline_misses,
            "band_adjustments": self.band_adjustments,
            "shaped_intervals": self.shaped_intervals,
        }

    def snapshot_state(self) -> dict[str, Any]:
        """Serialize for bit-exact resume."""
        return {
            "samples": [
                {
                    "time_s": s.time_s,
                    "price_per_kwh": s.price_per_kwh,
                    "carbon_g_per_kwh": s.carbon_g_per_kwh,
                    "power_w": s.power_w,
                    "energy_kwh": s.energy_kwh,
                    "cost": s.cost,
                    "carbon_g": s.carbon_g,
                    "score": s.score,
                    "shaped": s.shaped,
                    "deferring": s.deferring,
                }
                for s in self.samples
            ],
            "energy_kwh": self.energy_kwh,
            "cost": self.cost,
            "carbon_g": self.carbon_g,
            "deferred_energy_kwh": self.deferred_energy_kwh,
            "deferral_active_s": self.deferral_active_s,
            "defer_windows": self.defer_windows,
            "sla_deadline_misses": self.sla_deadline_misses,
            "band_adjustments": self.band_adjustments,
            "shaped_intervals": self.shaped_intervals,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild ledger contents from :meth:`snapshot_state` output."""
        self.samples = [LedgerSample(**s) for s in state["samples"]]
        self.energy_kwh = state["energy_kwh"]
        self.cost = state["cost"]
        self.carbon_g = state["carbon_g"]
        self.deferred_energy_kwh = state["deferred_energy_kwh"]
        self.deferral_active_s = state["deferral_active_s"]
        self.defer_windows = state["defer_windows"]
        self.sla_deadline_misses = state["sla_deadline_misses"]
        self.band_adjustments = state["band_adjustments"]
        self.shaped_intervals = state["shaped_intervals"]


@dataclass(frozen=True)
class EconScore:
    """One run's economics scorecard row (cost, carbon, and safety)."""

    scenario: str
    seed: int
    governed: bool
    duration_s: float
    energy_kwh: float
    cost: float
    carbon_kg: float
    mean_price: float
    deferred_energy_kwh: float
    deferral_active_s: float
    defer_windows: int
    sla_deadline_misses: int
    band_adjustments: int
    shaped_intervals: int
    breaker_trips: int
    cap_events: int
    safe_entries: int


def build_econ_scorecard(world: "World") -> EconScore:
    """Condense a finished economics world into one scorecard row."""
    governor = world.governor
    if governor is None:
        raise ValueError("world has no economic governor to score")
    ledger = governor.ledger
    kwargs = (world.recipe or {}).get("kwargs", {})
    duration_s = float(world.now_s)
    mean_price = ledger.cost / ledger.energy_kwh if ledger.energy_kwh else 0.0
    return EconScore(
        scenario=world.name,
        seed=int(kwargs.get("seed", 0)),
        governed=bool(kwargs.get("governed", governor.shaping)),
        duration_s=duration_s,
        energy_kwh=ledger.energy_kwh,
        cost=ledger.cost,
        carbon_kg=ledger.carbon_g / 1000.0,
        mean_price=mean_price,
        deferred_energy_kwh=ledger.deferred_energy_kwh,
        deferral_active_s=ledger.deferral_active_s,
        defer_windows=ledger.defer_windows,
        sla_deadline_misses=ledger.sla_deadline_misses,
        band_adjustments=ledger.band_adjustments,
        shaped_intervals=ledger.shaped_intervals,
        breaker_trips=len(world.driver.trips),
        cap_events=world.dynamo.total_cap_events(),
        safe_entries=world.dynamo.safe_mode_entries(),
    )


def render_econ_scorecard(*scores: EconScore) -> str:
    """Render one or more scorecards side by side as a text table.

    Passing the governed and price-blind runs of the same seed together
    is the intended use: the cost/carbon rows should diverge while the
    safety rows (trips, SAFE entries, SLA misses) stay identical.
    """
    if not scores:
        raise ValueError("need at least one score to render")
    columns = ["metric"] + [
        f"{s.scenario} ({'governed' if s.governed else 'blind'})"
        for s in scores
    ]
    table = Table("Cost/carbon scorecard", columns)
    table.add_row("seed", *[s.seed for s in scores])
    table.add_row(
        "duration", *[format_duration(s.duration_s) for s in scores]
    )
    table.add_row(
        "energy", *[f"{s.energy_kwh:.1f} kWh" for s in scores]
    )
    table.add_row("cost", *[f"${s.cost:.2f}" for s in scores])
    table.add_row("carbon", *[f"{s.carbon_kg:.1f} kgCO2" for s in scores])
    table.add_row(
        "mean price paid", *[f"${s.mean_price:.4f}/kWh" for s in scores]
    )
    table.add_row(
        "deferred energy",
        *[f"{s.deferred_energy_kwh:.1f} kWh" for s in scores],
    )
    table.add_row(
        "deferral active",
        *[format_duration(s.deferral_active_s) for s in scores],
    )
    table.add_row("defer windows", *[s.defer_windows for s in scores])
    table.add_row(
        "shaped intervals", *[s.shaped_intervals for s in scores]
    )
    table.add_row(
        "band adjustments", *[s.band_adjustments for s in scores]
    )
    table.add_row(
        "SLA deadline misses", *[s.sla_deadline_misses for s in scores]
    )
    table.add_row("breaker trips", *[s.breaker_trips for s in scores])
    table.add_row("cap events", *[s.cap_events for s in scores])
    table.add_row("SAFE entries", *[s.safe_entries for s in scores])
    return table.render()


__all__ = [
    "CostCarbonLedger",
    "EconScore",
    "LedgerSample",
    "build_econ_scorecard",
    "render_econ_scorecard",
]
