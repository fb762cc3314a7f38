"""Recipe-built economics worlds (the ``repro econ`` scenarios).

An economics scenario is the quickstart deployment plus a batch tier
worth shifting: hadoop servers (priority group 0, Turbo granted) ride
alongside the web and cache tiers, and an
:class:`~repro.economics.governor.EconomicGovernor` governs against a
named price/carbon signal pair.  Building with ``governed=False``
attaches a metering-only governor — the price-blind baseline with an
identical physics trajectory, so governed-vs-blind comparisons isolate
exactly what shaping changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DynamoConfig, EconomicsConfig
from repro.economics.governor import EconomicGovernor
from repro.errors import ConfigurationError
from repro.fleet import ServiceAllocation
from repro.units import SECONDS_PER_DAY
from repro.world import World, datacenter_world


@dataclass(frozen=True)
class EconScenario:
    """One named price/carbon day for the governor to run against."""

    name: str
    price_signal: str
    carbon_signal: str
    end_s: float = SECONDS_PER_DAY
    description: str = ""

    def __post_init__(self) -> None:
        if self.end_s <= 0:
            raise ConfigurationError("scenario must have positive duration")


ECON_SCENARIOS: dict[str, EconScenario] = {
    "flat-day": EconScenario(
        "flat-day",
        price_signal="price-flat",
        carbon_signal="carbon-flat",
        description="flat price and carbon: the governor should not act",
    ),
    "diurnal-day": EconScenario(
        "diurnal-day",
        price_signal="price-diurnal",
        carbon_signal="carbon-diurnal",
        description="ordinary diurnal price and carbon cycles",
    ),
    "price-spike-day": EconScenario(
        "price-spike-day",
        price_signal="price-spike-day",
        carbon_signal="carbon-diurnal",
        description="diurnal day with morning and evening price spikes",
    ),
    "carbon-spike-day": EconScenario(
        "carbon-spike-day",
        price_signal="price-diurnal",
        carbon_signal="carbon-spike-day",
        description="a dirty-grid morning (coal covering a wind lull)",
    ),
}


def get_econ_scenario(name: str) -> EconScenario:
    """Look up a named economics scenario."""
    try:
        return ECON_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(ECON_SCENARIOS))
        raise ConfigurationError(
            f"unknown econ scenario {name!r}; known: {known}"
        ) from None


def build_econ_world(
    scenario: str = "price-spike-day",
    seed: int = 0,
    governed: bool = True,
) -> World:
    """An economics world, armed at t=0: the recipe table's ``econ`` entry.

    The quickstart topology with a deferrable batch tier: 16 web +
    8 cache servers plus 12 hadoop servers with Turbo granted — the
    headroom the governor can revoke during expensive hours.
    """
    spec = get_econ_scenario(scenario)
    world = datacenter_world(
        scenario,
        {
            "builder": "econ",
            "kwargs": {
                "scenario": scenario,
                "seed": seed,
                "governed": governed,
            },
        },
        [
            ServiceAllocation("web", 16),
            ServiceAllocation("cache", 8),
            ServiceAllocation("hadoop", 12, turbo_enabled=True),
        ],
        seed=seed,
        config=DynamoConfig(
            economics=EconomicsConfig(
                enabled=True,
                price_signal=spec.price_signal,
                carbon_signal=spec.carbon_signal,
            )
        ),
    )
    world.governor = EconomicGovernor(
        world.engine, world.dynamo, world.fleet, shaping=governed
    )
    world.end_s = spec.end_s
    world.start()
    return world


def run_econ_day(
    scenario: str = "price-spike-day",
    *,
    seed: int = 0,
    governed: bool = True,
    duration_s: float | None = None,
) -> World:
    """Build an economics world and run it to the scenario's end."""
    world = build_econ_world(scenario=scenario, seed=seed, governed=governed)
    end_s = get_econ_scenario(scenario).end_s if duration_s is None else duration_s
    world.run_until(float(end_s))
    return world


__all__ = [
    "ECON_SCENARIOS",
    "EconScenario",
    "build_econ_world",
    "get_econ_scenario",
    "run_econ_day",
]
