"""Economics day benchmark — governed vs price-blind on the same seed.

Runs the ``price-spike-day`` scenario twice with identical physics and
RNG streams: once governed (the :class:`EconomicGovernor` shapes bands
and defers the batch tier into cheap/clean windows) and once blind (the
same governor meters cost and carbon but never acts).  The governed day
must come in cheaper *and* cleaner with zero additional breaker trips
or SLA-deadline misses — economics is advisory and may never buy
savings with safety.  Results land in ``BENCH_econ_day.json``.

A second check re-runs the control-parity scenario (economics disabled,
scalar and vectorized control lanes) and compares byte-for-byte against
the existing golden: wiring the subsystem in must leave every
economics-off deployment untouched.
"""

from repro.economics import (
    build_econ_scorecard,
    render_econ_scorecard,
    run_econ_day,
)
from repro.units import hours
from tests.test_control_parity import GOLDEN_PATH, run_and_fingerprint

SCENARIO = "price-spike-day"
SEED = 3
#: Ten hours covers the morning price spike (08:00–10:00), so shaping
#: and deferral both engage well inside the benchmark horizon.
HOURS = 10.0


def _score(governed: bool):
    world = run_econ_day(
        SCENARIO, seed=SEED, governed=governed, duration_s=hours(HOURS)
    )
    return build_econ_scorecard(world)


def test_econ_day_governed_beats_blind(once, bench_report):
    scores = once(
        lambda: {"governed": _score(True), "blind": _score(False)}
    )
    governed, blind = scores["governed"], scores["blind"]
    print()
    print(render_econ_scorecard(governed, blind))

    report = {
        side: {
            "cost": score.cost,
            "carbon_kg": score.carbon_kg,
            "energy_kwh": score.energy_kwh,
            "mean_price": score.mean_price,
            "deferred_energy_kwh": score.deferred_energy_kwh,
            "defer_windows": score.defer_windows,
            "shaped_intervals": score.shaped_intervals,
            "band_adjustments": score.band_adjustments,
            "sla_deadline_misses": score.sla_deadline_misses,
            "breaker_trips": score.breaker_trips,
            "cap_events": score.cap_events,
            "safe_entries": score.safe_entries,
        }
        for side, score in scores.items()
    }
    report["savings"] = {
        "cost": blind.cost - governed.cost,
        "cost_fraction": 1.0 - governed.cost / blind.cost,
        "carbon_kg": blind.carbon_kg - governed.carbon_kg,
        "carbon_fraction": 1.0 - governed.carbon_kg / blind.carbon_kg,
    }
    bench_report(
        "econ_day",
        report,
        knobs={"scenario": SCENARIO, "seed": SEED, "hours": HOURS},
    )
    print(
        f"governed saves ${report['savings']['cost']:.2f} "
        f"({report['savings']['cost_fraction']:.1%}) and "
        f"{report['savings']['carbon_kg']:.2f} kgCO2 "
        f"({report['savings']['carbon_fraction']:.1%})"
    )

    # The governed run actually acted...
    assert governed.shaped_intervals > 0
    assert governed.defer_windows >= 1
    # ...and the blind twin never did.
    assert blind.shaped_intervals == 0
    assert blind.deferred_energy_kwh == 0.0
    # Savings on both axes.
    assert governed.cost < blind.cost
    assert governed.carbon_kg < blind.carbon_kg
    # Safety is non-negotiable: zero *additional* trips or misses (and
    # on this scenario, zero in absolute terms on both sides).
    assert governed.breaker_trips == blind.breaker_trips == 0
    assert governed.sla_deadline_misses == blind.sla_deadline_misses == 0
    assert governed.safe_entries == blind.safe_entries == 0


def test_econ_disabled_is_byte_identical_to_parity_goldens(once):
    """Economics off ⇒ the control-parity goldens still match exactly."""
    golden = GOLDEN_PATH.read_text()

    def both_lanes():
        return {
            "scalar": run_and_fingerprint(physics_backend="scalar"),
            "vectorized": run_and_fingerprint(),
        }

    fingerprints = once(both_lanes)
    assert fingerprints["scalar"] == golden
    assert fingerprints["vectorized"] == golden
