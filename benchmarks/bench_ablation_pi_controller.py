"""Ablation — three-band step control vs a PI capping policy.

Section III-E ("Algorithm selection"): the paper shipped the simple
three-band algorithm for reliability — "to help us quickly iterate on
the design process and easily identify issues" — and notes more complex
algorithms as future work.  This bench shows why that conservatism was
sound: a textbook PI policy dropped into the same controllers, with
untuned gains, *regulates worse* — integral windup overshoots below the
uncapping threshold, releasing the caps and re-triggering, so the
device spends far longer above its limit and flaps, while the
three-band step converges in one or two cycles and sits still.
"""

from repro.analysis.experiment import time_above
from repro.analysis.worlds import build_surge_world
from repro.analysis.report import Table
from repro.core.dynamo import Dynamo
from repro.core.pi_controller import PiPowerController
from repro.core.three_band import ThreeBandController
from repro.fleet import FleetDriver
from repro.workloads.events import TrafficSurgeEvent


def run_policy(policy_name: str) -> dict:
    surge = TrafficSurgeEvent(
        start_s=120.0, end_s=2400.0, multiplier=1.5, ramp_s=60.0
    )
    engine, topology, fleet, rng = build_surge_world(
        surge=surge, n_servers=40, seed=41
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
    # Swap the decision policy on every controller.
    for controller in dynamo.hierarchy.all_controllers:
        if policy_name == "pi":
            controller.band = PiPowerController(
                controller.config.three_band
            )
        else:
            controller.band = ThreeBandController(
                controller.config.three_band
            )
    driver = FleetDriver(engine, topology, fleet)
    driver.start()
    dynamo.start()
    engine.run_until(2000.0)
    sb = dynamo.controller("sb0")
    series = sb.aggregate_series
    limit = sb.device.rated_power_w
    capped_window = series.window(400.0, 1900.0)
    return {
        "tripped": bool(driver.trips),
        "time_above_limit_s": time_above(series, limit),
        "mean_power_frac": capped_window.mean() / limit,
        "min_power_frac": capped_window.min() / limit,
        "cap_events": dynamo.total_cap_events(),
        "uncap_events": dynamo.total_uncap_events(),
    }


def run_experiment():
    return {name: run_policy(name) for name in ("three-band", "pi")}


def test_ablation_pi_controller(once):
    results = once(run_experiment)

    table = Table(
        "Ablation: capping decision policy under a sustained 1.5x surge",
        [
            "policy",
            "tripped",
            "s_above_limit",
            "mean_power/limit",
            "min_power/limit",
            "cap_events",
        ],
    )
    for name, r in results.items():
        table.add_row(
            name,
            r["tripped"],
            r["time_above_limit_s"],
            r["mean_power_frac"],
            r["min_power_frac"],
            r["cap_events"],
        )
    print()
    print(table.render())

    tb = results["three-band"]
    pi = results["pi"]
    # Neither policy lets a breaker trip (both eventually shed power),
    # but the regulation quality differs sharply.
    for r in results.values():
        assert not r["tripped"]
    # The paper's three-band: converges within a couple of cycles, then
    # holds power steady just below the capping target, no flapping.
    assert tb["time_above_limit_s"] < 60.0
    assert 0.85 <= tb["mean_power_frac"] <= 1.0
    assert tb["min_power_frac"] > 0.88
    assert tb["cap_events"] < 20
    # The untuned PI: integral windup undershoots through the uncapping
    # band, releases, rebounds — orders of magnitude more control
    # actions and far more time spent above the limit.
    assert pi["time_above_limit_s"] > 5 * tb["time_above_limit_s"]
    assert pi["cap_events"] > 10 * tb["cap_events"]
    assert pi["min_power_frac"] < tb["min_power_frac"]
