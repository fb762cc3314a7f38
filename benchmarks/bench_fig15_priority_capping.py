"""Figure 15 — workload-aware capping on a mixed-service row.

Paper: a leaf controller covers one RPP row with ~200 web servers, ~200
cache servers, and ~40 news feed servers.  Capping is triggered manually
(by lowering the capping threshold) between ~1:50 PM and ~2:02 PM.  The
power breakdown shows web and feed servers being capped while cache
servers — a higher priority group — are left uncapped.
"""

from repro.analysis.report import Table
from repro.analysis.scenarios import mixed_service_row
from repro.units import hours, kilowatts, to_kilowatts

TRIGGER_ON_S = hours(13) + 50 * 60
TRIGGER_OFF_S = hours(14) + 2 * 60
END_S = hours(14) + 10 * 60
MANUAL_LIMIT_W = kilowatts(95)


def service_power(servers) -> float:
    return sum(s.power_w() for s in servers)


def run_experiment():
    scenario = mixed_service_row()
    controller = scenario.dynamo.leaf_controller("rpp0")
    scenario.start()
    # Manual trigger: impose the lowered limit at 13:50, lift at 14:02
    # (the paper lowered the capping threshold; a contractual limit has
    # the identical effect on the three-band logic).
    scenario.engine.schedule_at(
        TRIGGER_ON_S,
        lambda: controller.set_contractual_limit_w(MANUAL_LIMIT_W),
        label="manual-trigger-on",
    )
    scenario.engine.schedule_at(
        TRIGGER_OFF_S,
        lambda: controller.clear_contractual_limit(),
        label="manual-trigger-off",
    )
    breakdown = {"web": [], "cache": [], "feed": [], "total": []}

    def sample():
        t = scenario.engine.clock.now
        for key, servers in (
            ("web", scenario.extras["web_servers"]),
            ("cache", scenario.extras["cache_servers"]),
            ("feed", scenario.extras["feed_servers"]),
        ):
            breakdown[key].append((t, service_power(servers)))
        breakdown["total"].append(
            (t, scenario.extras["rpp"].power_w())
        )

    from repro.simulation.process import PeriodicProcess

    sampler = PeriodicProcess(
        scenario.engine, 10.0, lambda t: sample(), label="breakdown", priority=6
    )
    sampler.start()
    scenario.run_until(END_S)
    return scenario, controller, breakdown


def window_mean(samples, start_s, end_s):
    vals = [p for t, p in samples if start_s <= t <= end_s]
    return sum(vals) / len(vals)


def test_fig15_priority_capping(once):
    scenario, controller, breakdown = once(run_experiment)
    pre = (scenario.start_s, TRIGGER_ON_S)
    capped = (TRIGGER_ON_S + 60.0, TRIGGER_OFF_S)

    table = Table(
        "Figure 15: power breakdown during workload-aware capping (KW)",
        ["service", "before_capping", "while_capped", "delta_%"],
    )
    deltas = {}
    for key in ("web", "cache", "feed", "total"):
        before = window_mean(breakdown[key], *pre)
        during = window_mean(breakdown[key], *capped)
        deltas[key] = (during / before - 1.0) * 100.0
        table.add_row(
            key, to_kilowatts(before), to_kilowatts(during), deltas[key]
        )
    print()
    print(table.render())
    print(f"cap events: {controller.cap_events}, "
          f"uncap events: {controller.uncap_events}")

    # Capping engaged during the trigger window and released after.
    assert controller.cap_events >= 1
    assert controller.uncap_events >= 1
    assert controller.capped_server_ids == []
    # Web and feed power visibly reduced while capped...
    assert deltas["web"] < -5.0
    assert deltas["feed"] < -5.0
    # ...cache (higher priority) untouched, within noise.
    assert abs(deltas["cache"]) < 3.0
    # Total power held at/below the manual limit while capped.
    total_during = window_mean(breakdown["total"], *capped)
    assert total_during <= MANUAL_LIMIT_W
    # No cache server ever received a cap.
    for server in scenario.extras["cache_servers"]:
        assert not server.rapl.capped
