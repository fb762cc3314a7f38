"""Figure 16 — snapshot of per-server power and computed power caps.

Paper: during the Figure 15 experiment, a snapshot of each server's
current power consumption and its computed power cap, sorted by power,
across the three service groups.  With the active bucket at
[210 W, 300 W], the total-power-cut is distributed among all web and feed
servers consuming >= 210 W (their caps floor at 210 W), while cache
servers — the higher priority group — receive no caps at all.
"""

from repro.analysis.report import Table
from repro.analysis.scenarios import mixed_service_row
from repro.core.capping_plan import build_capping_plan
from repro.core.messages import PowerReading
from repro.core.priority import PriorityPolicy
from repro.units import hours, kilowatts

SNAPSHOT_S = hours(13) + 50 * 60
MANUAL_LIMIT_W = kilowatts(95)


def run_experiment():
    scenario = mixed_service_row()
    scenario.start()
    scenario.run_until(SNAPSHOT_S)
    # Snapshot every server's power, exactly what the leaf controller
    # would aggregate, then compute the capping plan for the manual
    # limit (95 KW -> capping target 90.25 KW).
    readings = []
    for server in scenario.fleet.servers.values():
        service = {"web": "web", "cache": "cache", "feed": "newsfeed"}[
            server.server_id.split("-")[0]
        ]
        readings.append(
            PowerReading(
                server_id=server.server_id,
                power_w=server.power_w(),
                estimated=False,
                service=service,
                time_s=SNAPSHOT_S,
            )
        )
    total = sum(r.power_w for r in readings)
    target = MANUAL_LIMIT_W * 0.95
    plan = build_capping_plan(readings, total - target, PriorityPolicy())
    return readings, plan, total, target


def test_fig16_bucket_snapshot(once):
    readings, plan, total, target = once(run_experiment)
    cuts = {c.server_id: c for c in plan.cuts}

    # Summarize per service group, as the figure's three panels do.
    table = Table(
        "Figure 16: cap snapshot by service (sorted-by-power panels)",
        ["service", "n", "n_capped", "min_power_capped_W", "min_cap_W"],
    )
    for service in ("web", "cache", "newsfeed"):
        group = [c for c in plan.cuts if c.service == service]
        capped = [c for c in group if c.cut_w > 1e-6]
        table.add_row(
            service,
            len(group),
            len(capped),
            min((c.current_power_w for c in capped), default=float("nan")),
            min((c.cap_w for c in capped), default=float("nan")),
        )
    print()
    print(table.render())
    print(f"total row power {total/1000:.1f} KW, target {target/1000:.1f} KW, "
          f"cut {plan.allocated_w/1000:.2f} KW")

    web_cuts = [c for c in plan.cuts if c.service == "web"]
    feed_cuts = [c for c in plan.cuts if c.service == "newsfeed"]
    cache_cuts = [c for c in plan.cuts if c.service == "cache"]
    # Cache servers: no caps at all (higher priority group).
    assert all(c.cut_w == 0.0 for c in cache_cuts)
    # The cut was fully allocated to web + feed.
    assert plan.unallocated_w == 0.0
    assert sum(c.cut_w for c in web_cuts + feed_cuts) > 0.0
    # Bucket-boundary behaviour: there is a power level (the active
    # bucket's lower edge) above which every web/feed server is capped
    # and below which none are.
    capped_powers = [
        c.current_power_w for c in web_cuts + feed_cuts if c.cut_w > 1e-6
    ]
    uncapped_powers = [
        c.current_power_w for c in web_cuts + feed_cuts if c.cut_w <= 1e-6
    ]
    assert capped_powers
    if uncapped_powers:
        assert min(capped_powers) >= max(uncapped_powers) - 20.0
    # Caps never drop below the bucket floor the allocator chose, and
    # the floor is at/above the web/feed SLA (150 W).
    floor = min(c.cap_w for c in web_cuts + feed_cuts if c.cut_w > 1e-6)
    assert floor >= 150.0
    # Within the capped set, caps are (weakly) leveling: servers that
    # drew more power end up cut more.
    capped_sorted = sorted(
        (c for c in web_cuts if c.cut_w > 1e-6),
        key=lambda c: c.current_power_w,
    )
    cuts_by_power = [c.cut_w for c in capped_sorted]
    assert all(
        b >= a - 1.0 for a, b in zip(cuts_by_power, cuts_by_power[1:])
    )
