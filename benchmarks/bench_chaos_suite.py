"""Chaos suite — robustness scorecards for the fault-tolerance claims.

Section III-E of the paper enumerates Dynamo's failure answers: a
watchdog restarts dead agents, leaf controllers abort aggregation above
20% pull failures, and every controller runs as a primary/backup pair.
This suite drives those mechanisms with deterministic fault injections
and scores the outcome: the fleet must detect, recover, and above all
never trip a breaker.
"""

from repro.chaos import CHAOS_SCENARIOS, build_scorecard, render_scorecard
from repro.chaos.faults import FaultSpec
from repro.chaos.scenarios import build_chaos_run
from repro.config import ControllerConfig, DynamoConfig, EstimationConfig


def _run_scenario(name, seed=7):
    run = CHAOS_SCENARIOS[name](seed=seed)
    run.start()
    run.run_until(run.end_s)
    return run


def test_chaos_watchdog_restart(once):
    run = once(lambda: _run_scenario("watchdog-restart"))
    score = build_scorecard(run)
    print()
    print(render_scorecard(score))

    # A quarter of the fleet's agents crashed and every one was
    # restarted by the watchdog within its sweep interval.
    assert score.watchdog_restarts == 10
    assert score.watchdog_suppressed == 0
    # The probe saw the outage and saw it end.
    assert score.time_to_detect_s is not None
    assert score.time_to_recover_s <= 120.0
    assert all(agent.healthy for agent in run.dynamo.agents.values())
    # The safety invariant held throughout.
    assert score.breaker_trips == 0


def test_chaos_leaf_controller_crash(once):
    run = once(lambda: _run_scenario("leaf-controller-crash"))
    score = build_scorecard(run)
    print()
    print(render_scorecard(score))

    # The backup took over on the very next tick: a clean ride-through
    # with zero externally visible degradation.
    assert score.failovers == 1
    assert score.time_to_detect_s is None
    assert score.time_to_recover_s == 0.0
    assert score.aggregation_aborts == 0
    assert score.breaker_trips == 0


def test_chaos_sb_outage_surge(once):
    run = once(lambda: _run_scenario("sb-outage"))
    score = build_scorecard(run)
    print()
    print(render_scorecard(score))

    # The surge pushed the SB over its rating; capping engaged, pulled
    # it back under, and released after the surge passed.
    assert score.cap_events >= 1
    assert score.uncap_events >= 1
    assert score.sla_violation_s < 60.0
    assert score.time_to_recover_s <= 120.0
    assert run.dynamo.capped_server_count() == 0
    assert score.breaker_trips == 0


def test_chaos_partition_aborts_aggregation(once):
    run = once(lambda: _run_scenario("partition"))
    score = build_scorecard(run)
    print()
    print(render_scorecard(score))

    # >20% of one row's pulls failing must abort aggregation with a
    # CRITICAL alert — and must NOT cause false capping or a trip.
    assert score.aggregation_aborts > 0
    assert score.critical_alerts > 0
    assert score.cap_events == 0
    assert score.breaker_trips == 0


def _blackout_oracle(seed=7):
    """The full-sensing twin of the sensor-blackout scenarios.

    Same world, same seed, same surge — but no partition, so every pull
    succeeds and the capping decisions are made from live measurements.
    The blackout runs' capping must stay within a bounded margin of this
    run's, and err only conservative.
    """
    specs = [
        FaultSpec(
            kind="power-surge",
            start_s=180.0,
            duration_s=240.0,
            params={"multiplier": 1.5, "ramp_s": 60.0},
        ),
    ]
    config = DynamoConfig(
        controller=ControllerConfig(
            estimation=EstimationConfig(enabled=True)
        )
    )
    run = build_chaos_run(
        "sensor-blackout-oracle",
        specs,
        seed=seed,
        end_s=900.0,
        config=config,
    )
    run.start()
    run.run_until(run.end_s)
    return run


def test_chaos_sensor_blackout_campaign(once, bench_report):
    """Degraded-sensing campaign: cap through a blackout, never under-cap.

    At 50% sensor loss the leaf must keep capping on disaggregated
    readings — zero breaker trips, zero aggregation aborts, decisions
    within a bounded conservative margin of the full-sensing oracle.
    At 70% loss, coverage is below the estimation floor and the leaf
    must escalate to SAFE (fail-safe capping), not abort silently.
    """

    def campaign():
        return {
            "blackout-50": _run_scenario("sensor-blackout-50"),
            "blackout-70": _run_scenario("sensor-blackout-70"),
            "oracle": _blackout_oracle(),
        }

    runs = once(campaign)
    score50 = build_scorecard(runs["blackout-50"])
    score70 = build_scorecard(runs["blackout-70"])
    oracle_score = build_scorecard(runs["oracle"])
    print()
    print(render_scorecard(score50))
    print(render_scorecard(score70))

    # Per-tick margin of the inflated aggregate over the metered ground
    # truth, on every disaggregated cycle of the dark row's controller.
    errors = [
        (t.estimation_error_w, t.aggregate_w)
        for t in runs["blackout-50"].dynamo.traces.for_controller("rpp0")
        if t.disaggregated
    ]
    assert errors, "the 50% blackout never exercised disaggregation"
    fractions = [
        error_w / (aggregate_w - error_w) for error_w, aggregate_w in errors
    ]
    report = {
        "blackout_50": {
            "breaker_trips": score50.breaker_trips,
            "aggregation_aborts": score50.aggregation_aborts,
            "cap_events": score50.cap_events,
            "pulls_disaggregated": score50.pulls_disaggregated,
            "sensor_degraded_entries": score50.sensor_degraded_entries,
            "time_in_sensor_degraded_s": score50.time_in_sensor_degraded_s,
            "min_margin_w": min(error_w for error_w, _ in errors),
            "max_margin_w": max(error_w for error_w, _ in errors),
            "max_margin_fraction": max(fractions),
        },
        "blackout_70": {
            "breaker_trips": score70.breaker_trips,
            "aggregation_aborts": score70.aggregation_aborts,
            "safe_mode_entries": score70.safe_mode_entries,
            "critical_alerts": score70.critical_alerts,
        },
        "oracle": {
            "breaker_trips": oracle_score.breaker_trips,
            "cap_events": oracle_score.cap_events,
        },
    }
    bench_report(
        "chaos_sensor_blackout",
        report,
        knobs={
            "scenarios": [
                "sensor-blackout-50",
                "sensor-blackout-70",
                "sensor-blackout-oracle",
            ],
            "seed": 7,
        },
    )
    print(
        f"blackout-50 margin over ground truth: "
        f"{report['blackout_50']['min_margin_w']:.1f}.."
        f"{report['blackout_50']['max_margin_w']:.1f} W "
        f"(max {report['blackout_50']['max_margin_fraction']:.1%}); "
        f"cap events {score50.cap_events} vs oracle "
        f"{oracle_score.cap_events}"
    )

    # 50%: capping continued on estimated readings, nothing tripped,
    # nothing aborted, and the leaf rode it out in SENSOR_DEGRADED.
    assert score50.breaker_trips == 0
    assert score50.aggregation_aborts == 0
    assert score50.cap_events >= 1
    assert score50.safe_mode_entries == 0
    assert score50.sensor_degraded_entries >= 1
    assert score50.pulls_disaggregated > 0
    # Never under-capped: the inflated aggregate sits at/above the
    # metered truth on every dark cycle, within a bounded margin.
    assert min(error_w for error_w, _ in errors) >= 0.0
    assert max(fractions) <= 0.15
    # The full-sensing oracle also capped: the blackout run's decisions
    # tracked real capping pressure, not estimation artifacts.
    assert oracle_score.cap_events >= 1
    assert oracle_score.breaker_trips == 0

    # 70%: below the coverage floor the leaf escalates to SAFE —
    # loudly (CRITICAL alerts), with fail-safe caps, and no trip.
    assert score70.breaker_trips == 0
    assert score70.safe_mode_entries >= 1
    assert score70.aggregation_aborts > 0
    assert score70.critical_alerts > 0
