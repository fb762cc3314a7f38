"""Degraded-sensing subsystem: disaggregation, confidence, and posture.

Covers the estimator in isolation (fit → predict → disaggregate →
confidence), the SENSOR_DEGRADED branch of the mode state machine, the
leaf controller riding out sensor blackouts end-to-end, the
never-under-cap property of the uncertainty-inflated aggregate
(hypothesis), and snapshot round-trips of the fitted model state.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import CHAOS_SCENARIOS, build_scorecard
from repro.core.health import ModeStateMachine, OperatingMode
from repro.estimation import (
    MAX_ESTIMATE_CONFIDENCE,
    PowerDisaggregator,
    attribute_leaf,
    render_attribution,
    uncertainty_margin_w,
)


def make_disaggregator() -> PowerDisaggregator:
    return PowerDisaggregator()


class TestPowerDisaggregator:
    def test_first_cycle_sets_service_mean(self):
        est = make_disaggregator()
        est.observe_cycle(
            [("a", 100.0, "web"), ("b", 200.0, "web"), ("c", 90.0, "db")]
        )
        assert est.service_mean_w("web") == 150.0
        assert est.service_mean_w("db") == 90.0
        assert est.service_mean_w("unknown") is None

    def test_prediction_scales_with_service_drift(self):
        est = make_disaggregator()
        est.observe_cycle([("a", 100.0, "web"), ("b", 100.0, "web")])
        # The whole service's load doubles while "a" is dark; the
        # 0.2-EWMA service mean moves a fifth of the way, to 120 W.
        est.observe_cycle([("b", 200.0, "web")])
        assert math.isclose(est.predict_w("a"), 120.0)
        assert est.predict_w("never-seen") is None

    def test_disaggregate_sums_to_residual(self):
        est = make_disaggregator()
        est.observe_cycle([("a", 100.0, "web"), ("b", 300.0, "web")])
        estimates = est.disaggregate(500.0, [("a", "web"), ("b", "web")])
        assert math.isclose(sum(e.power_w for e in estimates), 500.0)
        # Proportional to the per-server predictions: b drew 3x a.
        by_id = {e.server_id: e.power_w for e in estimates}
        assert math.isclose(by_id["b"], 3.0 * by_id["a"])

    def test_disaggregate_falls_back_to_defaults(self):
        est = make_disaggregator()
        estimates = est.disaggregate(400.0, [("x", "unknown"), ("y", "unknown")])
        # No model at all: equal split via the default weight.
        assert [e.power_w for e in estimates] == [200.0, 200.0]
        assert est.disaggregate(100.0, []) == []

    def test_negative_residual_clamps_to_zero(self):
        est = make_disaggregator()
        estimates = est.disaggregate(-50.0, [("x", "unknown")])
        assert estimates[0].power_w == 0.0

    def test_confidence_tracks_fit_error(self):
        est = make_disaggregator()
        # Unvalidated model: moderate confidence, never 1.0.
        assert est.confidence("web") == 0.5
        est.observe_cycle([("a", 100.0, "web")])
        # Perfect self-prediction on a flat load → confidence at the cap.
        est.observe_cycle([("a", 100.0, "web")])
        assert est.confidence("web") == MAX_ESTIMATE_CONFIDENCE
        # A wild swing craters the fit error and the confidence floor
        # holds.
        est.observe_cycle([("a", 1000.0, "web")])
        est.observe_cycle([("a", 10.0, "web")])
        assert est.confidence("web") == 0.05

    def test_snapshot_round_trip(self):
        est = make_disaggregator()
        est.observe_cycle([("a", 100.0, "web"), ("b", 300.0, "cache")])
        est.observe_cycle([("a", 120.0, "web"), ("b", 280.0, "cache")])
        restored = make_disaggregator()
        restored.restore_state(est.snapshot_state())
        assert restored.snapshot_state() == est.snapshot_state()
        assert restored.predict_w("a") == est.predict_w("a")
        assert restored.confidence("web") == est.confidence("web")


class TestSensorDegradedPosture:
    def make_machine(self) -> ModeStateMachine:
        return ModeStateMachine(name="t")

    def test_enters_from_normal_and_recovers_to_normal(self):
        machine = self.make_machine()
        assert (
            machine.record_degraded_sensing_cycle(1.0)
            is OperatingMode.SENSOR_DEGRADED
        )
        assert machine.sensor_degraded_entries == 1
        # Recovery needs the full hysteresis run of genuinely valid
        # cycles, then goes straight to NORMAL (not through DEGRADED).
        for i in range(4):
            assert (
                machine.record_valid_cycle(2.0 + i)
                is OperatingMode.SENSOR_DEGRADED
            )
        assert machine.record_valid_cycle(6.0) is OperatingMode.NORMAL

    def test_estimator_cycles_do_not_feed_recovery(self):
        machine = self.make_machine()
        machine.record_degraded_sensing_cycle(1.0)
        # Alternating estimator-carried cycles never accumulate the
        # valid streak: the posture holds.
        for i in range(20):
            machine.record_valid_cycle(2.0 + i)
            machine.record_degraded_sensing_cycle(2.5 + i)
        assert machine.mode is OperatingMode.SENSOR_DEGRADED

    def test_escalates_to_safe_on_invalid_cycles(self):
        machine = self.make_machine()
        machine.record_degraded_sensing_cycle(1.0)
        for i in range(6):
            machine.record_invalid_cycle(2.0 + i)
        assert machine.mode is OperatingMode.SAFE
        assert machine.safe_entries == 1

    def test_safe_steps_down_to_sensor_degraded(self):
        machine = self.make_machine()
        for i in range(6):
            machine.record_invalid_cycle(1.0 + i)
        assert machine.mode is OperatingMode.SAFE
        # Estimator-carried cycles while SAFE count toward hysteresis,
        # but the step-down lands in SENSOR_DEGRADED — sensing is still
        # impaired, the limits were just never untrusted.
        for i in range(4):
            assert (
                machine.record_degraded_sensing_cycle(10.0 + i)
                is OperatingMode.SAFE
            )
        assert (
            machine.record_degraded_sensing_cycle(14.0)
            is OperatingMode.SENSOR_DEGRADED
        )

    def test_time_in_mode_accounting(self):
        machine = self.make_machine()
        machine.record_degraded_sensing_cycle(10.0)
        for i in range(5):
            machine.record_valid_cycle(20.0 + i)
        # SENSOR_DEGRADED from t=10 to t=24 (the 5th valid cycle).
        assert machine.time_in_mode_s(
            OperatingMode.SENSOR_DEGRADED, 100.0
        ) == 14.0
        assert machine.time_in_mode_s(OperatingMode.NORMAL, 100.0) == 86.0

    def test_snapshot_preserves_entry_count(self):
        machine = self.make_machine()
        machine.record_degraded_sensing_cycle(1.0)
        restored = self.make_machine()
        restored.restore_state(machine.snapshot_state())
        assert restored.mode is OperatingMode.SENSOR_DEGRADED
        assert restored.sensor_degraded_entries == 1

    def test_legacy_snapshot_defaults_entry_count(self):
        machine = self.make_machine()
        state = machine.snapshot_state()
        del state["sensor_degraded_entries"]
        machine.restore_state(state)
        assert machine.sensor_degraded_entries == 0


class TestBlackoutEndToEnd:
    def test_leaf_keeps_capping_through_50pct_blackout(self):
        run = CHAOS_SCENARIOS["sensor-blackout-50"](seed=7)
        run.start()
        run.run_until(run.end_s)
        score = build_scorecard(run)
        assert score.breaker_trips == 0
        assert score.aggregation_aborts == 0
        assert score.cap_events >= 1
        assert score.safe_mode_entries == 0
        assert score.sensor_degraded_entries >= 1
        assert score.pulls_disaggregated > 0
        assert score.time_in_sensor_degraded_s > 0.0
        # Never under-capped: signed margin >= 0 on every dark cycle.
        errors = [
            t.estimation_error_w
            for t in run.dynamo.traces.for_controller("rpp0")
            if t.disaggregated
        ]
        assert errors and min(errors) >= 0.0
        # Once the partition lifts, the posture returns to NORMAL.
        assert all(
            mode == "normal"
            for mode in run.dynamo.operating_modes().values()
        )
        assert run.dynamo.capped_server_count() == 0

    def test_70pct_blackout_degrades_to_safe_loudly(self):
        run = CHAOS_SCENARIOS["sensor-blackout-70"](seed=7)
        run.start()
        run.run_until(run.end_s)
        score = build_scorecard(run)
        assert score.breaker_trips == 0
        # Coverage below the estimation floor: the paper's abort path,
        # escalating to SAFE with CRITICAL alerts — never silent.
        assert score.safe_mode_entries >= 1
        assert score.aggregation_aborts > 0
        assert score.critical_alerts > 0
        assert score.pulls_disaggregated == 0

    def test_mid_blackout_snapshot_restores_estimator(self):
        run = CHAOS_SCENARIOS["sensor-blackout-50"](seed=7)
        run.start()
        run.engine.run_until(300.0)  # partition active since t=120
        leaf = run.dynamo.hierarchy.leaf_controllers["rpp0"]
        assert leaf.estimator is not None
        assert leaf.estimator.services  # models fitted pre-blackout
        state = leaf.snapshot_state()
        twin = CHAOS_SCENARIOS["sensor-blackout-50"](seed=7)
        twin_leaf = twin.dynamo.hierarchy.leaf_controllers["rpp0"]
        twin_leaf.restore_state(state)
        assert twin_leaf.estimator is not None
        assert (
            twin_leaf.estimator.snapshot_state()
            == leaf.estimator.snapshot_state()
        )
        assert twin_leaf.modes.mode is leaf.modes.mode

    def test_attribution_reports_services(self):
        run = CHAOS_SCENARIOS["sensor-blackout-50"](seed=7)
        run.start()
        run.engine.run_until(300.0)  # mid-blackout: mixed confidence
        leaf = run.dynamo.hierarchy.leaf_controllers["rpp0"]
        rows = attribute_leaf(leaf)
        assert rows and rows[0].servers > 0
        assert any(row.confidence < 1.0 for row in rows)
        text = render_attribution("rpp0", rows)
        assert "rpp0" in text and "confidence" in text


# ---------------------------------------------------------------------------
# Never-under-cap property
# ---------------------------------------------------------------------------

powers = st.lists(
    st.floats(min_value=10.0, max_value=800.0),
    min_size=2,
    max_size=24,
)


@settings(max_examples=80, deadline=None)
@given(
    powers=powers,
    dark_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_inflated_aggregate_never_under_caps(powers, dark_seed):
    """With exact metering, the inflated total is >= the true total.

    For any fitted history and any mix of dark sensors: measured
    readings contribute exactly, the
    disaggregated estimates sum to the residual (= the dark servers'
    true combined draw, since the device metering is exact in the
    simulation), and the uncertainty margin is non-negative — so the
    aggregate the controller caps against can never sit below the true
    total.
    """
    from repro.core.messages import PowerReading

    est = make_disaggregator()
    server_ids = [f"s{i}" for i in range(len(powers))]
    est.observe_cycle(
        (sid, p, "web" if i % 2 else "db")
        for i, (sid, p) in enumerate(zip(server_ids, powers))
    )
    # Deterministic pseudo-random dark subset (at least one dark).
    dark_mask = [
        bool((dark_seed >> (i % 31)) & 1) for i in range(len(powers))
    ]
    if not any(dark_mask):
        dark_mask[dark_seed % len(powers)] = True
    true_total = sum(powers)
    measured = [
        PowerReading(
            server_id=sid, power_w=p, estimated=False, service="web",
            time_s=0.0,
        )
        for sid, p, dark in zip(server_ids, powers, dark_mask)
        if not dark
    ]
    dark = [
        (sid, "web" if i % 2 else "db")
        for i, (sid, d) in enumerate(zip(server_ids, dark_mask))
        if d
    ]
    residual = true_total - sum(r.power_w for r in measured)
    estimates = est.disaggregate(residual, dark)
    readings = measured + [
        PowerReading(
            server_id=e.server_id,
            power_w=e.power_w,
            estimated=True,
            service=e.service,
            time_s=0.0,
            confidence=e.confidence,
        )
        for e in estimates
    ]
    aggregate = sum(r.power_w for r in readings)
    aggregate += uncertainty_margin_w(readings)
    assert aggregate >= true_total - 1e-6 * true_total
