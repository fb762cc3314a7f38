"""Tests for the chaos fault-injection subsystem."""

import pytest

from repro.chaos import (
    CHAOS_SCENARIOS,
    build_chaos_run,
    build_fault,
    build_scorecard,
    fault_kinds,
    random_campaign_specs,
    render_scorecard,
)
from repro.chaos.faults import FAULT_TYPES, FaultSpec
from repro.core.agent import agent_endpoint
from repro.errors import ConfigurationError
from repro.simulation.rng import RngStreams


class TestFaultSpec:
    def test_end_time(self):
        spec = FaultSpec(kind="rpc-partition", start_s=10.0, duration_s=5.0)
        assert spec.end_s == 15.0
        open_ended = FaultSpec(kind="agent-crash", start_s=10.0)
        assert open_ended.end_s is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="no-such-fault", start_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="agent-crash", start_s=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="agent-crash", start_s=0.0, duration_s=0.0)

    def test_describe_is_stable(self):
        spec = FaultSpec(
            kind="rpc-flaky",
            start_s=30.0,
            duration_s=60.0,
            targets=("b", "a"),
            params={"failure_probability": 0.2},
        )
        assert spec.describe() == spec.describe()
        assert "rpc-flaky" in spec.describe()

    def test_catalogue_covers_paper_faults(self):
        kinds = fault_kinds()
        for expected in (
            "agent-crash",
            "controller-crash",
            "rpc-partition",
            "power-surge",
            "breaker-derate",
            "sensor-dropout",
        ):
            assert expected in kinds
        for kind in kinds:
            assert kind in FAULT_TYPES
        spec = FaultSpec(kind="agent-crash", start_s=1.0)
        assert build_fault(spec).kind == "agent-crash"


class TestFaultBehaviour:
    def test_partition_downs_and_restores_endpoints(self):
        run = build_chaos_run(
            "t",
            [
                FaultSpec(
                    kind="rpc-partition",
                    start_s=10.0,
                    duration_s=20.0,
                    targets=("s0-0", "s0-1"),
                )
            ],
            end_s=60.0,
        )
        observed = {}
        injector = run.dynamo.transport.injector

        def peek(tag):
            observed[tag] = agent_endpoint("s0-0") in injector.down_endpoints

        run.engine.schedule_at(9.0, lambda: peek("before"))
        run.engine.schedule_at(15.0, lambda: peek("during"), priority=99)
        run.engine.schedule_at(31.0, lambda: peek("after"))
        run.start()
        run.run_until(run.end_s)
        assert observed == {"before": False, "during": True, "after": False}

    def test_breaker_derate_scales_and_restores_rating(self):
        run = build_chaos_run(
            "t",
            [
                FaultSpec(
                    kind="breaker-derate",
                    start_s=10.0,
                    duration_s=20.0,
                    targets=("sb0",),
                    params={"fraction": 0.5},
                )
            ],
            end_s=60.0,
        )
        device = run.topology.device("sb0")
        original = device.rated_power_w
        mid = {}
        run.engine.schedule_at(
            15.0, lambda: mid.update(rating=device.rated_power_w), priority=99
        )
        run.start()
        run.run_until(run.end_s)
        assert mid["rating"] == pytest.approx(original * 0.5)
        assert device.rated_power_w == pytest.approx(original)
        assert device.breaker.rated_power_w == pytest.approx(
            device.rated_power_w
        )

    def test_stuck_sensor_freezes_readings(self):
        run = build_chaos_run(
            "t",
            [
                FaultSpec(
                    kind="sensor-stuck",
                    start_s=10.0,
                    duration_s=30.0,
                    targets=("s0-0",),
                )
            ],
            end_s=60.0,
        )
        server = run.fleet.servers["s0-0"]
        readings = {}

        def sample(tag):
            readings[tag] = server.sensor.read(server.power_w())

        run.engine.schedule_at(15.0, lambda: sample("a"), priority=99)
        run.engine.schedule_at(30.0, lambda: sample("b"), priority=99)
        run.start()
        run.run_until(run.end_s)
        # Frozen: both mid-fault reads returned the identical value.
        assert readings["a"] == readings["b"]
        # Restored: live sensor is back and tracks true power again.
        assert server.sensor.read(0.0) != readings["a"]

    def test_controller_crash_requires_device_target(self):
        with pytest.raises(ConfigurationError):
            build_fault(FaultSpec(kind="controller-crash", start_s=1.0))


class TestReplayDeterminism:
    def test_same_seed_identical_timeline(self):
        first = CHAOS_SCENARIOS["campaign"](seed=13)
        first.start()
        first.run_until(first.end_s)
        second = CHAOS_SCENARIOS["campaign"](seed=13)
        second.start()
        second.run_until(second.end_s)
        timeline = first.orchestrator.timeline_fingerprint()
        assert timeline == second.orchestrator.timeline_fingerprint()
        assert len(timeline.splitlines()) >= 6

    def test_different_seed_different_campaign(self):
        a = random_campaign_specs(RngStreams(1), ["s0", "s1", "s2", "s3"])
        b = random_campaign_specs(RngStreams(2), ["s0", "s1", "s2", "s3"])
        assert a != b

    def test_campaign_specs_replayable(self):
        servers = [f"s{i}" for i in range(12)]
        a = random_campaign_specs(RngStreams(5), servers)
        b = random_campaign_specs(RngStreams(5), list(reversed(servers)))
        assert a == b

    def test_injection_times_match_schedule(self):
        specs = [
            FaultSpec(kind="rpc-latency", start_s=12.0, duration_s=6.0),
            FaultSpec(kind="agent-crash", start_s=21.0, targets=("s0-0",)),
        ]
        run = build_chaos_run("t", specs, end_s=60.0)
        run.start()
        run.run_until(run.end_s)
        events = run.orchestrator.events.events
        stamped = [(e.time_s, e.kind) for e in events]
        assert stamped == [
            (12.0, "inject.rpc-latency"),
            (18.0, "recover.rpc-latency"),
            (21.0, "inject.agent-crash"),
        ]


class TestSbOutageRideThrough:
    """Figure 12 via the chaos subsystem: surge, cap, survive, release."""

    @pytest.fixture(scope="class")
    def run(self):
        scenario = CHAOS_SCENARIOS["sb-outage"](seed=7)
        scenario.start()
        scenario.run_until(scenario.end_s)
        return scenario

    def test_capping_engaged_and_released(self, run):
        score = build_scorecard(run)
        assert score.cap_events >= 1
        assert score.uncap_events >= 1
        assert run.dynamo.capped_server_count() == 0

    def test_no_trips_and_bounded_violation(self, run):
        score = build_scorecard(run)
        assert score.breaker_trips == 0
        assert score.survived
        assert score.sla_violation_s < 60.0

    def test_detected_and_recovered(self, run):
        score = build_scorecard(run)
        assert score.time_to_detect_s is not None
        assert 0.0 < score.time_to_recover_s <= 120.0

    def test_scorecard_renders(self, run):
        text = render_scorecard(build_scorecard(run))
        assert "sb-outage" in text
        assert "breaker trips" in text
        assert "survived" in text


class TestFlakyFabricRecovery:
    """The resilience acceptance scenario: a 30% flaky fabric, ridden out
    by retries without a single breaker trip or stranded cap."""

    @pytest.fixture(scope="class")
    def run(self):
        scenario = CHAOS_SCENARIOS["flaky-fabric-recovery"](seed=7)
        scenario.start()
        scenario.run_until(scenario.end_s)
        return scenario

    def test_retries_rescue_the_fabric(self, run):
        score = build_scorecard(run)
        assert score.rpc_retries > 0
        assert score.rpc_retry_successes > 0

    def test_no_breaker_trips_or_quarantines(self, run):
        # 30% flaky is unpleasant, not dead: the circuit breakers must
        # hold closed and nothing gets quarantined.
        score = build_scorecard(run)
        assert score.circuit_breaker_opens == 0
        assert score.endpoint_quarantines == 0
        assert score.survived

    def test_no_stranded_contractual_limits(self, run):
        # Bounded recovery: once the fabric heals, no child is left
        # holding a limit its parent tried to clear, no cap is stuck,
        # and no proxy still owes a push.
        assert run.dynamo.capped_server_count() == 0
        for controller in run.dynamo.hierarchy.all_controllers:
            for child in getattr(controller, "children", []):
                assert not getattr(child, "pending_push", False)

    def test_aggregation_aborts_never_feed_breakers(self, run):
        # An upper controller seeing a child abort its aggregation gets
        # a clean "no reading" — not an RPC failure that could trip the
        # child's breaker.
        score = build_scorecard(run)
        assert score.circuit_breaker_opens == 0

    def test_modes_recovered_to_normal(self, run):
        assert all(
            mode == "normal"
            for mode in run.dynamo.operating_modes().values()
        )

    def test_scorecard_shows_resilience_rows(self, run):
        text = render_scorecard(build_scorecard(run))
        assert "rpc retry successes" in text
        assert "circuit-breaker opens" in text
        assert "safe-mode entries" in text


class TestScenarioRegistry:
    def test_all_scenarios_buildable(self):
        for name, builder in CHAOS_SCENARIOS.items():
            run = builder(seed=3)
            assert run.name == name
            assert run.orchestrator.faults or name == "campaign"
            assert run.end_s > 0
