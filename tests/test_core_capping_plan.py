"""Tests for priority policy and the capping plan builder."""

import pytest

from repro.core.capping_plan import build_capping_plan
from repro.core.messages import PowerReading
from repro.core.priority import PriorityPolicy
from repro.errors import ConfigurationError
from repro.workloads.registry import ServiceSpec


def reading(server_id, power, service):
    return PowerReading(
        server_id=server_id,
        power_w=power,
        estimated=False,
        service=service,
        time_s=0.0,
    )


class TestPriorityPolicy:
    def test_cache_above_web(self):
        policy = PriorityPolicy()
        assert policy.priority_group("cache") > policy.priority_group("web")

    def test_unknown_service_gets_default(self):
        policy = PriorityPolicy()
        spec = policy.spec("mystery")
        assert spec.priority_group == 1
        assert spec.sla_min_cap_w > 0.0

    def test_register_override(self):
        policy = PriorityPolicy()
        policy.register(ServiceSpec("web", 5, sla_min_cap_w=200.0))
        assert policy.priority_group("web") == 5

    def test_groups_ascending(self):
        policy = PriorityPolicy()
        groups = policy.groups_ascending(["cache", "web", "hadoop"])
        assert groups == sorted(groups)
        assert groups[0] == policy.priority_group("hadoop")

    def test_assign(self):
        policy = PriorityPolicy()
        assignment = policy.assign("s1", "cache")
        assert assignment.server_id == "s1"
        assert assignment.priority_group == policy.priority_group("cache")

    def test_validate_rejects_negative_floor(self):
        policy = PriorityPolicy({"x": ServiceSpec("x", 0, sla_min_cap_w=-1.0)})
        with pytest.raises(ConfigurationError):
            policy.validate()

    def test_default_policy_validates(self):
        PriorityPolicy().validate()


class TestCappingPlan:
    def setup_method(self):
        self.policy = PriorityPolicy()

    def test_zero_cut_plan(self):
        readings = [reading("w1", 250.0, "web")]
        plan = build_capping_plan(readings, 0.0, self.policy)
        assert plan.affected_servers == []
        assert plan.unallocated_w == 0.0

    def test_lowest_priority_group_pays_first(self):
        readings = [
            reading("h1", 260.0, "hadoop"),
            reading("w1", 260.0, "web"),
            reading("c1", 260.0, "cache"),
        ]
        plan = build_capping_plan(readings, 50.0, self.policy)
        cuts = {c.server_id: c.cut_w for c in plan.cuts}
        assert cuts["h1"] == pytest.approx(50.0)
        assert cuts["w1"] == 0.0
        assert cuts["c1"] == 0.0

    def test_overflow_rolls_to_next_group(self):
        # Hadoop floor 120 W: one 260 W hadoop server absorbs at most
        # 140 W; the remaining 60 W must come from web.
        readings = [
            reading("h1", 260.0, "hadoop"),
            reading("w1", 260.0, "web"),
            reading("c1", 260.0, "cache"),
        ]
        plan = build_capping_plan(readings, 200.0, self.policy)
        cuts = {c.server_id: c.cut_w for c in plan.cuts}
        assert cuts["h1"] == pytest.approx(140.0)
        assert cuts["w1"] == pytest.approx(60.0)
        assert cuts["c1"] == 0.0

    def test_cache_spared_until_last(self):
        # Figure 15: web and feed capped, cache untouched.
        readings = [
            reading(f"w{i}", 260.0, "web") for i in range(5)
        ] + [
            reading(f"f{i}", 260.0, "newsfeed") for i in range(2)
        ] + [
            reading(f"c{i}", 260.0, "cache") for i in range(5)
        ]
        plan = build_capping_plan(readings, 300.0, self.policy)
        for cut in plan.cuts:
            if cut.service == "cache":
                assert cut.cut_w == 0.0
        web_feed_cut = sum(
            c.cut_w for c in plan.cuts if c.service in ("web", "newsfeed")
        )
        assert web_feed_cut == pytest.approx(300.0)

    def test_cap_is_power_minus_cut(self):
        # Paper: consuming 250 W with a 30 W cut -> cap at 220 W.
        readings = [reading("w1", 250.0, "web"), reading("w2", 150.0, "web")]
        plan = build_capping_plan(readings, 30.0, self.policy)
        cut = next(c for c in plan.cuts if c.server_id == "w1")
        assert cut.cap_w == pytest.approx(250.0 - cut.cut_w)

    def test_unallocated_when_everything_floored(self):
        readings = [reading("c1", 200.0, "cache")]
        plan = build_capping_plan(readings, 500.0, self.policy)
        # Cache floor is 190 W: only 10 W available.
        assert plan.allocated_w == pytest.approx(10.0)
        assert plan.unallocated_w == pytest.approx(490.0)

    def test_all_servers_in_plan(self):
        readings = [
            reading("h1", 260.0, "hadoop"),
            reading("c1", 260.0, "cache"),
        ]
        plan = build_capping_plan(readings, 10.0, self.policy)
        assert {c.server_id for c in plan.cuts} == {"h1", "c1"}

    def test_cap_for_lookup(self):
        readings = [reading("h1", 260.0, "hadoop")]
        plan = build_capping_plan(readings, 20.0, self.policy)
        assert plan.cap_for("h1") == pytest.approx(240.0)
        assert plan.cap_for("ghost") is None

    def test_bucket_config_respected(self):
        # 20 W buckets: 339 W and 321 W share the [320, 340) bucket and
        # split the cut; 319 W sits one bucket lower and is spared.
        def cuts(h2_power):
            plan = build_capping_plan(
                [reading("h1", 339.0, "hadoop"), reading("h2", h2_power, "hadoop")],
                2.0,
                self.policy,
            )
            return {c.server_id: c.cut_w for c in plan.cuts}

        assert cuts(321.0) == {"h1": pytest.approx(1.0), "h2": pytest.approx(1.0)}
        assert cuts(319.0) == {"h1": pytest.approx(2.0), "h2": 0.0}
