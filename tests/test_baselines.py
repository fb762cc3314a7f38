"""Tests for the baseline power-management strategies."""

import pytest

from repro.baselines.static_frequency import (
    StaticFrequencyCap,
    static_cap_for_budget,
)
from repro.errors import ConfigurationError

from tests.conftest import make_server, settle_server


class TestStaticCap:
    def test_cap_formula(self):
        assert static_cap_for_budget(10_000.0, 40, safety_margin_fraction=0.0) == 250.0

    def test_safety_margin(self):
        assert static_cap_for_budget(10_000.0, 40) == pytest.approx(245.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            static_cap_for_budget(0.0, 10)
        with pytest.raises(ConfigurationError):
            static_cap_for_budget(100.0, 0)
        with pytest.raises(ConfigurationError):
            static_cap_for_budget(100.0, 10, safety_margin_fraction=1.0)

    def test_apply_caps_every_server(self):
        servers = [make_server(f"s{i}", utilization=0.9) for i in range(4)]
        static = StaticFrequencyCap(servers, budget_w=1000.0)
        static.apply()
        for server in servers:
            assert server.rapl.capped

    def test_worst_case_peak_within_budget(self):
        servers = [make_server(f"s{i}", utilization=0.9) for i in range(4)]
        budget = 4 * 280.0
        static = StaticFrequencyCap(servers, budget_w=budget)
        static.apply()
        assert static.worst_case_peak_w() <= budget

    def test_static_cap_costs_performance_dynamo_would_not(self):
        # The Section IV-D story: static caps bind all the time, even
        # when aggregate power would have been fine.
        servers = [make_server(f"s{i}", utilization=0.85) for i in range(4)]
        budget = 4 * 250.0  # tight: static cap ~245 W binds at util .85
        static = StaticFrequencyCap(servers, budget_w=budget)
        static.apply()
        for server in servers:
            settle_server(server, 60.0)
        assert min(s.performance_ratio() for s in servers) < 0.98

    def test_remove_restores(self):
        servers = [make_server("s0")]
        static = StaticFrequencyCap(servers, budget_w=250.0)
        static.apply()
        static.remove()
        assert not servers[0].rapl.capped

    def test_requires_servers(self):
        with pytest.raises(ConfigurationError):
            StaticFrequencyCap([], budget_w=100.0)

    def test_platform_minimum_respected(self):
        servers = [make_server("s0")]
        static = StaticFrequencyCap(servers, budget_w=10.0)
        static.apply()
        assert (
            servers[0].rapl.limit_w
            == servers[0].platform.effective_min_cap_w()
        )
