"""Fast smoke tests over the prebuilt paper scenarios.

The full-fidelity versions live in benchmarks/; these scaled-down runs
verify the scenario builders wire up correctly and the headline
behaviour appears, in seconds rather than minutes.
"""

from repro.analysis.scenarios import (
    altoona_outage_recovery,
    ashburn_load_test,
    mixed_service_row,
    prineville_hadoop_turbo,
)
from repro.units import hours


class TestAshburn:
    def test_builds_and_ramps(self):
        scenario = ashburn_load_test(server_count=40, pdu_rating_w=12_000.0)
        scenario.start()
        scenario.run_until(hours(8) + 1800.0)
        controller = scenario.dynamo.leaf_controller("rpp0")
        assert controller.last_aggregate_power_w is not None
        assert len(controller.aggregate_series) > 100
        assert not scenario.driver.trips

    def test_load_test_event_attached(self):
        scenario = ashburn_load_test(server_count=10)
        load_test = scenario.extras["load_test"]
        assert load_test.start_s == hours(10) + 40 * 60
        assert load_test.end_s == hours(11) + 45 * 60


class TestAltoona:
    def test_structure(self):
        scenario = altoona_outage_recovery(
            servers_per_hot_row=10, servers_per_cool_row=8
        )
        assert len(scenario.extras["hot_rows"]) == 3
        assert len(scenario.extras["cool_rows"]) == 5
        assert len(scenario.fleet.servers) == 3 * 10 + 5 * 8

    def test_hot_rows_run_turbo_web(self):
        scenario = altoona_outage_recovery(
            servers_per_hot_row=4, servers_per_cool_row=4
        )
        hot_server = scenario.fleet.server("web-r0-0000")
        cool_server = scenario.fleet.server("f4-r3-0000")
        assert hot_server.turbo.enabled
        assert hot_server.service == "web"
        assert not cool_server.turbo.enabled
        assert cool_server.service == "f4storage"


class TestPrineville:
    def test_rating_scales_with_fleet(self):
        small = prineville_hadoop_turbo(server_count=40)
        large = prineville_hadoop_turbo(server_count=80)
        assert (
            large.extras["sb_rating_w"] == 2 * small.extras["sb_rating_w"]
        )

    def test_short_run_monitors(self):
        scenario = prineville_hadoop_turbo(server_count=40)
        scenario.start()
        scenario.run_until(hours(0.5))
        sb = scenario.dynamo.controller("sb0")
        assert sb.last_aggregate_power_w is not None
        assert not scenario.driver.trips

    def test_turbo_flag_respected(self):
        on = prineville_hadoop_turbo(server_count=8, turbo=True)
        off = prineville_hadoop_turbo(server_count=8, turbo=False)
        assert all(s.turbo.enabled for s in on.fleet.servers.values())
        assert not any(s.turbo.enabled for s in off.fleet.servers.values())


class TestMixedRow:
    def test_service_mix(self):
        scenario = mixed_service_row(web_count=10, cache_count=10, feed_count=4)
        assert len(scenario.extras["web_servers"]) == 10
        assert len(scenario.extras["cache_servers"]) == 10
        assert len(scenario.extras["feed_servers"]) == 4

    def test_manual_trigger_caps_web_not_cache(self):
        scenario = mixed_service_row(web_count=20, cache_count=20, feed_count=4)
        controller = scenario.dynamo.leaf_controller("rpp0")
        scenario.start()
        start = scenario.start_s
        scenario.run_until(start + 60.0)
        aggregate = controller.last_aggregate_power_w
        controller.set_contractual_limit_w(aggregate * 0.93)
        scenario.run_until(start + 120.0)
        assert controller.cap_events >= 1
        assert any(
            s.rapl.capped for s in scenario.extras["web_servers"]
        )
        assert not any(
            s.rapl.capped for s in scenario.extras["cache_servers"]
        )
