"""Figure 11 — a leaf-level capping event in a front-end cluster.

Paper (Ashburn, VA): normal diurnal traffic ramped a PDU breaker
(127.5 KW, several hundred web servers) toward its capping threshold from
8:00; a production load test starting ~10:40 pushed power over the
threshold around 11:15; the leaf controller throttled power to a safe
level within ~6 s and held it slightly below the 126 KW capping target
until the test ended ~11:45; power then fell below the uncapping
threshold and uncapping triggered around 12:00.

Scaled to 200 servers (PDU rating scaled with the fleet).
"""

from repro.analysis.experiment import settling_time, time_above
from repro.analysis.report import Table
from repro.analysis.scenarios import ashburn_load_test
from repro.units import hours, to_kilowatts

SERVER_COUNT = 200
PDU_RATING_W = 56_000.0  # scaled from 127.5 KW for 200 servers
END_S = hours(12) + 30 * 60


def run_experiment():
    scenario = ashburn_load_test(
        server_count=SERVER_COUNT, pdu_rating_w=PDU_RATING_W
    )
    scenario.start()
    scenario.run_until(END_S)
    controller = scenario.dynamo.leaf_controller("rpp0")
    return scenario, controller


def test_fig11_leaf_capping_event(once):
    scenario, controller = once(run_experiment)
    series = controller.aggregate_series
    cap_threshold = PDU_RATING_W * 0.99
    cap_target = PDU_RATING_W * 0.95
    uncap_threshold = PDU_RATING_W * 0.90

    # When did power first exceed the capping threshold?
    crossing = None
    for t, p in zip(series.times, series.values):
        if p > cap_threshold:
            crossing = t
            break
    settle = settling_time(series, crossing, cap_threshold) if crossing else None
    overdraw_s = time_above(series, cap_threshold)

    table = Table(
        "Figure 11: leaf capping event (scaled Ashburn front-end cluster)",
        ["metric", "value"],
    )
    table.add_row("PDU rating (KW)", to_kilowatts(PDU_RATING_W))
    table.add_row("capping threshold (KW)", to_kilowatts(cap_threshold))
    table.add_row("capping target (KW)", to_kilowatts(cap_target))
    table.add_row("peak power (KW)", to_kilowatts(series.max()))
    table.add_row("threshold crossed at (h)", (crossing or 0) / 3600.0)
    table.add_row("settled below threshold in (s, paper ~6 s)", settle)
    table.add_row("total time above threshold (s)", overdraw_s)
    table.add_row("cap events", controller.cap_events)
    table.add_row("uncap events", controller.uncap_events)
    table.add_row("breaker trips", len(scenario.driver.trips))
    print()
    print(table.render())

    # The load test must actually drive power over the threshold...
    assert crossing is not None and crossing > hours(10)
    # ...capping reacts within a few control cycles (paper: ~6 s; allow
    # a couple of extra cycles for RAPL settling).
    assert settle is not None and settle <= 15.0
    # Power is held below the limit; the breaker never trips.
    assert series.max() <= PDU_RATING_W
    assert not scenario.driver.trips
    # Held near/below the capping target while the test ran: the mean
    # power in the capped window sits within the target band.
    capped_window = series.window(crossing + 60.0, hours(11) + 40 * 60)
    assert capped_window.mean() <= cap_threshold
    # Uncapping triggered after the test ended.
    assert controller.uncap_events >= 1
    uncap_tail = series.window(hours(12), END_S)
    assert uncap_tail.mean() < uncap_threshold
    # All caps lifted by the end.
    assert controller.capped_server_ids == []
