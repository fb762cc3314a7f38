"""System-level property test: Dynamo keeps randomized worlds safe.

Hypothesis generates random deployment shapes (row counts, fleet sizes,
headrooms, surge magnitudes); for every generated world, Dynamo must
prevent breaker trips that the surge would otherwise threaten, and must
not cap at all when the surge never approaches the limits.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.worlds import build_surge_world
from repro.core.dynamo import Dynamo
from repro.fleet import FleetDriver
from repro.workloads.events import TrafficSurgeEvent


@given(
    n_servers=st.integers(min_value=8, max_value=24).map(lambda n: n * 2),
    rpp_count=st.sampled_from([2, 4]),
    multiplier=st.floats(min_value=1.3, max_value=1.8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dynamo_keeps_random_surge_worlds_safe(
    n_servers, rpp_count, multiplier, seed
):
    surge = TrafficSurgeEvent(
        start_s=90.0, end_s=1500.0, multiplier=multiplier, ramp_s=45.0
    )
    engine, topology, fleet, rng = build_surge_world(
        surge=surge, n_servers=n_servers, rpp_count=rpp_count, seed=seed
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
    driver = FleetDriver(engine, topology, fleet)
    driver.start()
    dynamo.start()
    engine.run_until(1200.0)
    # The safety invariant, whatever the world shape.
    assert not driver.trips
    # Power never exceeds any protected device's physical rating for
    # longer than the breaker would notice (trips already assert that,
    # but also check the final state is within limits).
    for device in topology.iter_devices():
        assert device.power_w() <= device.rated_power_w * 1.01


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dynamo_idle_without_pressure(seed):
    # No surge: flat load far below every limit must never trigger caps.
    engine, topology, fleet, rng = build_surge_world(
        n_servers=16, level=0.5, seed=seed
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
    driver = FleetDriver(engine, topology, fleet)
    driver.start()
    dynamo.start()
    engine.run_until(600.0)
    assert dynamo.total_cap_events() == 0
    assert dynamo.capped_server_count() == 0
    assert not driver.trips
