"""Property-based tests on the control stack: thresholds, RAPL,
noise processes, and time-series operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ThreeBandConfig
from repro.core.thresholds import control_thresholds_w
from repro.server.rapl import RaplModule
from repro.telemetry.timeseries import TimeSeries
from repro.workloads.base import OrnsteinUhlenbeckNoise, PoissonBursts


# ---------------------------------------------------------------------------
# Threshold selection
# ---------------------------------------------------------------------------

band_configs = st.tuples(
    st.floats(min_value=0.96, max_value=1.0),  # capping threshold
    st.floats(min_value=0.91, max_value=0.955),  # capping target
    st.floats(min_value=0.5, max_value=0.905),  # uncapping threshold
).map(
    lambda t: ThreeBandConfig(
        capping_threshold=t[0], capping_target=t[1], uncapping_threshold=t[2]
    )
)


@given(
    config=band_configs,
    physical=st.floats(min_value=1_000.0, max_value=1e7),
    contractual_fraction=st.one_of(
        st.none(), st.floats(min_value=0.1, max_value=2.0)
    ),
)
@settings(max_examples=200)
def test_thresholds_always_ordered(config, physical, contractual_fraction):
    contractual = (
        None
        if contractual_fraction is None
        else physical * contractual_fraction
    )
    cap_at, target, uncap, limit = control_thresholds_w(
        config, physical, contractual
    )
    assert uncap < target < cap_at
    assert limit <= physical
    # The effective limit is never looser than what's being protected.
    assert cap_at <= physical * config.capping_threshold + 1e-9


@given(
    config=band_configs,
    physical=st.floats(min_value=1_000.0, max_value=1e7),
)
@settings(max_examples=200)
def test_contractual_target_lands_above_parent_uncap(config, physical):
    # No margin compounding: a child settling at its target must remain
    # above its parent's uncapping threshold when the contractual limit
    # was derived from the parent's capping target.  This holds exactly
    # when the flap-freedom condition documented in
    # repro.core.thresholds is met (the paper defaults satisfy it).
    from hypothesis import assume

    from repro.core.thresholds import CONTRACTUAL_TARGET

    assume(
        config.uncapping_threshold
        < CONTRACTUAL_TARGET * config.capping_target * 0.999
    )
    parent_limit = physical / config.capping_target  # invert: contract
    contractual = physical  # = parent_limit * capping_target
    _, child_target, _, _ = control_thresholds_w(
        config, parent_limit * 10, contractual
    )
    assert child_target > parent_limit * config.uncapping_threshold


# ---------------------------------------------------------------------------
# RAPL convergence
# ---------------------------------------------------------------------------

@given(
    demand=st.floats(min_value=100.0, max_value=400.0),
    limit=st.floats(min_value=60.0, max_value=500.0),
    initial=st.floats(min_value=0.0, max_value=400.0),
)
@settings(max_examples=200)
def test_rapl_converges_to_target(demand, limit, initial):
    rapl = RaplModule(min_cap_w=50.0, initial_power_w=initial)
    rapl.set_limit(max(limit, 50.0))
    for _ in range(30):
        rapl.step(demand, 1.0)
    target = min(demand, rapl.limit_w)
    assert rapl.enforced_power_w == pytest.approx(target, abs=0.5)


@given(
    demand=st.floats(min_value=100.0, max_value=400.0),
    dt=st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=100)
def test_rapl_enforcement_moves_toward_target(demand, dt):
    rapl = RaplModule(initial_power_w=200.0)
    before = rapl.enforced_power_w
    rapl.step(demand, dt)
    after = rapl.enforced_power_w
    # Monotone approach: never overshoots past the target.
    if demand >= before:
        assert before <= after <= demand + 1e-9
    else:
        assert demand - 1e-9 <= after <= before


# ---------------------------------------------------------------------------
# Noise processes
# ---------------------------------------------------------------------------

@given(
    sigma=st.floats(min_value=0.0, max_value=0.5),
    tau=st.floats(min_value=1.0, max_value=600.0),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50)
def test_ou_noise_bounded_in_distribution(sigma, tau, seed):
    noise = OrnsteinUhlenbeckNoise(sigma, tau, np.random.default_rng(seed))
    samples = [noise.sample(float(t) * 5.0) for t in range(500)]
    # 6-sigma bound holds overwhelmingly; this is a smoke property.
    assert all(abs(s) <= 6.5 * sigma + 1e-12 for s in samples)


@given(
    rate=st.floats(min_value=0.0, max_value=0.1),
    magnitude=st.floats(min_value=0.0, max_value=1.0),
    duration=st.floats(min_value=1.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50)
def test_bursts_non_negative_and_bounded(rate, magnitude, duration, seed):
    bursts = PoissonBursts(
        rate, magnitude, duration, np.random.default_rng(seed),
        magnitude_jitter=0.25,
    )
    for t in range(0, 2000, 7):
        value = bursts.sample(float(t))
        assert value >= 0.0
        # Jitter is clamped at zero below and ~N(1, .25) above.
        assert value <= magnitude * 2.5 + 1e-9


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------

sample_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200
)


@given(values=sample_lists)
@settings(max_examples=100)
def test_window_subset_of_series(values):
    series = TimeSeries("t")
    for i, v in enumerate(values):
        series.append(float(i), v)
    window = series.window(2.0, 10.0)
    assert len(window) <= len(series)
    assert all(2.0 <= t <= 10.0 for t in window.times)


@given(values=sample_lists, interval=st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=100)
def test_downsample_never_grows(values, interval):
    series = TimeSeries("t")
    for i, v in enumerate(values):
        series.append(float(i), v)
    coarse = series.downsample(interval)
    assert len(coarse) <= len(series)
    # Every downsampled point exists in the original.
    original = set(zip(series.times.tolist(), series.values.tolist()))
    assert all(
        (t, v) in original
        for t, v in zip(coarse.times.tolist(), coarse.values.tolist())
    )


@given(values=sample_lists)
@settings(max_examples=100)
def test_minmax_bound_mean(values):
    series = TimeSeries("t")
    for i, v in enumerate(values):
        series.append(float(i), v)
    assert series.min() - 1e-9 <= series.mean() <= series.max() + 1e-9
