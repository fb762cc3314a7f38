"""Experiment running helpers shared by benches and examples."""

from __future__ import annotations

import numpy as np

from repro.simulation.engine import SimulationEngine
from repro.telemetry.timeseries import TimeSeries


def run_for(engine: SimulationEngine, duration_s: float) -> None:
    """Advance the engine by ``duration_s`` of simulated time."""
    engine.run_until(engine.clock.now + duration_s)


def time_above(series: TimeSeries, threshold: float) -> float:
    """Seconds the series spent above ``threshold``.

    Assumes near-uniform sampling; each sample above threshold counts for
    one sample interval.
    """
    times = series.times
    if times.size < 2:
        return 0.0
    spacing = float(np.median(np.diff(times)))
    return float(np.sum(series.values > threshold)) * spacing


def settling_time(
    series: TimeSeries,
    start_s: float,
    threshold: float,
) -> float | None:
    """Seconds after ``start_s`` until the series first drops to threshold.

    Returns None if it never settles within the recorded trace.
    """
    times = series.times
    values = series.values
    mask = times >= start_s
    for t, v in zip(times[mask], values[mask]):
        if v <= threshold:
            return float(t - start_s)
    return None


def overshoot_fraction(series: TimeSeries, limit: float) -> float:
    """Peak value as a fraction of ``limit`` (1.0 = touched the limit)."""
    if len(series) == 0:
        return 0.0
    return series.max() / limit
