"""Electricity-price and grid-carbon-intensity signals.

The signals layer plays the same role for the economics subsystem that
the workload registry plays for the fleet: deterministic, named time
series that scenarios compose.  A signal is a pure function of
simulation time — constructed once, never mutated — so it needs no
snapshot state and two runs of the same scenario read identical series.

Three shapes cover what grid data actually looks like:

* :class:`DiurnalSignal` — a raised-cosine daily cycle between a low
  and a high (day-ahead prices peak in the evening; carbon intensity
  sags at midday when solar is on the grid), optionally decorated with
  :class:`SpikeEvent` excursions (scarcity pricing, a coal plant
  covering a lull).
* :func:`seeded_spikes` — deterministic, seedable spike schedules for
  scenario authoring.
* :class:`ReplaySignal` — replay a recorded ``time_s,value`` CSV trace
  (day-ahead market data, a grid operator's carbon feed) with linear
  interpolation and optional looping.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.analysis.report import Table
from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_DAY, format_duration, hours


@runtime_checkable
class EconomicSignal(Protocol):
    """A named, unit-carrying time series the governor can score."""

    name: str
    unit: str

    def value(self, now_s: float) -> float:
        """The signal value at simulation time ``now_s``."""
        ...

    def bounds(self) -> tuple[float, float]:
        """(low, high) envelope used to normalize values into [0, 1]."""
        ...


@dataclass(frozen=True)
class SpikeEvent:
    """One additive excursion on top of a signal's base shape.

    The contribution is a trapezoid: zero outside
    ``[start_s, start_s + duration_s]``, linear ramps of ``ramp_s`` at
    each edge, ``magnitude`` in between.  Negative magnitudes model
    sags (a wind surge crashing prices).
    """

    start_s: float
    duration_s: float
    magnitude: float
    ramp_s: float = 600.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("spike duration must be positive")
        if self.ramp_s < 0:
            raise ConfigurationError("spike ramp cannot be negative")

    def contribution(self, now_s: float) -> float:
        """The spike's additive value at ``now_s``."""
        end_s = self.start_s + self.duration_s
        if now_s <= self.start_s or now_s >= end_s:
            return 0.0
        envelope = 1.0
        if self.ramp_s > 0.0 and now_s < self.start_s + self.ramp_s:
            envelope = (now_s - self.start_s) / self.ramp_s
        elif self.ramp_s > 0.0 and now_s > end_s - self.ramp_s:
            envelope = (end_s - now_s) / self.ramp_s
        return self.magnitude * envelope


class DiurnalSignal:
    """A daily raised-cosine series between ``low`` and ``high``.

    The same shape the user-facing workloads follow
    (:class:`~repro.workloads.diurnal.DiurnalShape`), re-used for grid
    quantities: ``value`` peaks at ``peak_time_s`` (seconds after
    midnight, day-periodic) and troughs half a day away.  ``low ==
    high`` yields a flat signal that never drives shaping.  Spikes are
    anchored to absolute simulation time, not the daily cycle.
    """

    def __init__(
        self,
        name: str,
        unit: str,
        low: float,
        high: float,
        *,
        peak_time_s: float = hours(18),
        spikes: Sequence[SpikeEvent] = (),
    ) -> None:
        if low < 0 or high < low:
            raise ConfigurationError(
                "need 0 <= low <= high for a diurnal signal"
            )
        self.name = name
        self.unit = unit
        self.low = low
        self.high = high
        self.peak_time_s = peak_time_s
        self.spikes: tuple[SpikeEvent, ...] = tuple(spikes)

    def base_value(self, now_s: float) -> float:
        """The spike-free daily cycle at ``now_s`` (periodic over 24 h)."""
        phase = 2.0 * math.pi * (now_s - self.peak_time_s) / SECONDS_PER_DAY
        blend = (1.0 + math.cos(phase)) / 2.0
        return self.low + (self.high - self.low) * blend

    def value(self, now_s: float) -> float:
        """Daily cycle plus any active spike contributions, floored at 0."""
        value = self.base_value(now_s)
        for spike in self.spikes:
            value += spike.contribution(now_s)
        return max(0.0, value)

    def bounds(self) -> tuple[float, float]:
        """The spike-free daily envelope (low, high).

        Deliberately excludes spikes: normalization measures a moment
        against the *ordinary* day, so a scarcity spike saturates the
        normalized score at 1.0 instead of re-scaling the whole day
        into blandness.
        """
        return (self.low, self.high)

    def __repr__(self) -> str:
        return (
            f"DiurnalSignal({self.name!r}, {self.low}..{self.high} "
            f"{self.unit}, {len(self.spikes)} spikes)"
        )


def seeded_spikes(
    seed: int,
    *,
    count: int = 2,
    magnitude: float = 0.15,
    duration_s: float = hours(2),
    window_s: tuple[float, float] = (hours(6), hours(22)),
    magnitude_jitter: float = 0.3,
    ramp_s: float = 600.0,
) -> tuple[SpikeEvent, ...]:
    """A deterministic spike schedule drawn from a seeded generator.

    Start times are uniform over ``window_s`` and magnitudes jittered
    by up to ``±magnitude_jitter`` (relative), so scenario authors get
    varied but exactly reproducible spike days from an integer seed.
    """
    if count < 0:
        raise ConfigurationError("spike count cannot be negative")
    lo, hi = window_s
    if hi <= lo:
        raise ConfigurationError("spike window must have positive span")
    rng = np.random.default_rng(seed)
    spikes = []
    for _ in range(count):
        start_s = float(rng.uniform(lo, hi))
        jitter = 1.0 + magnitude_jitter * float(rng.uniform(-1.0, 1.0))
        spikes.append(
            SpikeEvent(
                start_s=start_s,
                duration_s=duration_s,
                magnitude=magnitude * jitter,
                ramp_s=ramp_s,
            )
        )
    return tuple(sorted(spikes, key=lambda s: s.start_s))


class ReplaySignal:
    """Replays a recorded (time, value) trace as a signal.

    Linear interpolation between samples; with ``loop=True`` simulation
    time wraps around the trace span, so a one-day trace drives
    arbitrarily long runs with a continuous day boundary whenever the
    trace's first and last values agree.
    """

    def __init__(
        self,
        name: str,
        unit: str,
        times: Sequence[float],
        values: Sequence[float],
        *,
        interpolate: bool = True,
        loop: bool = True,
    ) -> None:
        if len(times) == 0 or len(times) != len(values):
            raise ConfigurationError(
                "replay signal needs matching, non-empty times and values"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                "replay signal times must be strictly increasing"
            )
        if any(v < 0 for v in values):
            raise ConfigurationError("replay signal values cannot be negative")
        self.name = name
        self.unit = unit
        self._times = [float(t) for t in times]
        self._values = [float(v) for v in values]
        self._interpolate = interpolate
        self._loop = loop
        self._span = self._times[-1] - self._times[0]

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        name: str | None = None,
        unit: str = "",
        interpolate: bool = True,
        loop: bool = True,
    ) -> "ReplaySignal":
        """Load a two-column ``time_s,value`` CSV (header optional)."""
        csv_path = Path(path)
        times: list[float] = []
        values: list[float] = []
        with csv_path.open(newline="", encoding="utf-8") as handle:
            for row in csv.reader(handle):
                if not row or row[0].strip().startswith("#"):
                    continue
                try:
                    t, v = float(row[0]), float(row[1])
                except (IndexError, ValueError):
                    if not times:
                        continue  # header row
                    raise ConfigurationError(
                        f"malformed trace row in {csv_path}: {row!r}"
                    ) from None
                times.append(t)
                values.append(v)
        if not times:
            raise ConfigurationError(f"no samples in trace file {csv_path}")
        return cls(
            name or csv_path.stem,
            unit,
            times,
            values,
            interpolate=interpolate,
            loop=loop,
        )

    def value(self, now_s: float) -> float:
        """The replayed value at ``now_s``."""
        t = now_s
        start = self._times[0]
        if self._loop and self._span > 0.0:
            t = start + (t - start) % self._span
        times, values = self._times, self._values
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        hi = bisect.bisect_right(times, t)
        lo = hi - 1
        if not self._interpolate:
            return values[lo]
        frac = (t - times[lo]) / (times[hi] - times[lo])
        return values[lo] + (values[hi] - values[lo]) * frac

    def bounds(self) -> tuple[float, float]:
        """The trace's observed (min, max)."""
        return (min(self._values), max(self._values))

    def __repr__(self) -> str:
        lo, hi = self.bounds()
        return (
            f"ReplaySignal({self.name!r}, {len(self._times)} samples, "
            f"{lo:.3g}..{hi:.3g} {self.unit})"
        )


def normalized_score(signal: EconomicSignal, now_s: float) -> float:
    """The signal's value mapped onto [0, 1] against its own envelope.

    A flat signal (zero-width envelope) scores 0.0: a quantity that
    never varies gives the governor no reason to shift anything.
    """
    low, high = signal.bounds()
    if high <= low:
        return 0.0
    raw = (signal.value(now_s) - low) / (high - low)
    return min(1.0, max(0.0, raw))


# ---------------------------------------------------------------------------
# The named signal registry
# ---------------------------------------------------------------------------
#
# Prices in $/kWh around typical US day-ahead wholesale levels; carbon
# intensities in gCO2/kWh around a mixed-fuel grid with midday solar.
# Spike days use explicit spike times so scenario assertions (and the CI
# smoke's shortened horizon) know when shaping must engage; authors
# wanting varied days compose ``seeded_spikes`` themselves.

SIGNALS: dict[str, EconomicSignal] = {
    "price-flat": DiurnalSignal("price-flat", "$/kWh", 0.08, 0.08),
    "price-diurnal": DiurnalSignal(
        "price-diurnal", "$/kWh", 0.04, 0.14, peak_time_s=hours(18)
    ),
    "price-spike-day": DiurnalSignal(
        "price-spike-day",
        "$/kWh",
        0.04,
        0.14,
        peak_time_s=hours(18),
        spikes=(
            SpikeEvent(start_s=hours(8), duration_s=hours(2), magnitude=0.15),
            SpikeEvent(
                start_s=hours(17.5), duration_s=hours(2.5), magnitude=0.25
            ),
        ),
    ),
    "price-spike-early": DiurnalSignal(
        # A sharp spike minutes into the run, sized for short chaos
        # horizons (the chaos suite runs half-hour drills, not days).
        "price-spike-early",
        "$/kWh",
        0.04,
        0.14,
        peak_time_s=hours(18),
        spikes=(
            SpikeEvent(
                start_s=300.0, duration_s=900.0, magnitude=0.30, ramp_s=120.0
            ),
        ),
    ),
    "carbon-flat": DiurnalSignal("carbon-flat", "gCO2/kWh", 420.0, 420.0),
    "carbon-diurnal": DiurnalSignal(
        "carbon-diurnal", "gCO2/kWh", 320.0, 520.0, peak_time_s=hours(20)
    ),
    "carbon-spike-day": DiurnalSignal(
        "carbon-spike-day",
        "gCO2/kWh",
        320.0,
        520.0,
        peak_time_s=hours(20),
        spikes=(
            SpikeEvent(
                start_s=hours(7), duration_s=hours(3), magnitude=180.0
            ),
        ),
    ),
}


def get_signal(name: str) -> EconomicSignal:
    """Look up a named signal."""
    try:
        return SIGNALS[name]
    except KeyError:
        known = ", ".join(sorted(SIGNALS))
        raise ConfigurationError(
            f"unknown signal {name!r}; known: {known}"
        ) from None


# ---------------------------------------------------------------------------
# Summaries (the ``repro signals`` CLI)
# ---------------------------------------------------------------------------


def summarize_signal(
    signal: EconomicSignal,
    *,
    duration_s: float = SECONDS_PER_DAY,
    interval_s: float = 300.0,
    window_s: float = hours(1),
) -> dict:
    """Sample a signal and report extremes plus best/worst windows.

    The "lowest window" is the ``window_s``-long stretch with the
    smallest mean value — the cheapest (or cleanest) time to spend
    deferrable energy; the "highest window" is its mirror.
    """
    if duration_s <= 0 or interval_s <= 0 or window_s <= 0:
        raise ConfigurationError(
            "summary duration, interval, and window must be positive"
        )
    times = []
    values = []
    t = 0.0
    while t <= duration_s:
        times.append(t)
        values.append(signal.value(t))
        t += interval_s
    per_window = max(1, int(round(window_s / interval_s)))
    best_start, best_mean = 0.0, math.inf
    worst_start, worst_mean = 0.0, -math.inf
    for i in range(0, max(1, len(values) - per_window + 1)):
        mean = sum(values[i : i + per_window]) / per_window
        if mean < best_mean:
            best_start, best_mean = times[i], mean
        if mean > worst_mean:
            worst_start, worst_mean = times[i], mean
    return {
        "name": signal.name,
        "unit": signal.unit,
        "duration_s": duration_s,
        "interval_s": interval_s,
        "window_s": window_s,
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
        "lowest_window_start_s": best_start,
        "lowest_window_mean": best_mean,
        "highest_window_start_s": worst_start,
        "highest_window_mean": worst_mean,
    }


def render_signal_summary(summary: dict) -> str:
    """Render one :func:`summarize_signal` result as a text table."""
    unit = summary["unit"]
    table = Table(
        f"Signal summary: {summary['name']} "
        f"({format_duration(summary['duration_s'])} @ "
        f"{format_duration(summary['interval_s'])})",
        ["metric", "value"],
    )
    table.add_row("min", f"{summary['min']:.4g} {unit}")
    table.add_row("mean", f"{summary['mean']:.4g} {unit}")
    table.add_row("max", f"{summary['max']:.4g} {unit}")
    window = format_duration(summary["window_s"])
    table.add_row(
        f"lowest {window} window",
        f"starts t={format_duration(summary['lowest_window_start_s'])} "
        f"(mean {summary['lowest_window_mean']:.4g} {unit})",
    )
    table.add_row(
        f"highest {window} window",
        f"starts t={format_duration(summary['highest_window_start_s'])} "
        f"(mean {summary['highest_window_mean']:.4g} {unit})",
    )
    return table.render()


def record_signal(
    signal: EconomicSignal,
    duration_s: float,
    *,
    interval_s: float = 300.0,
) -> Iterable[tuple[float, float]]:
    """Sample a signal into (time, value) pairs (CSV export, tests)."""
    if duration_s <= 0 or interval_s <= 0:
        raise ConfigurationError("duration and interval must be positive")
    t = 0.0
    while t <= duration_s:
        yield (t, signal.value(t))
        t += interval_s
