"""Periodic power samplers for devices and servers.

A :class:`PowerSampler` records the instantaneous power of a set of named
sources into per-source :class:`~repro.telemetry.timeseries.TimeSeries`,
driven by a :class:`~repro.simulation.process.PeriodicProcess`.  This is
the "fine-grained real-time monitoring" half of Dynamo (Table I's
3-second granularity readings) and feeds the characterization study.
"""

from __future__ import annotations

from typing import Callable

from repro.core.coordinator import PRIORITY_SAMPLER
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import PeriodicProcess
from repro.telemetry.timeseries import TimeSeries

PowerSource = Callable[[], float]


class PowerSampler:
    """Samples named power sources on a fixed interval."""

    def __init__(
        self,
        engine: SimulationEngine,
        interval_s: float = 3.0,
        *,
        name: str = "sampler",
    ) -> None:
        self._sources: dict[str, PowerSource] = {}
        self.series: dict[str, TimeSeries] = {}
        self._process = PeriodicProcess(
            engine,
            interval_s,
            self._tick,
            label=f"{name}.tick",
            priority=PRIORITY_SAMPLER,
        )

    def add_source(self, source_id: str, source: PowerSource) -> None:
        """Register a power source; sampling starts at the next tick."""
        self._sources[source_id] = source
        self.series.setdefault(source_id, TimeSeries(source_id))

    def remove_source(self, source_id: str) -> None:
        """Stop sampling a source; its recorded series is kept."""
        self._sources.pop(source_id, None)

    def start(self, phase: float = 0.0) -> None:
        """Begin periodic sampling."""
        self._process.start(phase)

    def stop(self) -> None:
        """Stop sampling."""
        self._process.stop()

    def _tick(self, now_s: float) -> None:
        for source_id, source in self._sources.items():
            self.series[source_id].append(now_s, source())

    @property
    def sample_count(self) -> int:
        """Total samples recorded across all sources."""
        return sum(len(s) for s in self.series.values())
