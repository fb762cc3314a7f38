"""Diurnal traffic shape for user-facing services.

Facebook's front-end traffic follows a strong daily cycle (visible in
Figures 11 and 14).  We model it as a raised cosine between a trough and a
peak utilization, with the peak hour configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_DAY, hours


@dataclass(frozen=True)
class DiurnalShape:
    """A daily raised-cosine utilization trend.

    Attributes:
        trough: utilization at the quietest time of day.
        peak: utilization at the busiest time of day.
        peak_time_s: seconds-after-midnight of the daily peak.
    """

    trough: float = 0.35
    peak: float = 0.75
    peak_time_s: float = hours(14)

    def __post_init__(self) -> None:
        if not 0.0 <= self.trough <= self.peak <= 1.0:
            raise ConfigurationError(
                "need 0 <= trough <= peak <= 1 for a diurnal shape"
            )

    def value(self, now_s: float) -> float:
        """Trend utilization at simulation time ``now_s``."""
        phase = 2.0 * math.pi * (now_s - self.peak_time_s) / SECONDS_PER_DAY
        # cos(0) = 1 at the peak time.
        blend = (1.0 + math.cos(phase)) / 2.0
        return self.trough + (self.peak - self.trough) * blend
