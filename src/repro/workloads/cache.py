"""Cache (TAO-style) server workload.

Cache servers serve a very high, steady request rate: the working set is
memory-resident and load balancing smooths per-server demand.  In Figure 6
cache is the steadiest service: p50 variation 9.2%, p99 26.2% in 60 s
windows.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import StochasticWorkload
from repro.workloads.diurnal import DiurnalShape

#: Frozen, so every server of the service shares the one instance.
_DEFAULT_SHAPE = DiurnalShape(trough=0.45, peak=0.65)


class CacheWorkload(StochasticWorkload):
    """Gently diurnal, low-noise demand."""

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        shape: DiurnalShape | None = None,
    ) -> None:
        super().__init__(
            "cache",
            rng,
            noise_sigma=0.035,
            noise_tau_s=60.0,
            burst_rate_per_s=1.0 / 1800.0,
            burst_magnitude=0.08,
            burst_duration_s=60.0,
        )
        self._shape = shape or _DEFAULT_SHAPE

    def base_utilization(self, now_s: float) -> float:
        """Mild diurnal trend around a high steady level."""
        return self._shape.value(now_s)
