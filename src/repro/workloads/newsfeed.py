"""News feed ranking/aggregation workload.

Feed servers fan out per-request ranking work whose cost varies wildly
with the request (story mix, ranking model paths), making them the most
variable service in Figure 6: p50 variation 42.4% and p99 78.1% in 60 s
windows.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import StochasticWorkload
from repro.workloads.diurnal import DiurnalShape

#: Frozen, so every server of the service shares the one instance.
_DEFAULT_SHAPE = DiurnalShape(trough=0.30, peak=0.65)


class NewsfeedWorkload(StochasticWorkload):
    """Diurnal trend with very large, fast fluctuations."""

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        shape: DiurnalShape | None = None,
    ) -> None:
        # Calibrated to Figure 6's newsfeed variation (p50 ~42%, p99 ~78%):
        # the highest-median service, tail second only to f4 storage.
        super().__init__(
            "newsfeed",
            rng,
            noise_sigma=0.115,
            noise_tau_s=20.0,
            burst_rate_per_s=1.0 / 600.0,
            burst_magnitude=0.12,
            burst_duration_s=30.0,
        )
        self._shape = shape or _DEFAULT_SHAPE

    def base_utilization(self, now_s: float) -> float:
        """Diurnal trend."""
        return self._shape.value(now_s)
