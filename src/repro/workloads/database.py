"""MySQL database server workload.

Database servers see diurnal user-driven queries plus episodic heavy
operations (backups, schema migrations, replication catch-up).  Figure 6
measures p50 variation 15.1% and p99 45.8% in 60 s windows — between
cache/hadoop and the front-end services.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import StochasticWorkload
from repro.workloads.diurnal import DiurnalShape

#: Frozen, so every server of the service shares the one instance.
_DEFAULT_SHAPE = DiurnalShape(trough=0.35, peak=0.60)


class DatabaseWorkload(StochasticWorkload):
    """Diurnal query load plus episodic maintenance bursts."""

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        shape: DiurnalShape | None = None,
    ) -> None:
        # Calibrated to Figure 6's database variation (p50 ~15%, p99 ~46%).
        super().__init__(
            "database",
            rng,
            noise_sigma=0.05,
            noise_tau_s=40.0,
            burst_rate_per_s=1.0 / 900.0,
            burst_magnitude=0.16,
            burst_duration_s=90.0,
        )
        self._shape = shape or _DEFAULT_SHAPE

    def base_utilization(self, now_s: float) -> float:
        """Diurnal query trend."""
        return self._shape.value(now_s)
