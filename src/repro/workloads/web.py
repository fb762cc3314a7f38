"""Front-end web server workload.

Web servers track user traffic directly: a strong diurnal trend with
large, fast fluctuations on top (request mix, load balancer churn).  In
Figure 6 web servers show a *high median* power variation (p50 37.2%) and
a high tail (p99 62.2%) in 60 s windows.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import StochasticWorkload
from repro.workloads.diurnal import DiurnalShape

#: Frozen, so every server of the service shares the one instance.
_DEFAULT_SHAPE = DiurnalShape(trough=0.30, peak=0.70)


class WebWorkload(StochasticWorkload):
    """Diurnal user traffic with large fast noise."""

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        shape: DiurnalShape | None = None,
    ) -> None:
        # Noise/burst levels calibrated so 30 servers over a multi-hour
        # trace reproduce Figure 6's web variation (p50 ~37%, p99 ~62%).
        super().__init__(
            "web",
            rng,
            noise_sigma=0.10,
            noise_tau_s=25.0,
            burst_rate_per_s=1.0 / 900.0,
            burst_magnitude=0.08,
            burst_duration_s=45.0,
        )
        self._shape = shape or _DEFAULT_SHAPE

    def base_utilization(self, now_s: float) -> float:
        """Diurnal trend."""
        return self._shape.value(now_s)
