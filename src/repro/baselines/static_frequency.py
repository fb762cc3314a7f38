"""Static worst-case capping: the pre-Dynamo approach (Section IV-D).

Before Dynamo, the search cluster limited every server's clock frequency
so that the *worst-case* aggregate peak stayed within the breaker limit —
a static cap sized for a peak that rarely happens, permanently costing
performance.  We reproduce it as a fixed RAPL limit applied once to every
server: ``cap = device_budget / n_servers`` less a safety margin.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.server.server import Server


def static_cap_for_budget(
    budget_w: float,
    server_count: int,
    *,
    safety_margin_fraction: float = 0.02,
) -> float:
    """The per-server static cap that makes worst-case peak fit budget."""
    if budget_w <= 0:
        raise ConfigurationError("budget must be positive")
    if server_count <= 0:
        raise ConfigurationError("need at least one server")
    if not 0.0 <= safety_margin_fraction < 1.0:
        raise ConfigurationError("safety margin must be in [0, 1)")
    return budget_w * (1.0 - safety_margin_fraction) / server_count


class StaticFrequencyCap:
    """Applies a permanent per-server cap sized for worst-case peaks."""

    def __init__(self, servers: list[Server], budget_w: float) -> None:
        if not servers:
            raise ConfigurationError("need at least one server")
        self.servers = list(servers)
        self.budget_w = budget_w
        self.cap_w = static_cap_for_budget(budget_w, len(servers))

    def apply(self) -> float:
        """Set the static cap on every server; returns the cap used.

        Servers whose platform minimum exceeds the computed cap get the
        platform minimum (the real deployment would simply not place that
        hardware in the cluster).
        """
        for server in self.servers:
            cap = max(self.cap_w, server.platform.effective_min_cap_w())
            server.rapl.set_limit(cap)
        return self.cap_w

    def remove(self) -> None:
        """Lift the static caps (the with-Dynamo configuration)."""
        for server in self.servers:
            server.rapl.clear_limit()

    def worst_case_peak_w(self) -> float:
        """Aggregate worst-case power under the static caps."""
        total = 0.0
        for server in self.servers:
            limit = server.rapl.limit_w
            peak = server.power_model.peak_power_w(turbo=server.turbo.enabled)
            total += min(peak, limit) if limit is not None else peak
        return total
