"""Simulated Intel RAPL (Running Average Power Limit) module.

RAPL enforces a total-system power budget on a single server.  The paper's
agents set or unset the limit either by writing a machine status register
directly or through the IPMI node-manager API, depending on platform; the
measured behaviour (Figure 9) is that a cap or uncap command takes about
two seconds to take effect and stabilize.  That settling time is a
first-class design input: it forces controllers to sample no faster than
every ~3 s.

We model enforcement as a first-order lag: the *enforced* power tracks the
target ``min(demand, limit)`` with time constant ``settling_time / 3`` so
the output reaches ~95% of a step within the settling time.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import CappingError
from repro.simulation.soa import ArraySlot, array_backed

#: Time for a cap or uncap to take effect and stabilize (Figure 9).
SETTLING_TIME_S = 2.0
#: Lowest limit RAPL accepts, whatever the platform's own floor.
MIN_LIMIT_W = 50.0


class RaplModule:
    """Per-server power limit with first-order settling dynamics."""

    #: Structure-of-arrays slot when bound by the vectorized backend.
    _soa: ArraySlot | None = None

    #: The enforced power tracks the target in the packed array when
    #: bound; the limit is hand-rolled below because ``None`` encodes as
    #: ``+inf`` (min(demand, inf) == demand) and writes notify listeners.
    _enforced_power_w = array_backed("rapl_enforced")

    def __init__(
        self,
        *,
        min_cap_w: float = 0.0,
        initial_power_w: float = 0.0,
    ) -> None:
        self._min_cap_w = max(min_cap_w, MIN_LIMIT_W)
        self._limit_listeners: tuple[Callable[[RaplModule], None], ...] = ()
        self._limit_w = None
        self._enforced_power_w = float(initial_power_w)
        # First-order time constant: ~95% settled at 3 * tau.
        self._tau_s = SETTLING_TIME_S / 3.0

    @property
    def _limit_w(self) -> float | None:
        slot = self._soa
        if slot is None:
            return self._soa_shadow_limit
        value = float(slot.arrays.rapl_limit[slot.index])
        return None if value == math.inf else value

    @_limit_w.setter
    def _limit_w(self, value: float | None) -> None:
        slot = self._soa
        if slot is None:
            self._soa_shadow_limit = value
        else:
            slot.arrays.rapl_limit[slot.index] = (
                math.inf if value is None else value
            )
        for listener in self._limit_listeners:
            listener(self)

    def add_limit_listener(
        self, listener: Callable[["RaplModule"], None]
    ) -> None:
        """Call ``listener(self)`` after every limit set/clear/restore.

        Used by :class:`~repro.fleet.Fleet` to keep its capped-server
        index current without scanning, and safe to call more than once
        with distinct listeners.
        """
        self._limit_listeners = (*self._limit_listeners, listener)

    # ------------------------------------------------------------------
    # Limit management
    # ------------------------------------------------------------------

    @property
    def limit_w(self) -> float | None:
        """The active power limit, or None when uncapped."""
        return self._limit_w

    @property
    def capped(self) -> bool:
        """Whether a power limit is currently set."""
        return self._limit_w is not None

    def set_limit(self, limit_w: float) -> None:
        """Set the power limit (the agent's *cap* operation).

        Raises:
            CappingError: if the requested limit is below what the
                platform can enforce.
        """
        if limit_w < self._min_cap_w:
            raise CappingError(
                f"requested limit {limit_w:.1f} W below platform minimum "
                f"{self._min_cap_w:.1f} W"
            )
        self._limit_w = float(limit_w)

    def clear_limit(self) -> None:
        """Remove the power limit (the agent's *uncap* operation)."""
        self._limit_w = None

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------

    def target_power_w(self, demand_w: float) -> float:
        """Steady-state power for a given demand under the current limit."""
        if self._limit_w is None:
            return demand_w
        return min(demand_w, self._limit_w)

    def step(self, demand_w: float, dt_s: float) -> float:
        """Advance enforcement by ``dt_s`` seconds; return enforced power.

        The enforced power exponentially approaches the target.  With the
        default 2 s settling time, a step change reaches ~95% within 2 s,
        matching Figure 9's measured cap/uncap transients.
        """
        target = self.target_power_w(demand_w)
        if dt_s <= 0:
            return self._enforced_power_w
        alpha = 1.0 - math.exp(-dt_s / self._tau_s)
        self._enforced_power_w += (target - self._enforced_power_w) * alpha
        return self._enforced_power_w

    @property
    def enforced_power_w(self) -> float:
        """Most recently computed enforced power."""
        return self._enforced_power_w

    def settled(self, demand_w: float, tolerance_w: float = 2.0) -> bool:
        """Whether enforcement is within ``tolerance_w`` of its target."""
        return abs(self._enforced_power_w - self.target_power_w(demand_w)) <= tolerance_w

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable mutable state (the active limit and lag state)."""
        return {
            "limit_w": self._limit_w,
            "enforced_power_w": self._enforced_power_w,
        }

    def restore_state(self, state: dict) -> None:
        """Restore the active limit and first-order lag state in place."""
        limit = state["limit_w"]
        self._limit_w = None if limit is None else float(limit)
        self._enforced_power_w = float(state["enforced_power_w"])
