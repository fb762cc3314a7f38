"""Power devices: the nodes of the power delivery hierarchy.

A :class:`PowerDevice` is anything in Figure 2 that has a rating and a
breaker: MSB, SB, RPP, rack.  Devices form a tree; leaves of the *device*
tree host servers (attached via ``server_loads``, a callable registry so
the power package does not depend on the server package).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

from repro.errors import ConfigurationError, TopologyError
from repro.power.breaker import STANDARD_CURVES, BreakerCurve, CircuitBreaker
from repro.power.loss import PowerLossModel
from repro.simulation.soa import ArraySlot, array_backed, seq_sum


class DeviceLevel(enum.Enum):
    """Level of a device in the OCP power delivery hierarchy."""

    MSB = "msb"
    SB = "sb"
    RPP = "rpp"
    RACK = "rack"

    @property
    def breaker_curve(self) -> BreakerCurve:
        """The Figure-3 trip curve class for this level."""
        return STANDARD_CURVES[self.value]

    @property
    def depth(self) -> int:
        """0 for MSB down to 3 for rack."""
        return {"msb": 0, "sb": 1, "rpp": 2, "rack": 3}[self.value]


#: A load source reports its instantaneous power draw in watts.
LoadSource = Callable[[], float]


class PowerDevice:
    """One node in the power delivery tree.

    Power draw is computed bottom-up: a device's draw is the sum of its
    children's draws plus its directly attached loads (servers, top-of-rack
    switches) plus distribution losses, if a loss model is attached.
    """

    #: Called after any structural change under this device (a load
    #: attached or detached, a child added, the loss model replaced):
    #: the owning topology drops its compiled device table.
    _load_membership_hook: Callable[["PowerDevice"], None] | None = None

    #: Row of the owning topology's compiled device table, once there is
    #: one; the fixed overhead then lives in its arrays.
    _soa: ArraySlot | None = None
    #: Non-server overhead power always present (e.g. network gear).
    fixed_overhead_w = array_backed("fixed_overhead")

    def __init__(
        self,
        name: str,
        level: DeviceLevel,
        rated_power_w: float,
        *,
        breaker_curve: BreakerCurve | None = None,
    ) -> None:
        if rated_power_w <= 0:
            raise ConfigurationError(f"device {name!r} rating must be positive")
        self.name = name
        self.level = level
        self.rated_power_w = float(rated_power_w)
        self.breaker = CircuitBreaker(
            rated_power_w, breaker_curve or level.breaker_curve
        )
        self.parent: PowerDevice | None = None
        self.children: list[PowerDevice] = []
        self._loads: dict[str, LoadSource] = {}
        #: Planned peak power (the oversubscription quota).  Set by
        #: :func:`repro.power.oversubscription.plan_quotas`; defaults to
        #: the physical rating.
        self.power_quota_w: float = float(rated_power_w)
        self.fixed_overhead_w = 0.0
        self._loss_model: PowerLossModel | None = None
        #: Suite (room) this device belongs to; a datacenter typically
        #: spans four suites with up to four MSBs each (Section II-A).
        self.suite: int | None = None

    @property
    def loss_model(self) -> PowerLossModel | None:
        """Optional distribution-loss model: the breaker sees the
        subtree draw inflated by conversion/distribution losses."""
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model: PowerLossModel | None) -> None:
        self._loss_model = model
        self._structure_changed()

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------

    def _structure_changed(self) -> None:
        if self._load_membership_hook is not None:
            self._load_membership_hook(self)

    def add_child(self, child: "PowerDevice") -> None:
        """Attach a downstream device."""
        if child.parent is not None:
            raise TopologyError(
                f"device {child.name!r} already has parent {child.parent.name!r}"
            )
        if child is self:
            raise TopologyError("a device cannot be its own child")
        if child.level.depth <= self.level.depth:
            raise TopologyError(
                f"cannot attach {child.level.value!r} under {self.level.value!r}"
            )
        child.parent = self
        self.children.append(child)
        self._structure_changed()

    def attach_load(self, load_id: str, source: LoadSource) -> None:
        """Attach a direct load (a server or switch) to this device."""
        if load_id in self._loads:
            raise TopologyError(f"load {load_id!r} already attached to {self.name!r}")
        self._loads[load_id] = source
        self._structure_changed()

    def detach_load(self, load_id: str) -> None:
        """Remove a direct load (e.g. a decommissioned server)."""
        if load_id not in self._loads:
            raise TopologyError(f"load {load_id!r} not attached to {self.name!r}")
        del self._loads[load_id]
        self._structure_changed()

    @property
    def load_ids(self) -> list[str]:
        """Identifiers of directly attached loads."""
        return list(self._loads)

    # ------------------------------------------------------------------
    # Power computation
    # ------------------------------------------------------------------

    def direct_load_power_w(self) -> float:
        """Instantaneous power of loads attached directly to this device."""
        return seq_sum(source() for source in self._loads.values())

    def power_w(self) -> float:
        """Instantaneous total power draw of this device's subtree.

        A device whose breaker has tripped draws nothing: its subtree is
        offline.  When a loss model is attached, the reported draw is
        what the breaker sees — downstream power inflated by
        distribution and conversion losses.

        This recursion is the definition.  The per-step evaluation of
        every device at once (:class:`repro.power.table.DeviceTable`)
        reproduces it bit for bit, which is why both sums here are
        strict left-to-right :func:`~repro.simulation.soa.seq_sum`.
        """
        if self.breaker.tripped:
            return 0.0
        total = self.fixed_overhead_w + self.direct_load_power_w()
        total += seq_sum(child.power_w() for child in self.children)
        if self.loss_model is not None:
            total = self.loss_model.upstream_power_w(total)
        return total

    def utilization(self) -> float:
        """Current power draw as a fraction of the physical rating."""
        return self.power_w() / self.rated_power_w

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable mutable state: rating, quota, breaker thermals.

        Structure (children, loads, loss model) is rebuilt by the world
        recipe, not captured here.
        """
        return {
            "rated_power_w": self.rated_power_w,
            "power_quota_w": self.power_quota_w,
            "fixed_overhead_w": self.fixed_overhead_w,
            "breaker": self.breaker.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore mutable device state in place."""
        self.rated_power_w = float(state["rated_power_w"])
        self.power_quota_w = float(state["power_quota_w"])
        self.fixed_overhead_w = float(state["fixed_overhead_w"])
        self.breaker.restore_state(state["breaker"])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def iter_subtree(self) -> Iterator["PowerDevice"]:
        """Yield this device and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def iter_leaf_devices(self) -> Iterator["PowerDevice"]:
        """Yield subtree devices with no device children (rack or RPP)."""
        for device in self.iter_subtree():
            if not device.children:
                yield device

    def iter_load_ids(self) -> Iterator[str]:
        """Yield all load identifiers in the subtree."""
        for device in self.iter_subtree():
            yield from device.load_ids

    def path(self) -> str:
        """Slash-separated path from the root to this device."""
        parts: list[str] = []
        node: PowerDevice | None = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def __repr__(self) -> str:
        return (
            f"PowerDevice({self.name!r}, {self.level.value}, "
            f"rated={self.rated_power_w:.0f}W, "
            f"children={len(self.children)}, loads={len(self._loads)})"
        )
