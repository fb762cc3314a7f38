"""Upper-level power controllers (Section III-D).

One per non-leaf power device (SB, MSB).  An upper-level controller runs
the same shared control-cycle pipeline as the leaves
(:class:`~repro.core.controller.BaseController`) but pulls aggregated
power from its *child controllers* — not from servers — on a cycle 3x
longer than the leaf cycle (9 s vs 3 s) so the downstream capping
actions have settled before it reacts (a textbook requirement for
nested control loops).

Capping decisions use the same three-band algorithm; the capping
*actuation* is the punish-offender-first algorithm: children over their
power quota receive contractual power limits, which each child folds
into its own effective limit (``min(physical, contractual)``) and
enforces on its next cycle — recursively, down to the leaf controllers
and the servers.

A cycle where *every* child lacks an aggregation is an invalid cycle,
accounted exactly like a leaf's failed aggregation: a CRITICAL alert,
an ``invalid_cycles`` increment, and no action.

In the consolidated deployment all controllers for a suite run in one
binary (one thread each) and communicate through shared memory; here the
parent holds direct references to its children, which is the same thing.
"""

from __future__ import annotations

from repro.config import ControllerConfig
from repro.core.controller import (
    MAX_READING_FAILURE_FRACTION,
    BaseController,
    DecisionPolicy,
    PowerController,
)
from repro.core.offender import ChildState, OffenderDecision, punish_offender_first
from repro.core.three_band import BandAction, BandDecision
from repro.core.thresholds import control_thresholds_w
from repro.power.device import PowerDevice
from repro.simulation.soa import seq_sum
from repro.telemetry.alerts import AlertSink, Severity
from repro.telemetry.tracing import TraceBuffer, TraceBuilder

#: Backwards-compatible alias: the child surface an upper controller
#: programs against is the one uniform controller protocol.
ChildController = PowerController


class UpperLevelPowerController(BaseController[list[ChildState]]):
    """Monitors and protects one non-leaf power device."""

    KIND = "upper"

    def __init__(
        self,
        device: PowerDevice,
        children: list[PowerController],
        *,
        config: ControllerConfig | None = None,
        alerts: AlertSink | None = None,
        band: DecisionPolicy | None = None,
        tracer: TraceBuffer | None = None,
    ) -> None:
        super().__init__(
            device, config=config, alerts=alerts, band=band, tracer=tracer
        )
        self.children: list[PowerController] = list(children)
        self._limited_children: dict[str, float] = {}
        self.last_decision: OffenderDecision | None = None

    # ------------------------------------------------------------------
    # Stage 1: pull child aggregations
    # ------------------------------------------------------------------

    def sense(
        self, now_s: float, trace: TraceBuilder
    ) -> list[ChildState] | None:
        """Collect child aggregations; None when too many are missing."""
        child_states: list[ChildState] = []
        missing = 0
        for child in self.children:
            power = child.last_aggregate_power_w
            if power is None:
                missing += 1
                continue
            child_states.append(
                ChildState(
                    name=child.name,
                    power_w=power,
                    quota_w=child.device.power_quota_w,
                )
            )
        trace.pulls_attempted = len(self.children)
        trace.pulls_failed = missing
        if not self.children:
            # Degenerate wiring: nothing to protect against.
            return None
        if not child_states:
            self.alerts.raise_alert(
                now_s,
                Severity.CRITICAL,
                self.name,
                f"all {len(self.children)} child controllers have no "
                "aggregation; holding",
            )
            return None
        if missing and missing / len(self.children) > MAX_READING_FAILURE_FRACTION:
            self.alerts.raise_alert(
                now_s,
                Severity.CRITICAL,
                self.name,
                f"{missing}/{len(self.children)} child controllers have no "
                "aggregation; holding",
            )
            return None
        return child_states

    # ------------------------------------------------------------------
    # Stage 2: aggregation
    # ------------------------------------------------------------------

    def aggregate(
        self, sensed: list[ChildState], now_s: float, trace: TraceBuilder
    ) -> float:
        """Sum child aggregates plus the device's fixed overhead."""
        return (
            seq_sum(c.power_w for c in sensed) + self.device.fixed_overhead_w
        )

    # ------------------------------------------------------------------
    # Stage 4: punish-offender-first contractual limits
    # ------------------------------------------------------------------

    def actuate(
        self,
        decision: BandDecision,
        sensed: list[ChildState],
        now_s: float,
        trace: TraceBuilder,
    ) -> None:
        """Issue or release contractual limits per the decision."""
        if decision.action is BandAction.CAP:
            self._cap_children(sensed, decision.total_power_cut_w, now_s, trace)
        elif decision.action is BandAction.UNCAP:
            trace.actuation_successes = len(self._limited_children)
            self._uncap_children()
        trace.capped_after = len(self._limited_children)

    def _cap_children(
        self,
        states: list[ChildState],
        needed_cut_w: float,
        now_s: float,
        trace: TraceBuilder,
    ) -> None:
        decision = punish_offender_first(states, needed_cut_w)
        self.last_decision = decision
        trace.cut_allocated_w = needed_cut_w - decision.unallocated_w
        if decision.unallocated_w > 1e-6:
            self.alerts.raise_alert(
                now_s,
                Severity.CRITICAL,
                self.name,
                f"{decision.unallocated_w:.0f} W of required cut exceeds all "
                "child power; device at risk",
            )
        by_name = {child.name: child for child in self.children}
        for state in states:
            limit = decision.contractual_limit_w(state)
            if limit is None:
                continue
            # Within a capping episode a contractual limit only ever
            # tightens: a re-issued looser limit would release power the
            # device has not yet earned back (relaxation happens at
            # uncap) — "each controller chooses the minimum of its
            # individual capping decision and that propagated from its
            # parent".
            existing = self._limited_children.get(state.name)
            if existing is not None:
                limit = min(limit, existing)
            by_name[state.name].set_contractual_limit_w(limit)
            self._limited_children[state.name] = limit
            trace.actuation_successes += 1

    def _uncap_children(self) -> None:
        by_name = {child.name: child for child in self.children}
        for name in self._limited_children:
            child = by_name.get(name)
            if child is not None:
                child.clear_contractual_limit()
        self._limited_children.clear()

    # ------------------------------------------------------------------
    # SAFE-posture fail-safe capping
    # ------------------------------------------------------------------

    def apply_fail_safe(self, now_s: float, trace: TraceBuilder) -> None:
        """Limit every child to its quota share of the capping target.

        With no child aggregations for long enough to reach SAFE there
        are no offenders to punish, so the capping target (minus fixed
        overhead) is divided quota-proportionally.  Existing contractual
        limits only tighten, mirroring the capping-episode rule.
        """
        if not self.children:
            return
        _, target, _, _ = control_thresholds_w(
            self.band.config,
            self.device.rated_power_w,
            self._contractual_limit_w,
        )
        budget = max(target - self.device.fixed_overhead_w, 0.0)
        total_quota = sum(c.device.power_quota_w for c in self.children)
        for child in self.children:
            if total_quota > 0.0:
                share = budget * child.device.power_quota_w / total_quota
            else:
                share = budget / len(self.children)
            existing = self._limited_children.get(child.name)
            if existing is not None:
                share = min(share, existing)
            child.set_contractual_limit_w(share)
            self._limited_children[child.name] = share
            trace.actuation_successes += 1
        trace.detail = "fail-safe"
        trace.capped_after = len(self._limited_children)

    def release_fail_safe(self, now_s: float) -> None:
        """Release fail-safe limits unless the policy has caps in force."""
        if self.band.capping_active:
            # The policy issued (some of) these limits: its own uncap
            # path releases them when the device has earned power back.
            return
        self._uncap_children()

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Template state plus the contractual-limit ledger.

        ``last_decision`` is introspection-only (it never feeds a later
        tick), so it is not captured; a restored controller reports None
        until its next capping episode.
        """
        state = super().snapshot_state()
        state["limited_children"] = dict(self._limited_children)
        return state

    def restore_state(self, state: dict) -> None:
        """Restore template state plus the contractual-limit ledger."""
        super().restore_state(state)
        self._limited_children = {
            name: float(limit)
            for name, limit in state["limited_children"].items()
        }
        self.last_decision = None

    @property
    def limited_children(self) -> list[str]:
        """Children currently under a contractual limit from here."""
        return sorted(self._limited_children)

    def __repr__(self) -> str:
        return (
            f"UpperLevelPowerController({self.name!r}, "
            f"children={len(self.children)}, "
            f"limited={len(self._limited_children)})"
        )
