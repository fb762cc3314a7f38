"""Capping plans: from a total power cut to per-server cap values.

Combines the priority-group policy (Section III-C3) with the
high-bucket-first allocator: the total-power-cut is offered to the lowest
priority group first; whatever that group cannot absorb (because its
servers hit their SLA floors) rolls up to the next group.  Each server's
cap is then its current power less its allocated cut — the paper's
"currently consuming 250 W, power-cut 30 W, cap at 220 W" arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bucket import AllocationInput, allocate_high_bucket_first
from repro.core.messages import PowerReading
from repro.core.priority import PriorityPolicy

#: High-bucket-first bucket width: the paper finds 10-30 W buckets work
#: well and deploys 20 W.
BUCKET_WIDTH_W = 20.0


@dataclass(frozen=True)
class ServerCut:
    """One server's share of a capping plan."""

    server_id: str
    service: str
    priority_group: int
    current_power_w: float
    cut_w: float

    @property
    def cap_w(self) -> float:
        """The power cap to send: current power less the cut."""
        return self.current_power_w - self.cut_w


@dataclass
class CappingPlan:
    """A complete capping decision for one device."""

    total_cut_w: float
    cuts: list[ServerCut] = field(default_factory=list)
    unallocated_w: float = 0.0

    @property
    def affected_servers(self) -> list[ServerCut]:
        """Cuts that actually bind (cut > 0)."""
        return [c for c in self.cuts if c.cut_w > 1e-9]

    @property
    def allocated_w(self) -> float:
        """Total power successfully allocated to cuts."""
        return sum(c.cut_w for c in self.cuts)

    def cap_for(self, server_id: str) -> float | None:
        """The cap for one server, or None if it is unaffected."""
        for cut in self.affected_servers:
            if cut.server_id == server_id:
                return cut.cap_w
        return None


def build_capping_plan(
    readings: list[PowerReading],
    total_cut_w: float,
    policy: PriorityPolicy,
) -> CappingPlan:
    """Allocate ``total_cut_w`` across servers, priority groups first.

    Args:
        readings: the latest power reading per server (one each).
        total_cut_w: the power reduction the three-band decision demands.
        policy: service priority groups and SLA floors.

    Returns:
        A plan whose ``unallocated_w`` is nonzero only when every server
        in every group is already at its SLA floor.
    """
    plan = CappingPlan(total_cut_w=total_cut_w)
    if total_cut_w <= 0.0:
        plan.cuts = [
            ServerCut(
                server_id=r.server_id,
                service=r.service,
                priority_group=policy.priority_group(r.service),
                current_power_w=r.power_w,
                cut_w=0.0,
            )
            for r in readings
        ]
        return plan

    by_group: dict[int, list[PowerReading]] = {}
    for reading in readings:
        group = policy.priority_group(reading.service)
        by_group.setdefault(group, []).append(reading)

    remaining = total_cut_w
    for group in sorted(by_group):
        group_readings = by_group[group]
        inputs = [
            AllocationInput(
                server_id=r.server_id,
                power_w=r.power_w,
                min_cap_w=policy.sla_min_cap_w(r.service),
            )
            for r in group_readings
        ]
        if remaining > 0.0:
            result = allocate_high_bucket_first(
                inputs, remaining, bucket_width_w=BUCKET_WIDTH_W
            )
            remaining = result.unallocated_w
        else:
            result = allocate_high_bucket_first(
                inputs, 0.0, bucket_width_w=BUCKET_WIDTH_W
            )
        for reading in group_readings:
            plan.cuts.append(
                ServerCut(
                    server_id=reading.server_id,
                    service=reading.service,
                    priority_group=group,
                    current_power_w=reading.power_w,
                    cut_w=result.cuts_w[reading.server_id],
                )
            )
        if remaining <= 1e-9:
            remaining = 0.0
            # Servers in higher groups remain uncut; record them so the
            # plan covers the whole device.
            for higher_group in sorted(by_group):
                if higher_group <= group:
                    continue
                for reading in by_group[higher_group]:
                    plan.cuts.append(
                        ServerCut(
                            server_id=reading.server_id,
                            service=reading.service,
                            priority_group=higher_group,
                            current_power_w=reading.power_w,
                            cut_w=0.0,
                        )
                    )
            break
    plan.unallocated_w = remaining
    return plan
