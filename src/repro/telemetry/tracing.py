"""Per-tick control-cycle observability: TickTrace records and buffers.

Every controller tick — leaf or upper — runs the same four-stage
pipeline (sense → aggregate → decide → actuate, see
:mod:`repro.core.controller`).  A :class:`TickTrace` is the structured
record of one such cycle: what was pulled and what had to be estimated,
the aggregate and the band thresholds it was judged against, the
decision, the watts requested versus actually allocated, how actuation
fared, and how long each stage took.

Traces land in a bounded :class:`TraceBuffer` (a ring: old ticks fall
off, memory stays flat over arbitrarily long runs) with a queryable
:class:`TraceMetrics` view consumed by the chaos scorecard and the
``repro trace`` CLI command.

Stage durations are wall-clock measurements and therefore *not* part of
:meth:`TickTrace.render`, which must stay byte-stable across replays of
the same seeded run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TickTrace:
    """One controller control cycle, end to end."""

    time_s: float
    controller: str
    kind: str
    valid: bool
    action: str
    pulls_attempted: int
    pulls_failed: int
    pulls_estimated: int
    aggregate_w: float | None
    effective_limit_w: float | None
    cap_at_w: float | None
    target_w: float | None
    uncap_at_w: float | None
    cut_requested_w: float
    cut_allocated_w: float
    actuation_successes: int
    actuation_failures: int
    capped_after: int
    sense_duration_s: float
    aggregate_duration_s: float
    decide_duration_s: float
    actuate_duration_s: float
    detail: str = ""
    #: The controller's operating posture when the tick ran.
    mode: str = "normal"
    #: Fraction of pulls resolved by measurement (1.0 on fully healthy
    #: cycles).
    coverage_fraction: float = 1.0
    #: Dark servers reconstructed by the disaggregation estimator.
    disaggregated: int = 0
    #: Signed error of the (inflated) aggregate versus the simulated
    #: ground truth, on disaggregated cycles; >= 0 means the margin
    #: held and the controller could not under-cap.
    estimation_error_w: float = 0.0

    @property
    def duration_s(self) -> float:
        """Total wall-clock time spent in the four stages."""
        return (
            self.sense_duration_s
            + self.aggregate_duration_s
            + self.decide_duration_s
            + self.actuate_duration_s
        )

    def to_dict(self) -> dict:
        """Serializable field dict (snapshot format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: dict) -> "TickTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        return cls(**state)

    def render(self) -> str:
        """Stable one-line form (durations excluded: they are wall-clock)."""
        aggregate = "-" if self.aggregate_w is None else f"{self.aggregate_w:.1f}"
        limit = (
            "-"
            if self.effective_limit_w is None
            else f"{self.effective_limit_w:.1f}"
        )
        flags = "ok" if self.valid else "invalid"
        # Resilience annotations appear only when they carry signal, so
        # legacy (and golden-fingerprint) renders stay byte-identical.
        mode = f" mode={self.mode}" if self.mode != "normal" else ""
        disagg = (
            f" cov={self.coverage_fraction:.2f}"
            f" esterr={self.estimation_error_w:.1f}W"
            if self.disaggregated
            else ""
        )
        return (
            f"{self.time_s:.3f} {self.controller} [{self.kind}] {self.action}"
            f" {flags} pulls={self.pulls_attempted - self.pulls_failed}"
            f"/{self.pulls_attempted} est={self.pulls_estimated}"
            f" agg={aggregate}W limit={limit}W"
            f" cut={self.cut_requested_w:.1f}/{self.cut_allocated_w:.1f}W"
            f" act={self.actuation_successes}+{self.actuation_failures}f"
            f" capped={self.capped_after}{mode}{disagg}"
        )


@dataclass
class TraceBuilder:
    """Mutable draft a tick threads through its stages, then freezes."""

    time_s: float
    controller: str
    kind: str
    valid: bool = True
    action: str = "hold"
    pulls_attempted: int = 0
    pulls_failed: int = 0
    pulls_estimated: int = 0
    aggregate_w: float | None = None
    effective_limit_w: float | None = None
    cap_at_w: float | None = None
    target_w: float | None = None
    uncap_at_w: float | None = None
    cut_requested_w: float = 0.0
    cut_allocated_w: float = 0.0
    actuation_successes: int = 0
    actuation_failures: int = 0
    capped_after: int = 0
    sense_duration_s: float = 0.0
    aggregate_duration_s: float = 0.0
    decide_duration_s: float = 0.0
    actuate_duration_s: float = 0.0
    detail: str = ""
    mode: str = "normal"
    coverage_fraction: float = 1.0
    disaggregated: int = 0
    estimation_error_w: float = 0.0

    def finish(self) -> TickTrace:
        """Freeze the draft into an immutable :class:`TickTrace`."""
        return TickTrace(
            time_s=self.time_s,
            controller=self.controller,
            kind=self.kind,
            valid=self.valid,
            action=self.action,
            pulls_attempted=self.pulls_attempted,
            pulls_failed=self.pulls_failed,
            pulls_estimated=self.pulls_estimated,
            aggregate_w=self.aggregate_w,
            effective_limit_w=self.effective_limit_w,
            cap_at_w=self.cap_at_w,
            target_w=self.target_w,
            uncap_at_w=self.uncap_at_w,
            cut_requested_w=self.cut_requested_w,
            cut_allocated_w=self.cut_allocated_w,
            actuation_successes=self.actuation_successes,
            actuation_failures=self.actuation_failures,
            capped_after=self.capped_after,
            sense_duration_s=self.sense_duration_s,
            aggregate_duration_s=self.aggregate_duration_s,
            decide_duration_s=self.decide_duration_s,
            actuate_duration_s=self.actuate_duration_s,
            detail=self.detail,
            mode=self.mode,
            coverage_fraction=self.coverage_fraction,
            disaggregated=self.disaggregated,
            estimation_error_w=self.estimation_error_w,
        )


@dataclass(frozen=True)
class TraceMetrics:
    """Aggregated view over a set of traces (the queryable metrics)."""

    ticks: int = 0
    invalid_ticks: int = 0
    caps: int = 0
    uncaps: int = 0
    holds: int = 0
    pulls_attempted: int = 0
    pulls_failed: int = 0
    pulls_estimated: int = 0
    pulls_disaggregated: int = 0
    min_coverage_fraction: float = 1.0
    max_estimation_error_w: float = 0.0
    cut_requested_w: float = 0.0
    cut_allocated_w: float = 0.0
    actuation_successes: int = 0
    actuation_failures: int = 0
    mean_tick_duration_s: float = 0.0
    max_tick_duration_s: float = 0.0

    @property
    def allocation_fraction(self) -> float:
        """Fraction of requested watts actually allocated (1.0 when none)."""
        if self.cut_requested_w <= 0.0:
            return 1.0
        return self.cut_allocated_w / self.cut_requested_w

    def rows(self) -> list[tuple[str, str]]:
        """(metric, value) pairs for tabular rendering."""
        return [
            ("ticks traced", str(self.ticks)),
            ("invalid ticks", str(self.invalid_ticks)),
            ("cap / uncap / hold", f"{self.caps} / {self.uncaps} / {self.holds}"),
            (
                "pulls ok/failed/estimated",
                f"{self.pulls_attempted - self.pulls_failed}"
                f"/{self.pulls_failed}/{self.pulls_estimated}",
            ),
            ("pulls disaggregated", str(self.pulls_disaggregated)),
            ("min sensing coverage", f"{self.min_coverage_fraction:.2f}"),
            (
                "max estimation error",
                "-"
                if self.pulls_disaggregated == 0
                else f"{self.max_estimation_error_w:.1f} W",
            ),
            (
                "watts requested vs allocated",
                f"{self.cut_requested_w:.1f} / {self.cut_allocated_w:.1f}",
            ),
            (
                "actuations ok/failed",
                f"{self.actuation_successes}/{self.actuation_failures}",
            ),
            (
                "tick duration mean/max",
                f"{1e6 * self.mean_tick_duration_s:.1f} / "
                f"{1e6 * self.max_tick_duration_s:.1f} us",
            ),
        ]


class TraceBuffer:
    """Bounded ring of :class:`TickTrace` records with query helpers."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ConfigurationError("trace buffer capacity must be positive")
        self._traces: deque[TickTrace] = deque(maxlen=capacity)
        self._recorded = 0
        #: Wall-clock seconds per control stage summed over every tick
        #: ever recorded — the ring keeps only the tail, and ``repro
        #: profile`` accounts for the whole run.  Host timing, so not
        #: snapshot state (:meth:`snapshot_state` zeroes durations too).
        self.stage_wall_s = {
            "sense": 0.0,
            "aggregate": 0.0,
            "decide": 0.0,
            "actuate": 0.0,
        }

    @property
    def capacity(self) -> int:
        """Maximum ticks retained."""
        maxlen = self._traces.maxlen
        assert maxlen is not None
        return maxlen

    @property
    def recorded(self) -> int:
        """Total ticks ever recorded (including ones the ring dropped)."""
        return self._recorded

    def record(self, trace: TickTrace) -> None:
        """Append one tick trace (oldest falls off at capacity)."""
        self._traces.append(trace)
        self._recorded += 1
        totals = self.stage_wall_s
        totals["sense"] += trace.sense_duration_s
        totals["aggregate"] += trace.aggregate_duration_s
        totals["decide"] += trace.decide_duration_s
        totals["actuate"] += trace.actuate_duration_s

    def latest(
        self, n: int | None = None, *, controller: str | None = None
    ) -> list[TickTrace]:
        """The most recent ``n`` traces (all retained when ``n`` is None)."""
        traces = [
            t
            for t in self._traces
            if controller is None or t.controller == controller
        ]
        if n is not None:
            traces = traces[-n:]
        return traces

    def for_controller(
        self, controller: str, n: int | None = None
    ) -> list[TickTrace]:
        """Retained traces for one controller, oldest first."""
        return self.latest(n, controller=controller)

    def last_trace(self, controller: str) -> TickTrace | None:
        """The most recent trace for one controller, or None."""
        traces = self.for_controller(controller, 1)
        return traces[0] if traces else None

    def controllers(self) -> list[str]:
        """Controllers with at least one retained trace, sorted."""
        return sorted({t.controller for t in self._traces})

    def metrics(self, controller: str | None = None) -> TraceMetrics:
        """Aggregate the retained traces into a :class:`TraceMetrics`."""
        traces = self.latest(controller=controller)
        if not traces:
            return TraceMetrics()
        durations = [t.duration_s for t in traces]
        return TraceMetrics(
            ticks=len(traces),
            invalid_ticks=sum(1 for t in traces if not t.valid),
            caps=sum(1 for t in traces if t.action == "cap"),
            uncaps=sum(1 for t in traces if t.action == "uncap"),
            holds=sum(1 for t in traces if t.action == "hold"),
            pulls_attempted=sum(t.pulls_attempted for t in traces),
            pulls_failed=sum(t.pulls_failed for t in traces),
            pulls_estimated=sum(t.pulls_estimated for t in traces),
            pulls_disaggregated=sum(t.disaggregated for t in traces),
            min_coverage_fraction=min(
                t.coverage_fraction for t in traces
            ),
            max_estimation_error_w=max(
                (abs(t.estimation_error_w) for t in traces if t.disaggregated),
                default=0.0,
            ),
            cut_requested_w=sum(t.cut_requested_w for t in traces),
            cut_allocated_w=sum(t.cut_allocated_w for t in traces),
            actuation_successes=sum(t.actuation_successes for t in traces),
            actuation_failures=sum(t.actuation_failures for t in traces),
            mean_tick_duration_s=sum(durations) / len(durations),
            max_tick_duration_s=max(durations),
        )

    def snapshot_state(self, *, include_traces: bool = True) -> dict:
        """Serializable ring contents and lifetime counter.

        Stage durations are wall-clock measurements, so they are zeroed
        in the snapshot: a snapshot's bytes must not depend on host
        timing.  Renders (and therefore trace fingerprints) are
        unaffected — durations are excluded from :meth:`TickTrace.render`.
        With ``include_traces=False`` only the counter is captured and
        restore clears the ring (the documented truncation option).
        """
        traces: list[dict] = []
        if include_traces:
            for trace in self._traces:
                state = trace.to_dict()
                state["sense_duration_s"] = 0.0
                state["aggregate_duration_s"] = 0.0
                state["decide_duration_s"] = 0.0
                state["actuate_duration_s"] = 0.0
                traces.append(state)
        return {
            "capacity": self.capacity,
            "recorded": self._recorded,
            "traces": traces,
            "truncated": not include_traces,
        }

    def restore_state(self, state: dict) -> None:
        """Restore ring contents (bounded by this buffer's capacity)."""
        self._traces.clear()
        for trace_state in state["traces"]:
            self._traces.append(TickTrace.from_dict(trace_state))
        self._recorded = int(state["recorded"])

    def clear(self) -> None:
        """Drop all retained traces (the lifetime counter survives)."""
        self._traces.clear()

    def __len__(self) -> int:
        return len(self._traces)

    def __repr__(self) -> str:
        return (
            f"TraceBuffer(n={len(self._traces)}, capacity={self.capacity}, "
            f"recorded={self._recorded})"
        )
