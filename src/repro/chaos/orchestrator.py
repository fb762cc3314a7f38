"""The chaos orchestrator: arms fault schedules as simulation events.

The orchestrator takes declarative :class:`FaultSpec` schedules and turns
them into engine events at ``PRIORITY_CHAOS`` — after the fleet step but
before any controller runs at the same instant, so an injection is
visible to the very next control cycle.  Every injection and recovery is
recorded into a :class:`~repro.telemetry.events.EventLog`, whose
``fingerprint()`` is the replay-determinism contract: same seed, same
schedule ⇒ byte-identical timeline.

A health probe — a scenario-supplied predicate sampled periodically into
a time series — gives the scorecard the signal it needs to measure
time-to-detect and time-to-recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chaos.faults import Fault, FaultSpec, build_fault
from repro.core.coordinator import PRIORITY_CHAOS, PRIORITY_CHAOS_PROBE
from repro.core.dynamo import Dynamo
from repro.fleet import Fleet, FleetDriver
from repro.power.topology import PowerTopology
from repro.rpc.transport import FailureInjector
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import PeriodicProcess
from repro.telemetry.events import EventLog
from repro.telemetry.timeseries import TimeSeries


@dataclass
class ChaosContext:
    """Everything a fault may touch in a live deployment."""

    engine: SimulationEngine
    dynamo: Dynamo
    topology: PowerTopology
    fleet: Fleet
    driver: FleetDriver | None = None

    @property
    def injector(self) -> FailureInjector:
        """The RPC fabric's failure injector."""
        return self.dynamo.transport.injector


class ChaosOrchestrator:
    """Schedules, applies, reverts, and records fault injections."""

    def __init__(self, ctx: ChaosContext, *, events: EventLog | None = None) -> None:
        self.ctx = ctx
        self.events = events or EventLog()
        self.faults: list[Fault] = []
        self.health_series = TimeSeries("chaos.health")
        self._probe: PeriodicProcess | None = None
        self._healthy_fn: Callable[[ChaosContext], bool] | None = None
        # Parallel to ``faults``: the armed event handles (for snapshot
        # capture of pending times/sequences) and fire status.
        self._inject_events: list = []
        self._recover_events: list = []
        self._injected: list[bool] = []
        self._recovered: list[bool] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, spec: FaultSpec) -> Fault:
        """Arm one fault: injection at ``start_s``, recovery at ``end_s``."""
        fault = build_fault(spec)
        index = len(self.faults)
        self.faults.append(fault)
        self._injected.append(False)
        self._recovered.append(False)
        self._inject_events.append(self._arm(index, "inject", spec.start_s))
        self._recover_events.append(
            None if spec.end_s is None else self._arm(index, "recover", spec.end_s)
        )
        return fault

    def schedule_all(self, specs: list[FaultSpec]) -> list[Fault]:
        """Arm a whole scenario schedule."""
        return [self.schedule(spec) for spec in specs]

    def _arm(self, index: int, kind: str, time_s: float):
        """Schedule one inject/recover event for fault ``index``."""
        fault = self.faults[index]
        action = self._inject if kind == "inject" else self._recover
        return self.ctx.engine.schedule_at(
            time_s,
            lambda: action(index),
            priority=PRIORITY_CHAOS,
            label=f"chaos.{kind}.{fault.kind}",
        )

    def _inject(self, index: int) -> None:
        fault = self.faults[index]
        self._injected[index] = True
        detail = fault.inject(self.ctx)
        self.events.record(
            self.ctx.engine.clock.now,
            "chaos",
            f"inject.{fault.kind}",
            f"{fault.spec.describe()} -> {detail}",
        )

    def _recover(self, index: int) -> None:
        fault = self.faults[index]
        self._recovered[index] = True
        detail = fault.recover(self.ctx)
        self.events.record(
            self.ctx.engine.clock.now,
            "chaos",
            f"recover.{fault.kind}",
            f"{fault.spec.describe()} -> {detail}",
        )

    # ------------------------------------------------------------------
    # Health probing
    # ------------------------------------------------------------------

    def attach_probe(
        self,
        healthy: Callable[[ChaosContext], bool],
        *,
        interval_s: float = 3.0,
        phase: float = 0.0,
    ) -> None:
        """Sample ``healthy(ctx)`` periodically into ``health_series``.

        The probe runs at ``PRIORITY_CHAOS_PROBE``, just after injections,
        so it observes the world after injections land but before it is
        repaired by the same instant's controllers.
        """
        self._healthy_fn = healthy
        self._probe = PeriodicProcess(
            self.ctx.engine,
            interval_s,
            self._sample_health,
            label="chaos.health-probe",
            priority=PRIORITY_CHAOS_PROBE,
        )
        self._probe.start(phase=phase)

    def _sample_health(self, now_s: float) -> None:
        assert self._healthy_fn is not None
        self.health_series.append(now_s, 1.0 if self._healthy_fn(self.ctx) else 0.0)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    @property
    def probe(self) -> PeriodicProcess | None:
        """The health-probe schedule (for snapshot re-arming)."""
        return self._probe

    def pending_events(self) -> list[dict]:
        """Armed inject/recover events that have not fired yet.

        Each entry carries the original event's time and sequence number
        so a restore can re-arm them in globally consistent tie-break
        order.
        """
        pending: list[dict] = []
        for index, fault in enumerate(self.faults):
            if not self._injected[index]:
                event = self._inject_events[index]
                pending.append(
                    {
                        "index": index,
                        "kind": "inject",
                        "time_s": event.time,
                        "sequence": event.sequence,
                    }
                )
            if fault.spec.end_s is not None and not self._recovered[index]:
                event = self._recover_events[index]
                pending.append(
                    {
                        "index": index,
                        "kind": "recover",
                        "time_s": event.time,
                        "sequence": event.sequence,
                    }
                )
        return pending

    def rearm_pending(self, entry: dict) -> None:
        """Re-arm one pending inject/recover event from a snapshot entry.

        Called by the snapshot registry in ascending original-sequence
        order, interleaved with periodic-process re-arms.
        """
        index = int(entry["index"])
        kind = str(entry["kind"])
        handle = self._arm(index, kind, float(entry["time_s"]))
        if kind == "inject":
            self._inject_events[index] = handle
        else:
            self._recover_events[index] = handle

    def snapshot_state(self) -> dict:
        """Serializable campaign state.

        Assumes the restoring side rebuilds the same scenario (same
        specs, in the same order) via the world recipe, so faults are
        identified by index.
        """
        return {
            "events": self.events.snapshot_state(),
            "health_series": self.health_series.snapshot_state(),
            "faults": [
                {
                    "injected": self._injected[index],
                    "recovered": self._recovered[index],
                    "state": fault.snapshot_state(self.ctx),
                }
                for index, fault in enumerate(self.faults)
            ],
            "pending": self.pending_events(),
            "probe": (
                None if self._probe is None else self._probe.snapshot_state()
            ),
            "probe_state": (
                dict(getattr(self._healthy_fn, "probe_state", None) or {})
                or None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore campaign state against a recipe-rebuilt scenario.

        Pending inject/recover events and the probe schedule are NOT
        re-armed here — the registry replays them (via
        :meth:`rearm_pending` and the probe's ``restore_state``) in
        ascending original-sequence order across the whole world.
        """
        faults = state["faults"]
        if len(faults) != len(self.faults):
            raise ValueError(
                f"snapshot has {len(faults)} faults, scenario armed "
                f"{len(self.faults)}; the world recipe does not match"
            )
        self.events.restore_state(state["events"])
        self.health_series.restore_state(state["health_series"])
        for index, entry in enumerate(faults):
            self._injected[index] = bool(entry["injected"])
            self._recovered[index] = bool(entry["recovered"])
            self.faults[index].restore_state(entry["state"], self.ctx)
        probe_state = state.get("probe_state")
        live_state = getattr(self._healthy_fn, "probe_state", None)
        if probe_state is not None and live_state is not None:
            # Mutate in place: the probe closure holds this dict.
            live_state.clear()
            live_state.update(probe_state)

    # ------------------------------------------------------------------
    # Timeline
    # ------------------------------------------------------------------

    @property
    def injection_count(self) -> int:
        """Injections performed so far."""
        return len(self.events.by_kind_prefix("inject."))

    def first_injection_time_s(self) -> float | None:
        """Time of the first injection, or None before any."""
        injections = self.events.by_kind_prefix("inject.")
        if not injections:
            return None
        return injections[0].time_s

    def timeline_fingerprint(self) -> str:
        """Stable rendering of the full injection/recovery timeline."""
        return self.events.fingerprint()
