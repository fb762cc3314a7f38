"""The discrete-event simulation engine.

The engine owns the virtual :class:`~repro.simulation.clock.Clock` and a
priority queue of :class:`~repro.simulation.events.Event` objects.  Running
the engine pops events in time order, advances the clock, and invokes each
event's action.  Actions may schedule further events.

The engine is deliberately small: scheduling, cancellation, run-until, and
step.  Everything domain-specific (controller cycles, workload updates,
breaker integration) is layered on top via callbacks or
:class:`~repro.simulation.process.PeriodicProcess`.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError
from repro.simulation.clock import Clock
from repro.simulation.events import Event


class SimulationEngine:
    """Deterministic discrete-event scheduler."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = Clock(start_time)
        self._queue: list[Event] = []
        self._sequence = 0
        self._running = False
        self._events_executed = 0
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run at absolute ``time``.

        Raises:
            SimulationError: if ``time`` is before the current clock.
        """
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now "
                f"(t={self.clock.now:.6f})"
            )
        event = Event(
            time=float(time),
            priority=priority,
            sequence=self._sequence,
            action=action,
            label=label,
            on_cancel=self._note_cancelled,
        )
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(
            self.clock.now + delay, action, priority=priority, label=label
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of queued, non-cancelled events.  O(1)."""
        return len(self._queue) - self._cancelled_pending

    @property
    def events_executed(self) -> int:
        """Total events executed since construction."""
        return self._events_executed

    def peek_next_time(self) -> float | None:
        """Time of the next pending event, or None when the queue is empty."""
        self._discard_cancelled()
        if not self._queue:
            return None
        return self._queue[0].time

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remain.

        Shares the re-entrancy guard with :meth:`run_until` and
        :meth:`run_all`: an event action must not drive its own engine.
        """
        self._guard_entry("step")
        self._running = True
        try:
            return self._execute_next()
        finally:
            self._running = False

    def run_until(self, end_time: float) -> None:
        """Run all events with ``time <= end_time`` then set the clock there.

        Re-entrant calls are rejected: an event action must not invoke
        ``run_until`` on its own engine.
        """
        self._guard_entry("run_until")
        if end_time < self.clock.now:
            raise SimulationError(
                f"end time {end_time:.6f} is before now {self.clock.now:.6f}"
            )
        self._running = True
        try:
            while True:
                self._discard_cancelled()
                if not self._queue or self._queue[0].time > end_time:
                    break
                self._execute_head()
            self.clock.advance_to(end_time)
        finally:
            self._running = False

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drain the event queue completely.

        Raises:
            SimulationError: if more than ``max_events`` execute, which
                almost always means a runaway periodic process.
        """
        self._guard_entry("run_all")
        self._running = True
        executed = 0
        try:
            while self._execute_next():
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"run_all exceeded {max_events} events; "
                        "likely a runaway periodic process"
                    )
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def clear_pending(self) -> int:
        """Cancel every queued event; returns how many were live.

        Snapshot restore uses this to disarm a freshly built world before
        re-registering the schedules recorded in the snapshot.
        """
        live = self.pending_count
        for event in self._queue:
            event.cancel()
        self._queue.clear()
        self._cancelled_pending = 0
        return live

    def snapshot_state(self) -> dict:
        """Serializable scheduler counters (the queue is captured by the
        snapshot registry as re-registerable schedules, not here)."""
        return {
            "now": self.clock.now,
            "events_executed": self._events_executed,
        }

    def restore_state(self, state: dict) -> None:
        """Restore clock position and counters on a fresh engine.

        Must run before any schedules are re-registered; the queue must
        be empty (use :meth:`clear_pending` on a built world first).
        """
        if self._queue:
            raise SimulationError(
                "restore_state requires an empty event queue; "
                "call clear_pending() first"
            )
        self.clock.advance_to(float(state["now"]))
        self._events_executed = int(state["events_executed"])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _guard_entry(self, caller: str) -> None:
        if self._running:
            raise SimulationError(
                f"{caller} is not re-entrant: an event action must not "
                "drive its own engine"
            )

    def _execute_next(self) -> bool:
        self._discard_cancelled()
        if not self._queue:
            return False
        self._execute_head()
        return True

    def _execute_head(self) -> None:
        event = heapq.heappop(self._queue)
        # A handle kept past execution must not skew the cancelled count.
        event.on_cancel = None
        self.clock.advance_to(event.time)
        event.action()
        self._events_executed += 1

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1

    def _discard_cancelled(self) -> None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
