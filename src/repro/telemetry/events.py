"""Structured event log for discrete occurrences.

Time series capture continuous signals; this log captures *occurrences* —
chaos injections and recoveries, watchdog restarts, failovers — with a
stable textual form so a run can be fingerprinted and two runs compared
for byte-identical behaviour (the chaos subsystem's replay guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetryEvent:
    """One timestamped occurrence."""

    time_s: float
    source: str
    kind: str
    detail: str = ""

    def render(self) -> str:
        """Stable one-line form used for run fingerprints."""
        return f"{self.time_s:.6f} {self.source} {self.kind} {self.detail}"


class EventLog:
    """Append-only log of :class:`TelemetryEvent` records."""

    def __init__(self) -> None:
        self._events: list[TelemetryEvent] = []

    def record(
        self, time_s: float, source: str, kind: str, detail: str = ""
    ) -> TelemetryEvent:
        """Append and return a new event."""
        event = TelemetryEvent(
            time_s=float(time_s), source=source, kind=kind, detail=detail
        )
        self._events.append(event)
        return event

    @property
    def events(self) -> list[TelemetryEvent]:
        """All events, in record order."""
        return list(self._events)

    def by_kind_prefix(self, prefix: str) -> list[TelemetryEvent]:
        """Events whose kind starts with ``prefix`` (e.g. ``"inject."``)."""
        return [e for e in self._events if e.kind.startswith(prefix)]

    def from_source(self, source: str) -> list[TelemetryEvent]:
        """Events recorded by one source."""
        return [e for e in self._events if e.source == source]

    def count(self) -> int:
        """Total events recorded."""
        return len(self._events)

    def fingerprint(self) -> str:
        """Newline-joined stable rendering of every event.

        Two runs with identical behaviour produce byte-identical
        fingerprints; any divergence in injection timing, targets, or
        ordering shows up as a diff.
        """
        return "\n".join(e.render() for e in self._events)

    def snapshot_state(self) -> dict:
        """Serializable event list (order preserved)."""
        return {
            "events": [
                {
                    "time_s": e.time_s,
                    "source": e.source,
                    "kind": e.kind,
                    "detail": e.detail,
                }
                for e in self._events
            ]
        }

    def restore_state(self, state: dict) -> None:
        """Replace contents with the snapshot's events."""
        self._events = [
            TelemetryEvent(
                time_s=float(e["time_s"]),
                source=e["source"],
                kind=e["kind"],
                detail=e["detail"],
            )
            for e in state["events"]
        ]

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return f"EventLog(n={len(self._events)})"
