"""Spans and accumulators recorded from outside the program.

The tracer wraps public callables on built instances (and a few module
or class attributes) with timing shims, so no file under ``src/`` knows
it is being measured.  Two shim kinds:

* **span** — one record per call: name, start_ns, end_ns, parent span,
  cycle (or request) id.  For callables hit a handful of times per
  controller per cycle.
* **accumulator** — count + total ns only, for callables hit hundreds of
  times per cycle (``Server.step`` on the scalar lane, ``transport.call``).

Both feed the same self-time ledger: a call's duration is charged to its
parent's *child time*, so ``self = duration - child time`` at every level
and the self times of all names sum to the root spans' wall time.

Single-threaded by design: each traced process drives its program from
one thread (the simulation loop, or the serve event loop).
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

_MISSING = object()


class Tracer:
    """Installs timing shims, keeps their records, and removes them."""

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent_index, cycle)`` per span.
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: Cycle or request id stamped on spans opened from now on.
        self.cycle = -1
        self._open: list[int] = []  # indices of open spans
        self._child_ns: list[int] = []  # child time of each open call
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------

    def _span_shim(
        self,
        fn: Callable,
        name: str,
        on_call: Callable[[tuple, Any, int], None] | None,
    ) -> Callable:
        spans, open_, child_ns = self.spans, self._open, self._child_ns
        self_ns, calls = self.self_ns, self.calls
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)

        def shim(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)  # type: ignore[arg-type]
            open_.append(index)
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_.pop()
                duration = t1 - t0
                self_ns[name] += duration - child_ns.pop()
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += duration
                spans[index] = (name, t0, t1, parent, self.cycle)
            if on_call is not None:
                on_call(args, result, duration)
            return result

        return shim

    def _acc_shim(self, fn: Callable, name: str) -> Callable:
        child_ns, self_ns, calls = self._child_ns, self.self_ns, self.calls
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)

        def shim(*args: Any, **kwargs: Any) -> Any:
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - t0
                self_ns[name] += duration - child_ns.pop()
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += duration

        return shim

    # ------------------------------------------------------------------
    # Installing and removing
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, shim: Callable) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, shim)

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Callable[[tuple, Any, int], None] | None = None,
    ) -> None:
        """Record one span per call of ``owner.attr``.

        ``owner`` is an instance (the shim shadows the bound method), a
        class or a module (the shim replaces the function).
        ``on_call(args, result, duration_ns)`` runs after each call that
        returns.
        """
        self._patch(
            owner, attr, self._span_shim(getattr(owner, attr), name, on_call)
        )

    def accumulate(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and total their time, no spans."""
        self._patch(owner, attr, self._acc_shim(getattr(owner, attr), name))

    def uninstall(self) -> None:
        """Remove every shim, newest first, restoring what was there."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def self_ms(self, name: str, per: int) -> float:
        """Self time of ``name`` in ms per cycle/request (0 if never hit)."""
        return self.self_ns.get(name, 0) / 1e6 / max(per, 1)

    def count(self, name: str) -> int:
        """Calls of ``name`` recorded."""
        return self.calls.get(name, 0)

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span; accumulators as summary lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, t0, t1, parent, cycle) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "i": index,
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "parent": parent,
                            "cycle": cycle,
                        }
                    )
                    + "\n"
                )
            for name, total in self.self_ns.items():
                out.write(
                    json.dumps(
                        {
                            "summary": name,
                            "calls": self.calls[name],
                            "self_ns": total,
                        }
                    )
                    + "\n"
                )


def span_self_ns(spans: list, keep: Callable[[int], bool]) -> dict[str, int]:
    """Self time per name over the spans whose cycle ``keep`` accepts.

    ``spans`` are ``(name, start_ns, end_ns, parent_index, cycle)``
    records (tuples, or lists after a JSON round trip); a span's self
    time is its duration minus its direct children's durations.
    """
    self_ns = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    totals: dict[str, int] = {}
    for (name, _, _, _, cycle), own in zip(spans, self_ns):
        if keep(cycle):
            totals[name] = totals.get(name, 0) + own
    return totals


class GcWatch:
    """Garbage-collection pauses seen through ``gc.callbacks``."""

    def __init__(self) -> None:
        #: ``(generation, pause_ns)`` per collection.
        self.pauses: list[tuple[int, int]] = []
        self._t0 = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter_ns()
        else:
            self.pauses.append(
                (info["generation"], perf_counter_ns() - self._t0)
            )

    def install(self) -> None:
        """Start listening."""
        gc.callbacks.append(self._callback)

    def uninstall(self) -> None:
        """Stop listening."""
        gc.callbacks.remove(self._callback)

    def metrics(self, per: int) -> dict[str, float]:
        """The ``gc.*`` per-layer metrics; pause time per cycle/request."""
        gen2 = [ns for gen, ns in self.pauses if gen == 2]
        return {
            "gc.pause_ms": sum(ns for _, ns in self.pauses) / 1e6 / max(per, 1),
            "gc.collections": float(len(self.pauses)),
            "gc.gen2_collections": float(len(gen2)),
            "gc.gen2_pause_ms_max": max(gen2, default=0) / 1e6,
        }
