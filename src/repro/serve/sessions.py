"""Sessions: isolated live worlds behind the serve API.

A :class:`Session` wraps one built :class:`~repro.state.worlds.World`
with the machinery a long-running service needs around it: a lock
establishing the single-writer discipline, an action log, serve-level
fault bookkeeping, and a :class:`Ticker` that advances the engine at a
configurable real-time ratio.  The :class:`SessionManager` creates
sessions from named recipes or — the cheap path for many concurrent
clients — forks them from a warm snapshot via
:func:`~repro.state.fork.fork_inprocess`, so N tenants each get an
isolated, resumable datacenter sharing one warmed-up origin.

Tick-safety invariants
----------------------

The engine is single-threaded and not re-entrant, so the serve layer
imposes a single-writer discipline:

1. **Every access to a session's world — read or write — happens while
   holding ``Session.lock``** (a reentrant lock).  Under the asyncio
   transport all handlers run on the event-loop thread, so the lock is
   uncontended there; it exists so in-process callers (tests, the
   operator demo) and threaded transports stay correct too.
2. **An engine step never spans an await or yield.**  ``Session.step``
   drives ``engine.run_until`` to completion under the lock; streaming
   handlers copy telemetry out under the lock and yield bytes outside
   it.
3. **Serve-injected faults never enqueue engine events.**  Injection is
   applied synchronously at the session's current simulation time and
   finite-duration recoveries are applied by :meth:`Session.step` when
   the clock passes their deadline — the engine queue stays fully
   snapshot-coverable, so a live session can be checkpointed at any
   time.
4. **Restoring into a live session swaps the world object atomically
   under the lock** and drops pending serve-fault recoveries (their
   save-lists reference the replaced world's objects); the drop is
   recorded in the session's action log.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from pathlib import Path
from typing import Any, Iterator

from repro.chaos.faults import FaultSpec, build_fault
from repro.chaos.orchestrator import ChaosContext
from repro.config import ThreeBandConfig
from repro.errors import ServeError, UnknownSessionError
from repro.state.fork import fork_branch
from repro.state.registry import SnapshotRegistry
from repro.state.snapshot import WorldSnapshot, fingerprint
from repro.state.worlds import build_world, named_recipe
from repro.world import World
from repro.telemetry.events import EventLog

#: Fault kinds whose targets name power devices rather than fleet
#: servers; their builders/injectors validate device names themselves.
_DEVICE_TARGET_KINDS = frozenset({"controller-crash", "breaker-derate"})


class Ticker:
    """Advances one session in real time at a configurable ratio.

    ``ratio`` is simulated seconds per wall-clock second; every
    ``interval_s`` wall seconds the ticker takes the session lock and
    steps the engine by ``ratio * interval_s`` simulated seconds.  The
    task runs on the serve event loop, so ticks serialize with request
    handlers by construction (invariant 1) — a handler never observes a
    half-stepped world.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self.ratio = 1.0
        self.interval_s = 1.0
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.ticks = 0

    @property
    def running(self) -> bool:
        """Whether the tick task is live."""
        return self._task is not None and not self._task.done()

    def configure(
        self, *, ratio: float | None = None, interval_s: float | None = None
    ) -> None:
        """Update pacing; takes effect from the next tick."""
        if ratio is not None:
            if ratio <= 0:
                raise ServeError("ticker ratio must be positive")
            self.ratio = float(ratio)
        if interval_s is not None:
            if interval_s <= 0:
                raise ServeError("ticker interval must be positive")
            self.interval_s = float(interval_s)

    def start(self) -> None:
        """Start ticking on the current thread's running event loop."""
        if self.running:
            return
        try:
            self._loop = asyncio.get_running_loop()
        except RuntimeError:
            raise ServeError(
                "the ticker needs a running event loop; use on-demand "
                "stepping (POST /sessions/{id}/step) outside the server"
            ) from None
        self._task = self._loop.create_task(self._run())

    def stop(self) -> None:
        """Cancel the tick task (safe to call from any thread)."""
        task, loop = self._task, self._loop
        self._task = None
        if task is None or task.done() or loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(task.cancel)

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            self._session.step(dt_s=self.ratio * self.interval_s)
            self.ticks += 1

    def state(self) -> dict:
        """JSON view of the ticker."""
        return {
            "running": self.running,
            "ratio": self.ratio,
            "interval_s": self.interval_s,
            "ticks": self.ticks,
        }


class Session:
    """One isolated live world plus its serve-side bookkeeping."""

    def __init__(self, session_id: str, world: World, source: dict) -> None:
        self.id = session_id
        self.world = world
        #: How the session was created (recipe / snapshot / fork index).
        self.source = source
        #: Reentrant so a handler holding the lock can call helpers that
        #: take it again (invariant 1 in the module docstring).
        self.lock = threading.RLock()
        #: Serve-level action log: create/step/act/restore occurrences.
        #: Session-local — distinct from any chaos EventLog in the world.
        self.log = EventLog()
        self.ticker = Ticker(self)
        #: Serve-injected finite faults awaiting recovery, as
        #: ``(end_s, insertion order, fault)`` kept sorted by deadline.
        self._pending_faults: list[tuple[float, int, Any]] = []
        self._fault_counter = itertools.count()
        self._registry = SnapshotRegistry()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def now_s(self) -> float:
        """Current simulation time."""
        return self.world.now_s

    def pending_fault_specs(self) -> list[dict]:
        """Serve faults awaiting recovery, soonest deadline first."""
        with self.lock:
            return [
                {
                    "kind": fault.kind,
                    "end_s": end_s,
                    "spec": fault.spec.describe(),
                }
                for end_s, _, fault in sorted(self._pending_faults)
            ]

    def fingerprint(self) -> str:
        """Run-comparable digest of the session's current state."""
        with self.lock:
            return fingerprint(self._registry.capture(self.world).state)

    # ------------------------------------------------------------------
    # Advancing time
    # ------------------------------------------------------------------

    def step(
        self, *, dt_s: float | None = None, until_s: float | None = None
    ) -> dict:
        """Advance the session's engine; returns a step summary.

        Exactly one of ``dt_s``/``until_s`` selects the target time.
        The run is segmented at serve-fault recovery deadlines so each
        recovery is applied at precisely its ``end_s`` — the same
        semantics the chaos orchestrator's engine events would give.
        """
        if (dt_s is None) == (until_s is None):
            raise ServeError("step needs exactly one of dt_s or until_s")
        with self.lock:
            now = self.world.now_s
            end = now + float(dt_s) if dt_s is not None else float(until_s)  # type: ignore[arg-type]
            if end < now:
                raise ServeError(
                    f"cannot step to t={end:.3f}s before now (t={now:.3f}s)"
                )
            events_before = self.world.engine.events_executed
            while True:
                bound = end
                due = [e for e in self._pending_faults if e[0] <= end]
                if due:
                    bound = min(bound, min(e[0] for e in due))
                self.world.run_until(bound)
                self._recover_due_faults()
                if bound >= end:
                    break
            return {
                "time_s": self.world.now_s,
                "advanced_s": self.world.now_s - now,
                "events_executed": (
                    self.world.engine.events_executed - events_before
                ),
            }

    def _recover_due_faults(self) -> None:
        now = self.world.now_s
        remaining: list[tuple[float, int, Any]] = []
        for end_s, order, fault in sorted(self._pending_faults):
            if end_s <= now:
                detail = fault.recover(self._ctx())
                self.log.record(
                    now, "serve", f"recover.{fault.kind}", detail
                )
            else:
                remaining.append((end_s, order, fault))
        self._pending_faults = remaining

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def _ctx(self) -> ChaosContext:
        return ChaosContext(
            engine=self.world.engine,
            dynamo=self.world.dynamo,
            topology=self.world.topology,
            fleet=self.world.fleet,
            driver=self.world.driver,
        )

    def inject_fault(
        self,
        kind: str,
        *,
        duration_s: float | None = None,
        targets: tuple[str, ...] = (),
        params: dict | None = None,
    ) -> dict:
        """Apply one catalogue fault right now (invariant 3).

        Finite faults recover when :meth:`step` carries the clock past
        ``now + duration_s``; open-ended faults persist until something
        in the world (e.g. the watchdog) repairs them.
        """
        with self.lock:
            now = self.world.now_s
            spec = FaultSpec(
                kind=kind,
                start_s=now,
                duration_s=duration_s,
                targets=tuple(targets),
                params=dict(params or {}),
            )
            if kind not in _DEVICE_TARGET_KINDS:
                # Server-targeted kinds KeyError mid-injection on a bad
                # id, which would leave the fault half-applied; reject
                # the whole request up front instead.
                unknown = [
                    t for t in spec.targets if t not in self.world.fleet.servers
                ]
                if unknown:
                    raise ServeError(
                        f"unknown server target(s) {unknown} for "
                        f"{kind!r}; targets must be fleet server ids"
                    )
            fault = build_fault(spec)
            detail = fault.inject(self._ctx())
            self.log.record(
                now, "serve", f"inject.{kind}", f"{spec.describe()} -> {detail}"
            )
            if spec.end_s is not None:
                self._pending_faults.append(
                    (spec.end_s, next(self._fault_counter), fault)
                )
            return {"detail": detail, "end_s": spec.end_s, "time_s": now}

    def set_band(self, device: str, band: ThreeBandConfig) -> dict:
        """Replace one controller's three-band thresholds."""
        with self.lock:
            self.world.dynamo.set_band_config(device, band)
            self.log.record(
                self.world.now_s,
                "serve",
                "band.replace",
                f"{device} cap={band.capping_threshold:g} "
                f"target={band.capping_target:g} "
                f"uncap={band.uncapping_threshold:g}",
            )
            return {"device": device, "time_s": self.world.now_s}

    def failover(self, device: str, action: str = "enable") -> dict:
        """Enable a failover pair, or fail/restore its primary."""
        with self.lock:
            pair = self.world.dynamo.enable_failover(device)
            if action == "fail":
                pair.fail_primary()
            elif action == "restore":
                pair.restore_primary()
            elif action != "enable":
                raise ServeError(
                    f"unknown failover action {action!r}; "
                    "known: enable, fail, restore"
                )
            self.log.record(
                self.world.now_s, "serve", f"failover.{action}", device
            )
            return {
                "device": device,
                "action": action,
                "primary_healthy": pair.primary_healthy,
                "time_s": self.world.now_s,
            }

    def snapshot(
        self, *, path: str | None = None, include_state: bool = False
    ) -> tuple[WorldSnapshot, dict]:
        """Checkpoint the live session.

        Pending serve-fault recoveries are session-side bookkeeping, not
        world state; their count rides in the summary so a caller knows
        the capture is mid-fault.
        """
        with self.lock:
            snapshot = self._registry.capture(self.world)
            summary = {
                "time_s": snapshot.time_s,
                "fingerprint": fingerprint(snapshot.state),
                "integrity": snapshot.integrity(),
                "pending_serve_faults": len(self._pending_faults),
            }
            if path is not None:
                summary["path"] = str(snapshot.save(path))
            if include_state:
                summary["snapshot"] = snapshot.to_envelope()
            self.log.record(
                self.world.now_s, "serve", "snapshot.capture", path or "inline"
            )
            return snapshot, summary

    def restore(self, snapshot: WorldSnapshot) -> dict:
        """Swap in a restored world atomically (invariant 4)."""
        with self.lock:
            world = self._registry.restore(snapshot)
            dropped = len(self._pending_faults)
            self._pending_faults = []
            self.world = world
            self.log.record(
                world.now_s,
                "serve",
                "snapshot.restore",
                f"t={world.now_s:.1f}s dropped_serve_faults={dropped}",
            )
            return {"time_s": world.now_s, "dropped_serve_faults": dropped}

    def close(self) -> None:
        """Stop ticking; the world is garbage after this."""
        self.ticker.stop()


class SessionManager:
    """Creates, indexes, and tears down isolated sessions.

    Creation requests are plain dicts (the POST body of the create
    endpoint); exactly one origin key picks the path:

    * ``{"scenario": name, "seed": ...}`` — build a named world (any
      name :func:`~repro.state.worlds.named_recipe` resolves).
    * ``{"recipe": {...}}`` — any full world recipe
      (:func:`~repro.state.worlds.build_world`).
    * ``{"snapshot_path": p}`` / ``{"snapshot": envelope}`` — restore a
      checkpoint; add ``"fork_index": k`` to fork branch ``k`` instead
      (divergent RNG streams, shared warm state).

    Loaded snapshots are cached by integrity hash so a fleet of clients
    forking the same warm origin parses and verifies it once.
    """

    def __init__(self, *, max_sessions: int = 64) -> None:
        if max_sessions <= 0:
            raise ServeError("max_sessions must be positive")
        self.max_sessions = max_sessions
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count()
        self._snapshot_cache: dict[str, WorldSnapshot] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(self, spec: dict) -> Session:
        """Build one session from a creation request dict."""
        if not isinstance(spec, dict):
            raise ServeError("session spec must be a JSON object")
        origin_keys = [
            k
            for k in ("scenario", "recipe", "snapshot_path", "snapshot")
            if k in spec
        ]
        if len(origin_keys) != 1:
            raise ServeError(
                "session spec needs exactly one of scenario, recipe, "
                f"snapshot_path, snapshot (got {origin_keys or 'none'})"
            )
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise ServeError(
                    f"session limit reached ({self.max_sessions}); "
                    "delete a session first"
                )
            session_id = f"s{next(self._counter):04d}"
        world, source = self._build(origin_keys[0], spec)
        session = Session(session_id, world, source)
        session.log.record(world.now_s, "serve", "session.create", session_id)
        with self._lock:
            self._sessions[session_id] = session
        return session

    def _build(self, origin: str, spec: dict) -> tuple[World, dict]:
        if origin == "scenario":
            name = str(spec["scenario"])
            seed = int(spec.get("seed", 0))
            world = build_world(named_recipe(name, seed=seed))
            return world, {"scenario": name, "seed": seed}
        if origin == "recipe":
            recipe = spec["recipe"]
            if not isinstance(recipe, dict):
                raise ServeError("recipe must be a JSON object")
            return build_world(recipe), {"recipe": recipe}
        snapshot = self._load_snapshot(origin, spec)
        fork_index = spec.get("fork_index")
        source = {
            "snapshot_time_s": snapshot.time_s,
            "snapshot_integrity": snapshot.integrity(),
            "fork_index": fork_index,
        }
        if origin == "snapshot_path":
            source["snapshot_path"] = str(spec["snapshot_path"])
        if fork_index is None:
            return SnapshotRegistry().restore(snapshot), source
        return fork_branch(snapshot, int(fork_index)), source

    def _load_snapshot(self, origin: str, spec: dict) -> WorldSnapshot:
        if origin == "snapshot":
            return WorldSnapshot.from_envelope(
                spec["snapshot"], origin="posted snapshot"
            )
        path = Path(str(spec["snapshot_path"]))
        # One stat-free cache hit per (path, mtime) would be fragile on
        # rewritten files; keying by content hash after a load is not —
        # but we must read the file to hash it, so key by resolved path
        # + size + mtime and verify integrity on every cache miss.
        try:
            stat = path.stat()
        except OSError as exc:
            raise ServeError(f"cannot read snapshot {path}: {exc}") from exc
        cache_key = f"{path.resolve()}:{stat.st_size}:{stat.st_mtime_ns}"
        cached = self._snapshot_cache.get(cache_key)
        if cached is None:
            cached = WorldSnapshot.load(path)
            self._snapshot_cache.clear()
            self._snapshot_cache[cache_key] = cached
        return cached

    def get(self, session_id: str) -> Session:
        """Look one session up; raises :class:`UnknownSessionError`."""
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise UnknownSessionError(session_id) from None

    def delete(self, session_id: str) -> None:
        """Tear one session down (stops its ticker)."""
        with self._lock:
            try:
                session = self._sessions.pop(session_id)
            except KeyError:
                raise UnknownSessionError(session_id) from None
        session.close()

    def sessions(self) -> list[Session]:
        """All live sessions, in creation order."""
        with self._lock:
            return list(self._sessions.values())

    def close_all(self) -> None:
        """Tear every session down."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions())
