"""Fork-from-snapshot: clone one warmed-up world into divergent branches.

A snapshot taken after a warm-up run is an expensive asset — the fleet
has realistic utilisation, estimator caches are primed, controllers hold
real band state.  :func:`fork_world` restores that snapshot N times and
re-derives every random stream per branch, so the branches share the
exact warmed-up state but explore *different* random futures.  An
optional ``mutate`` hook perturbs each branch (different breaker limit,
injected fault, config override) for what-if sweeps.

:func:`run_sweep` drives the branches through a
:class:`concurrent.futures.ProcessPoolExecutor`; the worker is a
module-level function taking only primitives, so it pickles cleanly.
The pool is *persistent*: the first parallel sweep pays the worker
start-up cost, and every later sweep — a parameter scan calling
:func:`run_sweep` once per sweep point — reuses the warm workers.
:func:`shutdown_sweep_pool` releases them explicitly; an atexit hook
covers interpreter shutdown.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.state.registry import SnapshotRegistry, _controller_entries
from repro.state.snapshot import WorldSnapshot, fingerprint
from repro.world import World


def fork_branch(
    snapshot: WorldSnapshot,
    index: int,
    *,
    mutate: Callable[[World, int], None] | None = None,
) -> World:
    """Restore one divergent branch of ``snapshot``.

    The branch's random streams are re-derived from the root seed via
    ``rng.fork(f"branch-{index}")``: every named stream the
    captured world had drawn from — workloads, sensors, chaos — plus the
    RPC transport generators are overwritten in place with the branch
    family's streams.  Same snapshot + same index ⇒ same branch, always.
    """
    world = SnapshotRegistry().restore(snapshot)
    branch = world.rng.fork(f"branch-{index}")
    for name in snapshot.state["rng"]["streams"]:
        world.rng.stream(name).bit_generator.state = branch.stream(
            name
        ).bit_generator.state
    # The transports draw from the separate fork("dynamo") family, which
    # is unreachable through the root streams — rebase it explicitly.
    dynamo_branch = branch.fork("dynamo")
    world.dynamo.transport._rng.bit_generator.state = dynamo_branch.stream(
        "rpc"
    ).bit_generator.state
    resilient = world.dynamo.resilient_transport
    if resilient is not None and resilient._rng is not None:
        resilient._rng.bit_generator.state = dynamo_branch.stream(
            "rpc.resilience"
        ).bit_generator.state
    if mutate is not None:
        mutate(world, index)
    return world


def fork_world(
    snapshot: WorldSnapshot,
    n: int,
    mutate: Callable[[World, int], None] | None = None,
) -> list[World]:
    """Clone ``snapshot`` into ``n`` divergent branch worlds."""
    return [fork_branch(snapshot, index, mutate=mutate) for index in range(n)]


def fork_inprocess(
    source: WorldSnapshot | str | Path,
    index: int = 0,
    *,
    mutate: Callable[[World, int], None] | None = None,
) -> World:
    """Fork one branch of ``source`` entirely in this process.

    A convenience over :func:`fork_branch` for callers that hold a file
    path rather than a loaded snapshot and want a single live
    :class:`World` back — no ProcessPoolExecutor, no pickling round
    trip.  The serve layer's ``SessionManager`` forks per-client
    sessions this way: load the warm snapshot once, then hand each
    client a cheap divergent branch.

    Same source + same index ⇒ the same branch world, always (the
    determinism contract of :func:`fork_branch`).
    """
    snapshot = (
        source
        if isinstance(source, WorldSnapshot)
        else WorldSnapshot.load(source)
    )
    return fork_branch(snapshot, index, mutate=mutate)


@dataclass(frozen=True)
class BranchResult:
    """Summary of one branch run in a sweep."""

    branch: int
    start_s: float
    end_s: float
    fingerprint: str
    peak_power_w: float
    cap_events: int
    uncap_events: int
    trips: int
    events_executed: int

    def to_dict(self) -> dict:
        """Plain-dict form for JSON reports."""
        return {
            "branch": self.branch,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "fingerprint": self.fingerprint,
            "peak_power_w": self.peak_power_w,
            "cap_events": self.cap_events,
            "uncap_events": self.uncap_events,
            "trips": self.trips,
            "events_executed": self.events_executed,
        }


def branch_result(world: World, index: int, start_s: float) -> BranchResult:
    """Measure one finished branch world."""
    state = SnapshotRegistry().capture(world).state
    peak = 0.0
    cap_events = 0
    uncap_events = 0
    for _, controller in _controller_entries(world):
        cap_events += controller.cap_events
        uncap_events += controller.uncap_events
        series = controller.aggregate_series
        if len(series) > 0:
            peak = max(peak, float(series.max()))
    return BranchResult(
        branch=index,
        start_s=start_s,
        end_s=world.now_s,
        fingerprint=fingerprint(state),
        peak_power_w=peak,
        cap_events=cap_events,
        uncap_events=uncap_events,
        trips=len(world.driver.trips),
        events_executed=world.engine.events_executed,
    )


def run_branch(
    snapshot_path: str | Path, index: int, horizon_s: float
) -> BranchResult:
    """Load, fork, and run one branch for ``horizon_s`` sim-seconds."""
    snapshot = WorldSnapshot.load(snapshot_path)
    world = fork_branch(snapshot, index)
    start_s = world.now_s
    world.run_until(start_s + horizon_s)
    return branch_result(world, index, start_s)


def _sweep_worker(args: tuple[str, int, float]) -> dict:
    """Process-pool entry point; primitives in, plain dict out."""
    path, index, horizon_s = args
    return run_branch(path, index, horizon_s).to_dict()


_pool: ProcessPoolExecutor | None = None
_pool_workers: int | None = None


def _sweep_pool(workers: int | None) -> ProcessPoolExecutor:
    """The shared sweep pool, (re)built only when the size changes."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        _pool.shutdown(wait=True)
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def shutdown_sweep_pool() -> None:
    """Stop the persistent sweep workers (no-op if none are running)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = None


atexit.register(shutdown_sweep_pool)


def run_sweep(
    snapshot_path: str | Path,
    branches: int,
    horizon_s: float,
    *,
    workers: int | None = None,
) -> list[BranchResult]:
    """Run a fork sweep of ``branches`` branches over ``horizon_s``.

    ``workers`` caps the process pool; ``0`` or ``1`` runs serially in
    this process (useful under profilers and in tests).  Parallel
    sweeps share one persistent pool across calls, so a parameter scan
    pays worker start-up once, not once per sweep point; call
    :func:`shutdown_sweep_pool` to release the workers early.
    """
    jobs = [(str(snapshot_path), index, horizon_s) for index in range(branches)]
    if workers is not None and workers <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        results = list(_sweep_pool(workers).map(_sweep_worker, jobs))
    return [BranchResult(**entry) for entry in results]
