"""The snapshot registry: walk a world, capture state, restore bit-exact.

Capture walks every stateful component of a built
:class:`~repro.world.World` — simulation clock and counters, every
RNG stream, server physics and estimator caches, device and breaker
thermal state, controller band/mode/ledger state, endpoint health,
transports, agents, watchdog backoff ladders, telemetry, and (when a
chaos campaign is running) the orchestrator's timeline, mid-flight fault
state, and armed fault timers — into one JSON-clean dict.

Restore rebuilds the world from its recipe, disarms everything the
builder scheduled, overwrites component state, then re-registers all
pending schedules **in ascending original-sequence order**.

Why that ordering gives bit-exact resume: the engine breaks ties on
``(time, priority, sequence)``.  At capture time the pending events hold
some set of sequence numbers whose *relative* order decides every future
tie.  Re-registering them in that relative order hands out fresh
sequence numbers ``0..n-1`` that preserve it, and any event scheduled
*after* the restore point gets a higher number than all coexisting
pending events — exactly as in the uninterrupted run.  Every future
tie-break therefore resolves identically, so the resumed trajectory is
the uninterrupted trajectory.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.core.failover import FailoverController
from repro.core.remote import RemoteChildController
from repro.errors import SnapshotError
from repro.simulation.process import PeriodicProcess
from repro.state.snapshot import SCHEMA_VERSION, WorldSnapshot
from repro.state.worlds import build_world
from repro.world import World


@runtime_checkable
class Snapshotable(Protocol):
    """Anything that can round-trip its mutable state through a dict.

    ``snapshot_state`` must return a JSON-clean dict (plain ints,
    floats, strings, lists, dicts, None); ``restore_state`` must accept
    that dict — possibly after a JSON round-trip — and overwrite the
    component's mutable state in place, preserving object identity for
    anything other components hold references to.
    """

    def snapshot_state(self) -> dict:
        """Serializable mutable state."""
        ...

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state in place."""
        ...


def _controller_entries(world: World) -> list[tuple[str, Any]]:
    """(name, controller) pairs in stable hierarchy order."""
    hierarchy = world.dynamo.hierarchy
    entries: list[tuple[str, Any]] = []
    entries.extend(hierarchy.leaf_controllers.items())
    entries.extend(hierarchy.upper_controllers.items())
    return entries


def _world_processes(world: World) -> dict[str, PeriodicProcess]:
    """Every periodic schedule in the world, keyed by label."""
    processes: dict[str, PeriodicProcess] = {}

    def add(process: PeriodicProcess) -> None:
        if process.label in processes:
            raise SnapshotError(
                f"duplicate periodic-process label {process.label!r}; "
                "snapshot restore matches schedules by label"
            )
        processes[process.label] = process

    add(world.driver.process)
    for process in world.dynamo.coordinator.processes:
        add(process)
    add(world.dynamo.watchdog.process)
    if world.orchestrator is not None and world.orchestrator.probe is not None:
        add(world.orchestrator.probe)
    if world.governor is not None:
        add(world.governor.process)
    return processes


class SnapshotRegistry:
    """Captures a :class:`World` into a snapshot and restores it."""

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def capture(
        self, world: World, *, include_traces: bool = True
    ) -> WorldSnapshot:
        """Walk the world and capture a :class:`WorldSnapshot`.

        Raises:
            SnapshotError: the world has no recipe to rebuild it from,
                holds pending events the registry does not know how to
                re-register (a custom one-shot schedule), or its
                structure defies the walk.
        """
        recipe, rng = world.recipe, world.rng
        if recipe is None or rng is None:
            raise SnapshotError(
                f"world {world.name!r} has no recipe to rebuild it from; "
                "build it from the recipe table to snapshot it"
            )
        # The vectorized backend prefetches RNG draws speculatively;
        # rewind every stream to its logical position before capturing
        # generator states, or the resumed run would skip draws.
        world.driver.sync_physics()
        dynamo = world.dynamo
        # Same contract for the batched control plane's sensor-noise
        # prefetch: flush before generator states are read.
        if dynamo.agent_batch is not None:
            dynamo.agent_batch.sync()
        state: dict = {
            "engine": world.engine.snapshot_state(),
            "rng": rng.snapshot_state(),
            "servers": {
                server_id: server.snapshot_state()
                for server_id, server in world.fleet.servers.items()
            },
            "devices": {
                device.name: device.snapshot_state()
                for device in world.topology.iter_devices()
            },
            "failover_devices": [
                name
                for name, controller in _controller_entries(world)
                if isinstance(controller, FailoverController)
            ],
            "controllers": {
                name: self._capture_controller(controller)
                for name, controller in _controller_entries(world)
            },
            "remote_children": self._capture_remote_children(world),
            "health": dynamo.health.snapshot_state(),
            "transport": dynamo.transport.snapshot_state(),
            "resilient": (
                None
                if dynamo.resilient_transport is None
                else dynamo.resilient_transport.snapshot_state()
            ),
            "agents": {
                server_id: agent.snapshot_state()
                for server_id, agent in dynamo.agents.items()
            },
            "watchdog": dynamo.watchdog.snapshot_state(),
            "control_batch": (
                None
                if dynamo.agent_batch is None
                else dynamo.agent_batch.snapshot_state()
            ),
            "driver": world.driver.snapshot_state(),
            "alerts": dynamo.alerts.snapshot_state(),
            "traces": dynamo.traces.snapshot_state(
                include_traces=include_traces
            ),
            "orchestrator": (
                None
                if world.orchestrator is None
                else world.orchestrator.snapshot_state()
            ),
            "processes": {
                label: process.snapshot_state()
                for label, process in _world_processes(world).items()
            },
        }
        # Conditional key: worlds without a governor keep the exact
        # pre-economics snapshot shape (golden fingerprints unchanged).
        if world.governor is not None:
            state["economics"] = world.governor.snapshot_state()
        self._check_pending_coverage(world, state)
        return WorldSnapshot(
            recipe=dict(recipe),
            state=state,
            schema_version=SCHEMA_VERSION,
            meta={"time_s": world.now_s},
        )

    def _capture_controller(self, controller: Any) -> dict:
        if isinstance(controller, FailoverController):
            return {
                "kind": "pair",
                "pair": controller.snapshot_state(),
                "primary": controller.primary.snapshot_state(),
                "backup": controller.backup.snapshot_state(),
            }
        return {"kind": "single", "state": controller.snapshot_state()}

    def _capture_remote_children(self, world: World) -> dict:
        """RPC child-proxy state per upper controller (distributed mode).

        A failover pair's halves share the same proxy objects, so the
        primary's child list covers both.
        """
        captured: dict[str, dict] = {}
        for name, controller in world.dynamo.hierarchy.upper_controllers.items():
            instance = (
                controller.primary
                if isinstance(controller, FailoverController)
                else controller
            )
            proxies = {
                child.name: child.snapshot_state()
                for child in getattr(instance, "children", [])
                if isinstance(child, RemoteChildController)
            }
            if proxies:
                captured[name] = proxies
        return captured

    def _check_pending_coverage(self, world: World, state: dict) -> None:
        """Every live pending event must be re-registerable from state."""
        covered = sum(
            1
            for process_state in state["processes"].values()
            if process_state["next_fire_s"] is not None
        )
        orchestrator_state = state["orchestrator"]
        if orchestrator_state is not None:
            covered += len(orchestrator_state["pending"])
        live = world.engine.pending_count
        if covered != live:
            raise SnapshotError(
                f"world has {live} pending events but only {covered} are "
                "captured as re-registerable schedules; snapshot would "
                "drop the rest (custom schedule_at events are not "
                "snapshotable)"
            )

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def restore(self, snapshot: WorldSnapshot) -> World:
        """Rebuild the recipe world and overwrite it with the snapshot.

        Returns a world positioned at the captured simulation time with
        all schedules re-armed; running it continues the original
        trajectory bit-exactly.
        """
        state = snapshot.state
        world = build_world(snapshot.recipe)
        dynamo = world.dynamo

        # Structure first: failover pairs must exist before their halves
        # are restored (the backup is created by enable_failover).
        for device_name in state["failover_devices"]:
            dynamo.enable_failover(str(device_name))

        # Disarm everything the builder scheduled, then move the clock.
        world.engine.clear_pending()
        world.engine.restore_state(state["engine"])
        assert world.rng is not None  # every table builder records it
        world.rng.restore_state(state["rng"])

        self._restore_keyed(
            "server", world.fleet.servers, state["servers"]
        )
        devices = {d.name: d for d in world.topology.iter_devices()}
        self._restore_keyed("device", devices, state["devices"])
        self._restore_controllers(world, state["controllers"])
        self._restore_remote_children(world, state["remote_children"])
        dynamo.health.restore_state(state["health"])
        dynamo.transport.restore_state(state["transport"])
        if (state["resilient"] is None) != (
            dynamo.resilient_transport is None
        ):
            raise SnapshotError(
                "snapshot and rebuilt world disagree on whether the "
                "resilience layer is enabled; the recipe does not match"
            )
        if dynamo.resilient_transport is not None:
            dynamo.resilient_transport.restore_state(state["resilient"])
        self._restore_keyed("agent", dynamo.agents, state["agents"])
        dynamo.watchdog.restore_state(state["watchdog"])
        captured_batch = state.get("control_batch")
        if dynamo.agent_batch is not None and captured_batch is not None:
            dynamo.agent_batch.restore_state(captured_batch)
        world.driver.restore_state(state["driver"])
        dynamo.alerts.restore_state(state["alerts"])
        dynamo.traces.restore_state(state["traces"])
        if (state["orchestrator"] is None) != (world.orchestrator is None):
            raise SnapshotError(
                "snapshot and rebuilt world disagree on the presence of "
                "a chaos orchestrator; the recipe does not match"
            )
        if world.orchestrator is not None:
            world.orchestrator.restore_state(state["orchestrator"])
        captured_econ = state.get("economics")
        if (captured_econ is None) != (world.governor is None):
            raise SnapshotError(
                "snapshot and rebuilt world disagree on the presence of "
                "an economic governor; the recipe does not match"
            )
        if world.governor is not None:
            world.governor.restore_state(captured_econ)

        self._rearm_schedules(world, state)
        return world

    def _restore_keyed(self, what: str, live: dict, captured: dict) -> None:
        if set(live) != set(captured):
            missing = sorted(set(captured) - set(live))
            extra = sorted(set(live) - set(captured))
            raise SnapshotError(
                f"{what} set mismatch between snapshot and rebuilt world "
                f"(missing: {missing or 'none'}, extra: {extra or 'none'})"
            )
        for key, component in live.items():
            component.restore_state(captured[key])

    def _restore_controllers(self, world: World, captured: dict) -> None:
        entries = dict(_controller_entries(world))
        if set(entries) != set(captured):
            raise SnapshotError(
                "controller set mismatch between snapshot and rebuilt "
                "world; the recipe does not match"
            )
        for name, entry in captured.items():
            controller = entries[name]
            if entry["kind"] == "pair":
                if not isinstance(controller, FailoverController):
                    raise SnapshotError(
                        f"snapshot has a failover pair for {name!r} but "
                        "the rebuilt world does not"
                    )
                controller.restore_state(entry["pair"])
                controller.primary.restore_state(entry["primary"])
                controller.backup.restore_state(entry["backup"])
            else:
                if isinstance(controller, FailoverController):
                    raise SnapshotError(
                        f"rebuilt world has a failover pair for {name!r} "
                        "but the snapshot does not"
                    )
                controller.restore_state(entry["state"])

    def _restore_remote_children(self, world: World, captured: dict) -> None:
        for name, proxies in captured.items():
            controller = world.dynamo.hierarchy.upper_controllers[name]
            instance = (
                controller.primary
                if isinstance(controller, FailoverController)
                else controller
            )
            children = {
                child.name: child
                for child in getattr(instance, "children", [])
                if isinstance(child, RemoteChildController)
            }
            if set(children) != set(proxies):
                raise SnapshotError(
                    f"remote-child set mismatch under {name!r}; the "
                    "recipe does not match (was the hierarchy "
                    "distributed?)"
                )
            for child_name, proxy_state in proxies.items():
                children[child_name].restore_state(proxy_state)

    def _rearm_schedules(self, world: World, state: dict) -> None:
        """Re-register pending events in ascending original sequence."""
        processes = _world_processes(world)
        captured = state["processes"]
        if set(processes) != set(captured):
            missing = sorted(set(captured) - set(processes))
            extra = sorted(set(processes) - set(captured))
            raise SnapshotError(
                "periodic-process set mismatch between snapshot and "
                f"rebuilt world (missing: {missing or 'none'}, extra: "
                f"{extra or 'none'})"
            )
        rearms: list[tuple[int, Callable[[], None]]] = []
        for label, process in processes.items():
            process_state = captured[label]
            if process_state["sequence"] is None:
                # Stopped (or never started): restore counters now; no
                # event competes for ordering.
                process.restore_state(process_state)
            else:
                rearms.append(
                    (
                        int(process_state["sequence"]),
                        lambda p=process, s=process_state: p.restore_state(s),
                    )
                )
        orchestrator = world.orchestrator
        orchestrator_state = state["orchestrator"]
        if orchestrator_state is not None:
            assert orchestrator is not None
            for entry in orchestrator_state["pending"]:
                rearms.append(
                    (
                        int(entry["sequence"]),
                        lambda e=entry: orchestrator.rearm_pending(e),
                    )
                )
        rearms.sort(key=lambda item: item[0])
        for _, rearm in rearms:
            rearm()
