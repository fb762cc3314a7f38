"""The consolidated controller binary (Section IV).

In production, all controller instances for neighbouring devices in a
suite are consolidated into one binary, each controller a thread (~100
threads), running on dedicated Dynamo servers.  The coordinator plays that
binary's role: it owns the periodic scheduling of every controller in a
hierarchy, leaf controllers on the 3 s cycle and upper controllers on the
9 s cycle.

Event priorities guarantee the intra-instant ordering nested control
loops need: when a leaf tick and an upper tick land on the same instant,
the leaf runs first, so the upper controller always sees the freshest
aggregations.  The one table below holds the priority of every recurring
activity in the simulation; each scheduler reads its own constant.
"""

from __future__ import annotations

from repro.core.controller import PowerController
from repro.core.hierarchy import ControllerHierarchy
from repro.errors import ConfigurationError
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import PeriodicProcess

#: Event priorities (lower runs first at the same instant).  Physics
#: steps first; injected faults land on the stepped world and the chaos
#: probe observes them; breaker readings and samplers record the
#: instant; the governor moves bands before the leaves tick; upper
#: controllers (offset by depth, deepest first) see fresh leaf
#: aggregates; the breaker validator checks them; the watchdog sweeps
#: last.
PRIORITY_FLEET_STEP = 0
PRIORITY_CHAOS = 2
PRIORITY_CHAOS_PROBE = 3
PRIORITY_BREAKER_READING = 4
PRIORITY_SAMPLER = 5
PRIORITY_GOVERNOR = 8
PRIORITY_LEAF = 10
PRIORITY_UPPER = 20
PRIORITY_VALIDATOR = 25
PRIORITY_WATCHDOG = 30


class ControllerCoordinator:
    """Schedules every controller in a hierarchy on the engine.

    Ticks are dispatched through a name-indexed registry rather than
    bound methods, so a controller can be replaced mid-run — e.g. the
    chaos subsystem swapping a plain controller for a primary/backup
    :class:`~repro.core.failover.FailoverController` pair — without
    touching the event queue.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        hierarchy: ControllerHierarchy,
    ) -> None:
        self._engine = engine
        self.hierarchy = hierarchy
        self._controllers: dict[str, PowerController] = {}
        self._processes: list[PeriodicProcess] = []

        def dispatch(name: str):
            def run(now_s: float) -> None:
                self._controllers[name].tick(now_s)

            return run

        for controller in hierarchy.leaf_controllers.values():
            self._controllers[controller.name] = controller
            self._processes.append(
                PeriodicProcess(
                    engine,
                    controller.config.leaf_pull_interval_s,
                    dispatch(controller.name),
                    label=f"leaf.{controller.name}",
                    priority=PRIORITY_LEAF,
                )
            )
        # Sort upper controllers deepest-first so that, at coincident
        # instants, SB controllers run before their MSB parent and the
        # parent sees this cycle's aggregations.
        uppers = sorted(
            hierarchy.upper_controllers.values(),
            key=lambda c: -c.device.level.depth,
        )
        for controller in uppers:
            self._controllers[controller.name] = controller
            self._processes.append(
                PeriodicProcess(
                    engine,
                    controller.config.upper_pull_interval_s,
                    dispatch(controller.name),
                    label=f"upper.{controller.name}",
                    priority=PRIORITY_UPPER + (3 - controller.device.level.depth),
                )
            )
        self._started = False

    def replace_controller(self, name: str, controller: PowerController) -> None:
        """Swap the instance ticked under ``name`` (failover wrapping)."""
        if name not in self._controllers:
            raise ConfigurationError(f"no scheduled controller named {name!r}")
        self._controllers[name] = controller

    def start(self) -> None:
        """Start every controller's periodic process.

        The first leaf tick happens one leaf interval in; upper ticks one
        upper interval in, giving leaves a head start on aggregation.
        """
        for process in self._processes:
            process.start(phase=process.interval_s)
        self._started = True

    def stop(self) -> None:
        """Stop all controller processes."""
        for process in self._processes:
            process.stop()
        self._started = False

    @property
    def running(self) -> bool:
        """Whether controllers are currently scheduled."""
        return self._started

    @property
    def processes(self) -> list[PeriodicProcess]:
        """Every controller schedule (for snapshot capture/re-arming)."""
        return list(self._processes)

    @property
    def thread_count(self) -> int:
        """Number of controller 'threads' in the consolidated binary."""
        return len(self._processes)
