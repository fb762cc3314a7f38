"""Agent watchdog (Section III-E).

"A script periodically checks the health of an agent and restarts the
agents in case the agent crashes."  The watchdog sweeps its registered
agents on its interval and restarts any that report unhealthy.

A sweep visits, in registration order, only the agents it could act on:
those that reported going unhealthy (agents call back on every crash,
restart and state restore) and those with a backoff ladder or budget
window on record.  A healthy agent with no record is a no-op for the
sweep, so skipping it changes nothing — and at a hundred thousand
agents, polling each one's health flag cost more than a control cycle.
Agents that cannot call back (test stubs) are polled every sweep.

Repeatedly failing agents are handled defensively: each consecutive
restart of the same agent doubles a per-agent backoff (``base * 2**(n-1)``
seconds, capped), and a restart budget per rolling window bounds how much
restarting one crash-looping agent can consume.  All outcomes are counted
— restarts, backoff deferrals, budget suppressions — and timestamped so
the chaos scorecard can measure time-to-recover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import DynamoAgent
from repro.core.coordinator import PRIORITY_WATCHDOG
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import PeriodicProcess

#: Seconds between health sweeps.
INTERVAL_S = 30.0
#: The n-th consecutive restart of one agent waits ``BACKOFF_BASE_S *
#: 2**(n-1)`` seconds before the next, at most ``BACKOFF_MAX_S``.
BACKOFF_BASE_S = 30.0
BACKOFF_MAX_S = 480.0
#: At most this many restarts of one agent per ``BUDGET_WINDOW_S``.
RESTART_BUDGET = 8
BUDGET_WINDOW_S = 900.0


@dataclass(frozen=True)
class RestartRecord:
    """One watchdog restart of one agent."""

    time_s: float
    server_id: str
    attempt: int


@dataclass
class _WatchState:
    """Per-agent restart bookkeeping."""

    consecutive_restarts: int = 0
    next_restart_s: float = 0.0
    window_start_s: float = 0.0
    window_restarts: int = 0


class AgentWatchdog:
    """Periodic health-check-and-restart sweep over a set of agents."""

    def __init__(
        self,
        engine: SimulationEngine,
        agents: list[DynamoAgent],
    ) -> None:
        self._agents: list[DynamoAgent] = []
        #: server_id -> registration position (the sweep's visit order).
        self._position: dict[str, int] = {}
        #: Agents that reported unhealthy and have not recovered since.
        self._unhealthy: set[str] = set()
        #: Agents without a health callback: checked on every sweep.
        self._polled: list[str] = []
        #: One bound method serves every agent's health callback.
        self._health_listener = self._on_health_change
        self._states: dict[str, _WatchState] = {}
        self.restarts = 0
        self.restarts_suppressed = 0
        self.backoff_deferrals = 0
        self.restart_log: list[RestartRecord] = []
        self._process = PeriodicProcess(
            engine,
            INTERVAL_S,
            self._sweep,
            label="agent-watchdog",
            priority=PRIORITY_WATCHDOG,
        )
        for agent in agents:
            self.add_agent(agent)

    def add_agent(self, agent: DynamoAgent) -> None:
        """Register another agent to watch."""
        server_id = agent.server.server_id
        self._position.setdefault(server_id, len(self._agents))
        self._agents.append(agent)
        if hasattr(agent, "_health_listener"):
            agent._health_listener = self._health_listener
            if not agent.healthy:
                self._unhealthy.add(server_id)
        else:
            self._polled.append(server_id)

    def _on_health_change(self, agent: DynamoAgent, healthy: bool) -> None:
        if healthy:
            self._unhealthy.discard(agent.server.server_id)
        else:
            self._unhealthy.add(agent.server.server_id)

    def start(self, phase: float = 0.0) -> None:
        """Begin sweeping."""
        self._process.start(phase)

    def stop(self) -> None:
        """Stop sweeping."""
        self._process.stop()

    def _sweep(self, now_s: float) -> None:
        position = self._position
        due = self._unhealthy.union(self._states, self._polled)
        due.intersection_update(position)
        for server_id in sorted(due, key=position.__getitem__):
            agent = self._agents[position[server_id]]
            state = self._states.get(server_id)
            if agent.healthy:
                # A healthy sighting resets the backoff ladder; the
                # budget window keeps counting so flapping agents still
                # exhaust it.
                if state is not None:
                    state.consecutive_restarts = 0
                    state.next_restart_s = 0.0
                continue
            if state is None:
                state = _WatchState(window_start_s=now_s)
                self._states[server_id] = state
            if now_s - state.window_start_s >= BUDGET_WINDOW_S:
                state.window_start_s = now_s
                state.window_restarts = 0
            if state.window_restarts >= RESTART_BUDGET:
                self.restarts_suppressed += 1
                continue
            if now_s < state.next_restart_s:
                self.backoff_deferrals += 1
                continue
            agent.restart()
            state.consecutive_restarts += 1
            state.window_restarts += 1
            backoff = BACKOFF_BASE_S * 2.0 ** (state.consecutive_restarts - 1)
            state.next_restart_s = now_s + min(backoff, BACKOFF_MAX_S)
            self.restarts += 1
            self.restart_log.append(
                RestartRecord(
                    time_s=now_s,
                    server_id=server_id,
                    attempt=state.consecutive_restarts,
                )
            )

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable backoff ladders, budgets, and restart history."""
        return {
            "states": {
                server_id: {
                    "consecutive_restarts": s.consecutive_restarts,
                    "next_restart_s": s.next_restart_s,
                    "window_start_s": s.window_start_s,
                    "window_restarts": s.window_restarts,
                }
                for server_id, s in self._states.items()
            },
            "restarts": self.restarts,
            "restarts_suppressed": self.restarts_suppressed,
            "backoff_deferrals": self.backoff_deferrals,
            "restart_log": [
                {
                    "time_s": r.time_s,
                    "server_id": r.server_id,
                    "attempt": r.attempt,
                }
                for r in self.restart_log
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore watchdog bookkeeping.

        The sweep schedule itself (a :class:`PeriodicProcess`) is
        re-armed separately by the snapshot registry, which replays all
        pending events in original-sequence order.
        """
        self._states = {
            server_id: _WatchState(
                consecutive_restarts=int(s["consecutive_restarts"]),
                next_restart_s=float(s["next_restart_s"]),
                window_start_s=float(s["window_start_s"]),
                window_restarts=int(s["window_restarts"]),
            )
            for server_id, s in state["states"].items()
        }
        self.restarts = int(state["restarts"])
        self.restarts_suppressed = int(state["restarts_suppressed"])
        self.backoff_deferrals = int(state["backoff_deferrals"])
        self.restart_log = [
            RestartRecord(
                time_s=float(r["time_s"]),
                server_id=str(r["server_id"]),
                attempt=int(r["attempt"]),
            )
            for r in state["restart_log"]
        ]
    @property
    def process(self) -> PeriodicProcess:
        """The sweep schedule (for snapshot capture/re-arming)."""
        return self._process

    def consecutive_restarts(self, server_id: str) -> int:
        """Restarts of ``server_id`` since it was last seen healthy."""
        state = self._states.get(server_id)
        return 0 if state is None else state.consecutive_restarts

    @property
    def agent_count(self) -> int:
        """Number of agents under watch."""
        return len(self._agents)
