"""Tests for watchdog restart backoff and the restart budget.

The watchdog sweeps every 30 s; the n-th consecutive restart of one
agent waits ``30 * 2**(n-1)`` s (at most 480 s) before the next, and one
agent gets at most 8 restarts per 900 s window.
"""

from repro.core.watchdog import AgentWatchdog
from repro.simulation.engine import SimulationEngine


class _CrashLoopAgent:
    """Stub agent that stays unhealthy no matter how often it restarts."""

    def __init__(self, server_id: str) -> None:
        self.server = type("S", (), {"server_id": server_id})()
        self.healthy = False
        self.restart_count = 0

    def restart(self) -> None:
        self.restart_count += 1


class _RecoveringAgent(_CrashLoopAgent):
    """Stub agent fixed by a single restart."""

    def restart(self) -> None:
        super().restart()
        self.healthy = True


def make_watchdog(engine, agents):
    watchdog = AgentWatchdog(engine, agents)
    watchdog.start()
    return watchdog


def flap(engine, agent, times):
    """Crash ``agent`` at each of ``times`` (it recovers on restart)."""
    for time_s in times:
        engine.schedule_at(time_s, lambda: setattr(agent, "healthy", False))


class TestBackoff:
    def test_consecutive_restarts_back_off_exponentially(self):
        engine = SimulationEngine()
        agent = _CrashLoopAgent("s0")
        watchdog = make_watchdog(engine, [agent])
        engine.run_until(600.0)
        times = [r.time_s for r in watchdog.restart_log]
        # Sweeps every 30 s; backoff doubles per consecutive restart:
        # 30, 60, 120, 240 s gaps (rounded up to the next sweep).
        assert times == [0.0, 30.0, 90.0, 210.0, 450.0]
        assert [r.attempt for r in watchdog.restart_log] == [1, 2, 3, 4, 5]
        assert watchdog.backoff_deferrals > 0

    def test_backoff_capped_at_max(self):
        engine = SimulationEngine()
        agent = _CrashLoopAgent("s0")
        watchdog = make_watchdog(engine, [agent])
        engine.run_until(2000.0)
        gaps = [
            b.time_s - a.time_s
            for a, b in zip(watchdog.restart_log, watchdog.restart_log[1:])
        ]
        # 30, 60, 120, 240 s, then every gap is the 480 s cap.
        assert gaps == [30.0, 60.0, 120.0, 240.0, 480.0, 480.0, 480.0]

    def test_healthy_sighting_resets_ladder(self):
        engine = SimulationEngine()
        agent = _RecoveringAgent("s0")
        watchdog = make_watchdog(engine, [agent])
        engine.run_until(100.0)
        assert agent.restart_count == 1
        assert watchdog.consecutive_restarts("s0") == 0
        # A later, unrelated crash restarts immediately — no stale backoff.
        agent.healthy = False
        engine.run_until(200.0)
        assert agent.restart_count == 2
        assert watchdog.restart_log[-1].attempt == 1

    def test_one_flapping_agent_does_not_delay_others(self):
        engine = SimulationEngine()
        looper = _CrashLoopAgent("bad")
        victim = _RecoveringAgent("good")
        watchdog = make_watchdog(engine, [looper, victim])
        engine.run_until(29.0)
        assert victim.restart_count == 1
        assert watchdog.restarts == 2


class TestRestartBudget:
    def test_budget_suppresses_runaway_restarts(self):
        # A flapping agent is healthy at every other sweep, so each
        # healthy sighting resets its backoff ladder — only the budget
        # bounds it: 8 restarts (t=0, 60, ..., 420), then suppression.
        engine = SimulationEngine()
        agent = _RecoveringAgent("s0")
        flap(engine, agent, [31.0 + 60.0 * k for k in range(14)])
        watchdog = make_watchdog(engine, [agent])
        engine.run_until(890.0)
        assert agent.restart_count == 8
        assert watchdog.restarts == 8
        assert watchdog.restarts_suppressed > 0
        assert watchdog.backoff_deferrals == 0

    def test_budget_window_rolls_over(self):
        engine = SimulationEngine()
        agent = _RecoveringAgent("s0")
        flap(engine, agent, [31.0 + 60.0 * k for k in range(20)])
        watchdog = make_watchdog(engine, [agent])
        engine.run_until(1000.0)
        # Eight restarts t=0..420 | suppressed 480..870 (the agent
        # stays down) | new window at 900: restarts resume.
        times = [r.time_s for r in watchdog.restart_log]
        assert times == [60.0 * k for k in range(8)] + [900.0, 960.0]
        assert watchdog.restarts_suppressed == 14


class TestSweepVisitsOnlyWhoItCouldActOn:
    """The sweep skips healthy agents with no record; nothing observable
    may depend on that.  The oracle is the same watchdog forced to poll
    every agent every sweep (the pre-notification behaviour)."""

    @staticmethod
    def _run(lane: str, poll_everyone: bool) -> dict:
        from contextlib import nullcontext

        from tests.conftest import scalar_lane

        with scalar_lane() if lane == "scalar" else nullcontext():
            return TestSweepVisitsOnlyWhoItCouldActOn._campaign(poll_everyone)

    @staticmethod
    def _campaign(poll_everyone: bool) -> dict:
        from repro.state.registry import SnapshotRegistry
        from repro.state.worlds import build_quickstart_world

        world = build_quickstart_world(seed=9)
        ids = list(world.dynamo.agents)
        looper, flapper, once = ids[20], ids[3], ids[11]

        def arm(world, crashes: list[tuple[float, str]]) -> None:
            watchdog = world.dynamo.watchdog
            if poll_everyone:
                watchdog._polled = list(watchdog._position)
            for time_s, server_id in crashes:
                world.engine.schedule_at(
                    time_s, world.dynamo.agents[server_id].crash
                )

        # ``once`` crashes a single time; ``flapper`` crashes again
        # after some repairs (a healthy sighting resets its ladder in
        # between); ``looper`` dies one second after every sweep up its
        # backoff ladder, then after every other sweep (a restart, a
        # healthy sighting, a crash) through its restart budget.
        arm(
            world,
            [(10.0, once)]
            + [(t, flapper) for t in (40.0, 100.0, 220.0, 700.0)]
            + [(31.0 + 30.0 * k, looper) for k in range(5)]
            + [(301.0 + 60.0 * k, looper) for k in range(12)],
        )
        world.run_until(1000.0)
        # A snapshot round trip mid-campaign (looper down, on its
        # ladder) must leave the restored watchdog knowing whom to visit.
        registry = SnapshotRegistry()
        resumed = registry.restore(registry.capture(world))
        arm(resumed, [(31.0 + 30.0 * k, looper) for k in range(33, 70)])
        resumed.run_until(2200.0)
        final = resumed.dynamo.watchdog
        assert final.restarts_suppressed > 0 and final.backoff_deferrals > 0
        assert {r.server_id for r in final.restart_log} == {
            looper, flapper, once
        }
        return {
            "state": final.snapshot_state(),
            "healthy": [a.healthy for a in resumed.dynamo.agents.values()],
        }

    def test_identical_to_polling_every_agent_on_both_control_backends(self):
        outcomes = {
            (lane, poll): self._run(lane, poll)
            for lane in ("scalar", "vectorized")
            for poll in (False, True)
        }
        reference = outcomes[("scalar", True)]
        for key, outcome in outcomes.items():
            assert outcome == reference, key

    def test_sweep_does_not_touch_healthy_agents(self):
        from repro.state.worlds import build_quickstart_world

        world = build_quickstart_world(seed=9)
        watchdog = world.dynamo.watchdog
        reads = []
        agent_type = type(next(iter(world.dynamo.agents.values())))
        original = agent_type.healthy
        agent_type.healthy = property(
            lambda self: (reads.append(self), original.fget(self))[1]
        )
        try:
            world.run_until(95.0)  # three sweeps
        finally:
            agent_type.healthy = original
        assert reads == []
        assert watchdog.restarts == 0
