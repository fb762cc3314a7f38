"""Golden-fingerprint parity for the shared control-cycle pipeline.

The refactor extracting :class:`~repro.core.controller.BaseController`
must not change behaviour.  This test replays a seeded multi-suite
scenario — two MSBs in two suites, a power surge, an agent crash, and a
mid-run contractual squeeze on one SB — and compares a byte-for-byte
fingerprint of every controller tick (time, controller, action), the
chaos event log, and final per-controller telemetry against a golden
recorded on the pre-refactor tree.  The golden was recorded on the
per-object reference lane; the array lane every builder runs (the
vectorized stepper plus the batched control plane) must reproduce it.

Regenerate (only with a deliberate, reviewed behaviour change)::

    PYTHONPATH=src:. python tests/test_control_parity.py --write
"""

from __future__ import annotations

from pathlib import Path

from repro.chaos.faults import FaultSpec
from repro.chaos.orchestrator import ChaosContext, ChaosOrchestrator
from repro.core.dynamo import Dynamo
from repro.fleet import FleetDriver, ServiceAllocation, populate_fleet
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.oversubscription import plan_quotas
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams
from tests.conftest import scalar_lane

GOLDEN_PATH = Path(__file__).parent / "data" / "control_parity_golden.txt"

SEED = 42
END_S = 720.0


def build_parity_run(
    seed: int = SEED,
    *,
    physics_backend: str = "vectorized",
    attach_early: bool = False,
    estimation: bool = False,
):
    """A deterministic two-suite deployment with faults and a squeeze.

    The default is the array lane, its batch attached by
    ``Dynamo.start``; ``attach_early`` attaches it as soon as the driver
    exists instead.  ``physics_backend="scalar"`` is the per-object
    reference.
    """
    engine = SimulationEngine()
    topology = build_datacenter(
        DataCenterSpec(
            name="parity",
            msb_count=2,
            suite_count=2,
            sbs_per_msb=2,
            rpps_per_sb=2,
            racks_per_rpp=2,
        )
    )
    plan_quotas(topology)
    rng = RngStreams(seed)
    fleet = populate_fleet(
        topology,
        [ServiceAllocation("web", 32), ServiceAllocation("cache", 16)],
        rng,
    )
    config = None
    if estimation:
        from repro.config import (
            ControllerConfig,
            DynamoConfig,
            EstimationConfig,
        )

        config = DynamoConfig(
            controller=ControllerConfig(
                estimation=EstimationConfig(enabled=True)
            )
        )
    dynamo = Dynamo(
        engine, topology, fleet, config=config,
        rng_streams=rng.fork("dynamo"),
    )
    driver = FleetDriver(
        engine, topology, fleet, physics_backend=physics_backend
    )
    if attach_early:
        dynamo.enable_vectorized_control(driver)
    orchestrator = ChaosOrchestrator(
        ChaosContext(
            engine=engine,
            dynamo=dynamo,
            topology=topology,
            fleet=fleet,
            driver=driver,
        )
    )
    orchestrator.schedule_all(
        [
            FaultSpec(
                kind="power-surge",
                start_s=120.0,
                duration_s=360.0,
                params={"multiplier": 1.4, "ramp_s": 60.0},
            ),
            FaultSpec(
                kind="agent-crash",
                start_s=90.0,
                targets=(sorted(fleet.servers)[0],),
            ),
        ]
    )
    return engine, dynamo, driver, orchestrator


def run_and_fingerprint(
    seed: int = SEED, end_s: float = END_S, **lane
) -> str:
    """Run the scenario and render the behaviour fingerprint.

    ``lane`` is passed to :func:`build_parity_run`.
    """
    engine, dynamo, driver, orchestrator = build_parity_run(seed, **lane)
    ticks: list[str] = []

    def wrap(controller):
        inner = controller.tick

        def tick(now_s: float):
            action = inner(now_s)
            ticks.append(f"{now_s:.3f} {controller.name} {action.value}")
            return action

        return tick

    controllers = dynamo.hierarchy.all_controllers
    for controller in controllers:
        controller.tick = wrap(controller)

    driver.start()
    dynamo.start()
    # Deterministic mid-run contractual squeeze on one SB: forces the
    # punish-offender path upstream and real capping at the leaves.
    sb = dynamo.controller("sb0.0")
    engine.schedule_at(
        240.0,
        lambda: sb.set_contractual_limit_w(sb.last_aggregate_power_w * 0.93),
    )
    engine.schedule_at(540.0, sb.clear_contractual_limit)
    engine.run_until(end_s)

    lines = list(ticks)
    lines.append("--- events ---")
    event_fp = orchestrator.events.fingerprint()
    if event_fp:
        lines.extend(event_fp.splitlines())
    lines.append("--- counters ---")
    for controller in sorted(controllers, key=lambda c: c.name):
        aggregate = controller.last_aggregate_power_w
        lines.append(
            f"{controller.name} cap={controller.cap_events} "
            f"uncap={controller.uncap_events} "
            f"invalid={getattr(controller, 'invalid_cycles', 0)} "
            f"aggregate={aggregate:.6f}"
        )
    return "\n".join(lines) + "\n"


def test_refactor_preserves_golden_fingerprint():
    """The per-object reference lane reproduces the golden."""
    golden = GOLDEN_PATH.read_text()
    current = run_and_fingerprint(physics_backend="scalar")
    assert current == golden, (
        "control-cycle behaviour diverged from the pre-refactor golden; "
        "if the change is deliberate, regenerate with "
        "`python tests/test_control_parity.py --write` and review the diff"
    )


def test_vectorized_backend_matches_golden_fingerprint():
    """The batch attached ahead of the start (as the perf harness
    attaches it) reproduces the golden."""
    golden = GOLDEN_PATH.read_text()
    current = run_and_fingerprint(attach_early=True)
    assert current == golden, (
        "attaching the batched control plane before the start changed "
        "behaviour; the two lanes must be bit-identical"
    )


def test_vectorized_control_matches_golden_fingerprint():
    """The array lane every builder runs reproduces the golden too.

    The scenario crashes an agent at 90 s and squeezes sb0.0 from 240 s
    to 540 s, so the fingerprint covers mid-fault sensing (the crashed
    agent drops to the scalar lane and is estimated from neighbours) and
    real capping/uncapping through the batched RAPL fan-out — all of
    which must stay byte-identical to the sequential broadcast.
    """
    golden = GOLDEN_PATH.read_text()
    current = run_and_fingerprint()
    assert current == golden, (
        "batched control plane diverged from the scalar golden; the "
        "group broadcast must be bit-identical to per-endpoint calls"
    )


def test_estimation_enabled_matches_golden_fingerprint():
    """Enabling the disaggregation estimator is invisible while healthy.

    The parity scenario's agent crash keeps the failure fraction under
    the 20% threshold, so the estimator only *trains* — it draws no
    randomness, mutates no readings, and adds no trace output — and the
    fingerprint must stay byte-identical to the estimation-off golden.
    """
    golden = GOLDEN_PATH.read_text()
    current = run_and_fingerprint(estimation=True)
    assert current == golden, (
        "enabling estimation changed behaviour on a healthy run; the "
        "estimator must be a pure observer below the failure threshold"
    )


def _blackout_fingerprint(world) -> str:
    """Per-tick fingerprint of the dark row's controller in a blackout."""
    world.start()
    world.run_until(world.end_s)
    dynamo = world.dynamo
    lines = [t.render() for t in dynamo.traces.for_controller("rpp0")]
    lines.append(
        f"cap={dynamo.total_cap_events()} "
        f"uncap={dynamo.total_uncap_events()} "
        f"sensor_degraded={dynamo.sensor_degraded_entries()} "
        f"safe={dynamo.safe_mode_entries()}"
    )
    return "\n".join(lines)


def test_blackout_parity_across_control_backends():
    """Broadcast and batched sensing agree through a 50% blackout.

    Stale-cache serving, the failure-fraction threshold, estimator
    training, residual disaggregation, and the uncertainty-inflated
    aggregate must all be bit-identical between the per-endpoint
    broadcast and the batched control plane — every rendered tick
    (including coverage and estimation-error fields) byte-for-byte.
    """
    from repro.chaos.scenarios import sensor_blackout_50

    with scalar_lane():
        scalar = _blackout_fingerprint(sensor_blackout_50(seed=7))
    batched = _blackout_fingerprint(sensor_blackout_50(seed=7))
    assert scalar == batched, (
        "degraded-sensing behaviour diverged between control backends"
    )


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            run_and_fingerprint(physics_backend="scalar")
        )
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(
            run_and_fingerprint(physics_backend="scalar"),
            end="",
        )
