#!/usr/bin/env python
"""Operating Dynamo: the Section VI production machinery.

Walks through the operational lessons the paper shares after three
years in production:

1. **Service-aware design simplifies capping testing** — run the
   end-to-end capping harness against a non-critical row, then inspect
   service-specific logic in dry-run mode without throttling anything.
2. **Use accurate estimation** — bias the fleet's power estimators and
   watch breaker-reading validation pull them back.
3. **Keep the design simple / staged rollout** — push a bad agent
   change through the four-phase rollout and see the health gate catch
   it at the 1% stage.

Run:  python examples/operations.py     (~10 s)
"""

from repro.core.dryrun import CappingTestHarness, DryRunLeafController
from repro.core.dynamo import Dynamo
from repro.core.rollout import StagedRollout
from repro.core.validation import BreakerReadingSource, BreakerValidator
from repro.fleet import FleetDriver, ServiceAllocation, populate_fleet
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.oversubscription import plan_quotas
from repro.server.platform import WESTMERE_2011
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams


def main() -> None:
    engine = SimulationEngine()
    topology = build_datacenter(
        DataCenterSpec(
            name="ops-dc", msb_count=1, sbs_per_msb=1, rpps_per_sb=2,
            racks_per_rpp=2,
        )
    )
    plan_quotas(topology)
    rng = RngStreams(7)
    fleet = populate_fleet(
        topology,
        [
            # Legacy web servers without power sensors: their power is
            # estimated from CPU utilization, which part 2 exercises.
            ServiceAllocation("web", 16, platform=WESTMERE_2011),
            ServiceAllocation("hadoop", 8),
        ],
        rng,
    )
    dynamo = Dynamo(engine, topology, fleet, rng_streams=rng.fork("d"))
    FleetDriver(engine, topology, fleet).start()
    dynamo.start()
    engine.run_until(120.0)

    # -- 1a. End-to-end capping test on a non-critical row --------------
    print("=" * 64)
    print("1a. END-TO-END CAPPING TEST (non-critical row rpp0.0.0)")
    controller = dynamo.leaf_controller("rpp0.0.0")
    harness = CappingTestHarness(engine, controller)
    report = harness.run()
    print(f"   capped: {report.capped}  settled: {report.settled_below_target}"
          f"  uncapped: {report.uncapped}  latency: {report.cap_latency_s}s")
    print(f"   => harness {'PASSED' if report.passed else 'FAILED'}")

    # -- 1b. Dry-run inspection ----------------------------------------
    print("\n1b. DRY-RUN MODE (decisions logged, nothing throttled)")
    transport = dynamo.transport
    device = topology.device("rpp0.0.1")
    servers = sorted(dynamo.leaf_controller("rpp0.0.1").server_ids)
    dry = DryRunLeafController(device, servers, transport)
    dry.tick(engine.clock.now)
    dry.set_contractual_limit_w(dry.last_aggregate_power_w * 0.92)
    dry.tick(engine.clock.now)
    for entry in dry.recorder.entries:
        print(f"   would {entry.action}: cut {entry.total_cut_w:.0f} W over "
              f"{entry.affected_servers} servers ({entry.detail})")
    print(f"   actually capped servers: "
          f"{sum(1 for s in fleet.servers.values() if s.rapl.capped)}")

    # -- 2. Estimator validation against breaker readings ---------------
    print("\n" + "=" * 64)
    print("2. BREAKER-READING VALIDATION + RECALIBRATION")
    leaf = dynamo.leaf_controller("rpp0.0.0")
    row_servers = {
        sid: fleet.servers[sid] for sid in leaf.server_ids
    }
    for server in row_servers.values():
        server.estimator = server.estimator.recalibrate(1.20)  # drift!
    source = BreakerReadingSource(engine, leaf.device)
    source.start(phase=1.0)
    validator = BreakerValidator(
        engine, leaf, source, servers=row_servers, interval_s=120.0
    )
    validator.start(phase=125.0)
    engine.run_until(engine.clock.now + 600.0)
    print(f"   validations: {validator.validations}, "
          f"recalibrations: {validator.recalibrations}")

    # -- 3. Staged rollout catching a bad change ------------------------
    print("\n" + "=" * 64)
    print("3. FOUR-PHASE STAGED ROLLOUT")

    def bad_change(agent):
        agent.crash()

    def rollback(agent):
        agent.restart()

    rollout = StagedRollout(
        list(dynamo.agents.values()),
        bad_change,
        rollback,
        health_gate=lambda deployed: all(a.healthy for a in deployed),
    )
    state = rollout.run_all()
    print(f"   phases run: {len(rollout.results)}, final state: {state.value}")
    print(f"   agents exposed at failure: {rollout.results[-1].agents_deployed}"
          f" of {len(dynamo.agents)}")
    print(f"   all agents healthy after rollback: "
          f"{all(a.healthy for a in dynamo.agents.values())}")


if __name__ == "__main__":
    main()
