"""Deterministic chaos engineering for the Dynamo reproduction.

The paper's headline is not only capping accuracy but *surviving
failure*: watchdog restarts, aggregation aborts above 20% pull failures,
controller failover, and riding through a site-outage recovery surge
(Sections III-E and V, Figure 12).  This package turns those claims into
replayable experiments:

* :mod:`repro.chaos.faults` — a catalogue of composable fault
  injections described declaratively by :class:`FaultSpec`.
* :mod:`repro.chaos.orchestrator` — arms injections as simulation
  events, applies and reverts them against a live deployment, and logs
  every injection/recovery into a fingerprintable event log.
* :mod:`repro.chaos.scenarios` — prebuilt scenarios (SB-outage
  ride-through, watchdog restart storm, controller crash, RPC storms,
  breaker derating) plus seeded random campaigns.
* :mod:`repro.chaos.report` — the robustness scorecard: time-to-detect,
  time-to-recover, breaker trips, capping SLA violations, and
  aggregation aborts per scenario.

Everything derives its randomness from ``repro.simulation.rng`` streams,
so the same seed always produces a byte-identical injection timeline.
"""

from repro.chaos.faults import FaultSpec, build_fault, fault_kinds
from repro.chaos.orchestrator import ChaosContext, ChaosOrchestrator
from repro.chaos.report import RobustnessScore, build_scorecard, render_scorecard
from repro.chaos.scenarios import (
    CHAOS_SCENARIOS,
    build_chaos_run,
    random_campaign_specs,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosContext",
    "ChaosOrchestrator",
    "FaultSpec",
    "RobustnessScore",
    "build_chaos_run",
    "build_fault",
    "build_scorecard",
    "fault_kinds",
    "random_campaign_specs",
    "render_scorecard",
]
