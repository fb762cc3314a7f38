#!/usr/bin/env python
"""Chaos engineering against Dynamo: a seeded random fault campaign.

The paper's fault-tolerance story (Section III-E) is a list of
mechanisms: watchdog-restarted agents, aggregation aborts above 20% pull
failures, and primary/backup controller pairs.  This example attacks a
live deployment with a *random but replayable* campaign of faults —
agent crashes, sensor dropouts, RPC partitions, power surges — and then
scores the outcome.

Three things to notice:

1. The campaign schedule is drawn from a named RNG stream, so the same
   seed always produces the same faults at the same times against the
   same targets.  "Random" chaos is still a reproducible experiment.
2. The injection/recovery timeline has a byte-stable fingerprint; run
   the campaign twice and diff the fingerprints to prove replay.
3. The scorecard reduces the run to the numbers that matter: did
   anything trip (never acceptable), how fast was the damage detected,
   and how fast was it repaired.

Run:  python examples/chaos_campaign.py     (~10 s)
"""

from repro.chaos import (
    CHAOS_SCENARIOS,
    build_chaos_run,
    build_scorecard,
    random_campaign_specs,
    render_scorecard,
)
from repro.simulation.rng import RngStreams

SEED = 7


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Draw the campaign schedule — replayable randomness.
    # ------------------------------------------------------------------
    server_ids = [f"s{r}-{i}" for r in range(2) for i in range(20)]
    specs = random_campaign_specs(
        RngStreams(SEED), server_ids, n_faults=6, horizon_s=900.0
    )
    print(f"campaign schedule (seed {SEED}):")
    for spec in specs:
        print(f"  {spec.describe()}")

    # ------------------------------------------------------------------
    # 2. Run it against a live deployment and score the outcome.
    # ------------------------------------------------------------------
    run = build_chaos_run("campaign", specs, seed=SEED, end_s=1500.0)
    run.start()
    run.run_until(run.end_s)
    score = build_scorecard(run)
    print()
    print(render_scorecard(score))

    # ------------------------------------------------------------------
    # 3. Prove replay: an identical second run, fingerprint-compared.
    # ------------------------------------------------------------------
    replay = CHAOS_SCENARIOS["campaign"](seed=SEED)
    replay.start()
    replay.run_until(replay.end_s)
    reference = CHAOS_SCENARIOS["campaign"](seed=SEED)
    reference.start()
    reference.run_until(reference.end_s)
    timeline = replay.orchestrator.timeline_fingerprint()
    identical = timeline == reference.orchestrator.timeline_fingerprint()
    print()
    print("replayed timeline:")
    for line in timeline.splitlines():
        print(f"  {line}")
    print()
    print(f"replay determinism: {'byte-identical' if identical else 'DIVERGED'}")
    assert identical
    assert score.survived, "a breaker tripped during the campaign"


if __name__ == "__main__":
    main()
