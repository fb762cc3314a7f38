"""Command-line interface: run scenarios and inspect results.

Usage::

    python -m repro list
    python -m repro run quickstart
    python -m repro run ashburn --duration-h 2
    python -m repro run altoona
    python -m repro run hadoop --servers 100 --duration-h 6
    python -m repro run cascade
    python -m repro chaos list
    python -m repro chaos run sb-outage --seed 7
    python -m repro chaos run --resume mid-campaign.json
    python -m repro snapshot save --scenario sb-outage --at 900 --out s.json
    python -m repro snapshot restore s.json --until 1800
    python -m repro snapshot diff a.json b.json
    python -m repro snapshot sweep s.json --branches 8 --horizon 300
    python -m repro trace rpp0.0 --scenario quickstart --last 10
    python -m repro trace sb0.0 --scenario sb-outage --seed 7
    python -m repro health rpp0 --scenario flaky-fabric-recovery --seed 7
    python -m repro attribute rpp0 --scenario sensor-blackout-50 --seed 7
    python -m repro profile quickstart
    python -m repro profile sb-outage --top 10
    python -m repro profile --servers 10080
    python -m repro serve --port 8640
    python -m repro econ price-spike-day --compare
    python -m repro econ carbon-spike-day --hours 10 --seed 3
    python -m repro signals list
    python -m repro signals price-spike-day

Every verb that takes a scenario takes any world name from the recipe
table (:func:`repro.state.worlds.world_names`; ``repro list`` prints
them): quickstart, sized, the four case studies, every chaos drill and
every econ day.  ``run cascade`` is the one run outside the table.

Each scenario prints a short report; exit code is 0 when the run's
safety invariant (no breaker trips) holds.  Operational errors exit
nonzero instead of dumping tracebacks: snapshot problems (missing
file, corrupted payload, schema mismatch) exit 2 with a one-line
explanation, and any other library error exits 1.  ``chaos run`` additionally
executes the scenario twice and requires byte-identical injection
timelines (the replay-determinism contract).  ``trace`` runs a scenario
and prints one controller's per-tick sense→aggregate→decide→actuate
:class:`~repro.telemetry.tracing.TickTrace` records plus their
aggregated metrics.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from repro.analysis.multidc import build_region
from repro.state.worlds import build_world, named_recipe, world_names
from repro.units import hours, to_kilowatts
from repro.world import World


def _named_world(name: str, **kwargs) -> World:
    """The armed world called ``name``, built from the recipe table."""
    return build_world(named_recipe(name, **kwargs))


def _horizon_s(world: World, duration_h: float) -> float:
    """Where a verb runs ``world`` to.

    A chaos drill runs to the end of its fault schedule; any other
    world runs ``duration_h`` past its start.
    """
    if world.orchestrator is not None and world.end_s is not None:
        return world.end_s
    return world.start_s + hours(duration_h)


def _ran(args: argparse.Namespace, **kwargs) -> World:
    """``args.scenario`` built and run to its horizon (:func:`_horizon_s`)."""
    world = _named_world(args.scenario, seed=args.seed, **kwargs)
    world.run_until(_horizon_s(world, args.duration_h))
    return world


def _run_named(args: argparse.Namespace) -> int:
    """Any table world without a report of its own."""
    world = _ran(args)
    print(
        f"ran {world.name!r} to t={world.now_s:.1f}s: power "
        f"{to_kilowatts(world.topology.total_power_w()):.1f} KW, "
        f"{world.dynamo.total_cap_events()} cap events, "
        f"{len(world.driver.trips)} trips"
    )
    return 1 if world.driver.trips else 0


def _run_quickstart(args: argparse.Namespace) -> int:
    world = _ran(args)
    print(
        f"ran {args.duration_h} h: power "
        f"{to_kilowatts(world.topology.total_power_w()):.1f} KW, "
        f"{world.dynamo.total_cap_events()} cap events, "
        f"{len(world.driver.trips)} trips"
    )
    return 1 if world.driver.trips else 0


def _run_ashburn(args: argparse.Namespace) -> int:
    scenario = _ran(args, server_count=args.servers)
    controller = scenario.dynamo.leaf_controller("rpp0")
    print(
        f"PDU peak {to_kilowatts(controller.aggregate_series.max()):.1f} KW, "
        f"{controller.cap_events} cap / {controller.uncap_events} uncap "
        f"events, {len(scenario.driver.trips)} trips"
    )
    return 1 if scenario.driver.trips else 0


def _run_altoona(args: argparse.Namespace) -> int:
    scenario = _named_world("altoona", seed=args.seed)
    scenario.run_until(scenario.end_s)
    sb = scenario.dynamo.controller("sb0")
    capped_rows = [
        n
        for n, leaf in scenario.dynamo.hierarchy.leaf_controllers.items()
        if leaf.cap_events > 0
    ]
    print(
        f"SB peak {to_kilowatts(sb.aggregate_series.max()):.1f} KW / "
        f"{to_kilowatts(sb.device.rated_power_w):.0f} KW, rows capped "
        f"{sorted(capped_rows)}, {len(scenario.driver.trips)} trips"
    )
    return 1 if scenario.driver.trips else 0


def _run_hadoop(args: argparse.Namespace) -> int:
    scenario = _ran(args, server_count=args.servers)
    sb = scenario.dynamo.controller("sb0")
    print(
        f"SB mean {to_kilowatts(sb.aggregate_series.mean()):.1f} / rating "
        f"{to_kilowatts(scenario.extras['sb_rating_w']):.1f} KW, "
        f"{sb.uncap_events} capping episodes, "
        f"{len(scenario.driver.trips)} trips"
    )
    return 1 if scenario.driver.trips else 0


def _run_mixedrow(args: argparse.Namespace) -> int:
    scenario = _named_world("mixedrow", seed=args.seed)
    controller = scenario.dynamo.leaf_controller("rpp0")
    trigger_on = hours(13) + 50 * 60
    scenario.engine.schedule_at(
        trigger_on, lambda: controller.set_contractual_limit_w(95_000.0)
    )
    scenario.engine.schedule_at(
        hours(14) + 120, lambda: controller.clear_contractual_limit()
    )
    scenario.run_until(scenario.end_s)
    capped_cache = sum(
        1 for s in scenario.extras["cache_servers"] if s.rapl.capped
    )
    print(
        f"{controller.cap_events} cap events; cache servers capped: "
        f"{capped_cache} (must be 0); trips {len(scenario.driver.trips)}"
    )
    return 1 if (scenario.driver.trips or capped_cache) else 0


def _run_cascade(args: argparse.Namespace) -> int:
    region = build_region(with_dynamo=not args.no_dynamo, seed=args.seed)
    region.start()
    region.engine.run_until(300.0)
    region.fail_site("dc0")
    region.engine.run_until(1200.0)
    tripped = region.tripped_sites()
    print(
        f"site dc0 failed at t=300 s; cascaded sites: {tripped or 'none'}"
    )
    return 1 if tripped else 0


def _run_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import CHAOS_SCENARIOS, build_scorecard, render_scorecard

    if args.chaos_command == "list":
        for name in sorted(CHAOS_SCENARIOS):
            print(name)
        return 0

    if args.resume is not None:
        return _resume_chaos(args)
    if args.scenario is None:
        print("chaos run: a scenario name or --resume <snapshot> is required")
        return 2
    fingerprints: list[str] = []
    score = None
    for _ in range(1 if args.once else 2):
        world = _named_world(args.scenario, seed=args.seed)
        world.run_until(world.end_s)
        fingerprints.append(world.orchestrator.timeline_fingerprint())
        score = build_scorecard(world)
    assert score is not None
    print(render_scorecard(score))
    deterministic = len(set(fingerprints)) == 1
    if not args.once:
        print(
            "replay determinism: "
            + ("byte-identical timelines" if deterministic else "DIVERGED")
        )
        if not deterministic:
            print("--- run 1 ---", fingerprints[0], sep="\n")
            print("--- run 2 ---", fingerprints[1], sep="\n")
    return 0 if (deterministic and score.breaker_trips == 0) else 1


def _resume_chaos(args: argparse.Namespace) -> int:
    """Continue a seeded chaos campaign from a mid-campaign snapshot."""
    from repro.chaos import build_scorecard, render_scorecard
    from repro.state import SnapshotRegistry, WorldSnapshot

    snapshot = WorldSnapshot.load(args.resume)
    if snapshot.builder != "chaos":
        print(
            f"{args.resume} captures a {snapshot.builder!r} world, not a "
            "chaos campaign; take it with "
            "'snapshot save --scenario <chaos-scenario>'"
        )
        return 2
    world = SnapshotRegistry().restore(snapshot)
    if args.scenario is not None and args.scenario != world.name:
        print(
            f"snapshot captures scenario {world.name!r}, not {args.scenario!r}"
        )
        return 2
    print(
        f"resumed {world.name!r} (seed {world.rng.seed}) "
        f"at t={snapshot.time_s:.1f}s, running to t={world.end_s:.1f}s"
    )
    world.run_until(world.end_s)
    score = build_scorecard(world)
    print(render_scorecard(score))
    return 0 if score.breaker_trips == 0 else 1


def _run_snapshot(args: argparse.Namespace) -> int:
    from repro.state import (
        SnapshotRegistry,
        WorldSnapshot,
        fingerprint,
        run_sweep,
        state_digest,
    )

    registry = SnapshotRegistry()
    if args.snapshot_command == "save":
        world = _named_world(args.scenario, seed=args.seed)
        world.run_until(world.start_s + args.at)
        snapshot = registry.capture(
            world, include_traces=not args.no_traces
        )
        path = snapshot.save(args.out)
        print(
            f"saved {args.scenario!r} world at t={snapshot.time_s:.1f}s "
            f"to {path} ({snapshot.integrity()})"
        )
        return 0
    if args.snapshot_command == "restore":
        snapshot = WorldSnapshot.load(args.path)
        world = registry.restore(snapshot)
        end_s = snapshot.time_s if args.until is None else args.until
        world.run_until(end_s)
        state = registry.capture(world).state
        print(
            f"restored {snapshot.builder!r} world at "
            f"t={snapshot.time_s:.1f}s, ran to t={world.now_s:.1f}s"
        )
        print(f"fingerprint: {fingerprint(state)}")
        return 0
    if args.snapshot_command == "diff":
        left = WorldSnapshot.load(args.a)
        right = WorldSnapshot.load(args.b)
        identical = (
            left.recipe == right.recipe
            and left.integrity() == right.integrity()
        )
        print(f"a: {left.builder!r} t={left.time_s:.1f}s {left.integrity()}")
        print(
            f"b: {right.builder!r} t={right.time_s:.1f}s {right.integrity()}"
        )
        if left.recipe != right.recipe:
            print(f"recipes differ: {left.recipe} vs {right.recipe}")
        for key in sorted(set(left.state) | set(right.state)):
            a_digest = (
                state_digest(left.state[key]) if key in left.state else "absent"
            )
            b_digest = (
                state_digest(right.state[key])
                if key in right.state
                else "absent"
            )
            marker = "  " if a_digest == b_digest else "* "
            print(f"{marker}{key}: {'identical' if a_digest == b_digest else 'differs'}")
        print("snapshots identical" if identical else "snapshots differ")
        return 0 if identical else 1
    if args.snapshot_command == "sweep":
        results = run_sweep(
            args.path,
            branches=args.branches,
            horizon_s=args.horizon,
            workers=args.workers,
        )
        print(
            f"{'branch':>6} {'peak_kw':>8} {'caps':>5} {'uncaps':>6} "
            f"{'trips':>5}  fingerprint"
        )
        for result in results:
            print(
                f"{result.branch:>6} "
                f"{to_kilowatts(result.peak_power_w):>8.1f} "
                f"{result.cap_events:>5} {result.uncap_events:>6} "
                f"{result.trips:>5}  {result.fingerprint}"
            )
        if args.json is not None:
            import json as json_module
            from pathlib import Path

            payload = [result.to_dict() for result in results]
            Path(args.json).write_text(
                json_module.dumps(payload, indent=1), encoding="utf-8"
            )
            print(f"wrote {args.json}")
        return 1 if any(result.trips for result in results) else 0
    raise AssertionError(f"unknown snapshot command {args.snapshot_command!r}")


def _run_trace(args: argparse.Namespace) -> int:
    dynamo = _ran(args).dynamo
    traces = dynamo.traces.for_controller(args.device, args.last)
    if not traces:
        known = ", ".join(dynamo.traces.controllers()) or "none"
        print(
            f"no traces recorded for {args.device!r}; "
            f"traced controllers: {known}"
        )
        return 1
    for trace in traces:
        print(trace.render())
    print()
    for metric, value in dynamo.traces.metrics(args.device).rows():
        print(f"{metric}: {value}")
    return 0


def _rss_mb() -> float:
    """Resident set size now (Linux), else the peak so far."""
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Kilobytes everywhere but macOS, which reports bytes.
        return peak / (2**20 if sys.platform == "darwin" else 2**10)


class _SetupTable:
    """What each set-up phase of a world cost.

    One row per phase: wall seconds, tracked objects created,
    collections run per generation, and the resident set when the phase
    finished — the footprint of standing a world up, attributed the way
    the tick table attributes a cycle.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, int, list[int], float]] = []
        self._arm()

    def _arm(self) -> None:
        self._objects = len(gc.get_objects())
        self._collections = [g["collections"] for g in gc.get_stats()]
        self._t0 = time.perf_counter()

    def phase_done(self, phase: str) -> None:
        """Close the row for ``phase`` and start timing the next."""
        wall_s = time.perf_counter() - self._t0
        rss_mb = _rss_mb()
        collections = [g["collections"] for g in gc.get_stats()]
        self.rows.append(
            (
                phase,
                wall_s,
                len(gc.get_objects()) - self._objects,
                [b - a for a, b in zip(self._collections, collections)],
                rss_mb,
            )
        )
        self._arm()

    def render(self, servers: int) -> str:
        """The table, one line per phase plus a total."""
        lines = [
            f"set-up ({servers} servers):",
            f"{'phase':<17} {'wall_s':>8} {'objects':>9} "
            f"{'gen0':>5} {'gen1':>5} {'gen2':>5} {'rss_mb':>8}",
        ]
        for phase, wall_s, objects, (g0, g1, g2), rss_mb in self.rows:
            lines.append(
                f"{phase:<17} {wall_s:>8.3f} {objects:>9d} "
                f"{g0:>5d} {g1:>5d} {g2:>5d} {rss_mb:>8.1f}"
            )
        lines.append(
            f"{'total':<17} {sum(row[1] for row in self.rows):>8.3f} "
            f"{sum(row[2] for row in self.rows):>9d}"
        )
        return "\n".join(lines)


def _run_profile(args: argparse.Namespace) -> int:
    """Profile one scenario: per-phase wall-time + cProfile hot spots.

    With ``--servers`` a set-up table comes first (:class:`_SetupTable`:
    topology, populate, Dynamo, stepper bind, agent-batch bind and the
    first control cycle, which runs before the profiler is switched
    on).  The tick table then splits the run's wall-clock between the
    two halves of the per-step physics barrier — the fleet physics step
    (``FleetDriver.physics_wall_s``) and the breaker observation
    (``FleetDriver.breakers_wall_s``) — and the four control stages,
    summed over every tick of the run (``TraceBuffer.stage_wall_s``,
    not just the ticks the trace ring still holds); everything else
    (event dispatch, RPC fabric, telemetry) lands in ``other``.
    """
    import cProfile
    import io
    import pstats

    from repro.state.worlds import build_sized_world

    setup: _SetupTable | None = None
    if args.servers is not None:
        if args.scenario != "quickstart":
            print("profile: --servers applies to the quickstart scenario only")
            return 1
        setup = _SetupTable()
        world = build_sized_world(
            servers=args.servers,
            seed=args.seed,
            on_phase=setup.phase_done,
        )
    else:
        world = _named_world(args.scenario, seed=args.seed)
    end_s = _horizon_s(world, args.duration_h)
    t0 = time.perf_counter()
    if setup is not None:
        leaf_period_s = world.dynamo.config.controller.leaf_pull_interval_s
        world.run_until(min(end_s, leaf_period_s))
        setup.phase_done("first cycle")
        print(setup.render(args.servers))
        print()
    profiler = cProfile.Profile()
    profiler.enable()
    world.run_until(end_s)
    profiler.disable()
    wall_s = time.perf_counter() - t0
    print(
        f"profiled {args.scenario!r} to t={world.now_s:.1f}s: "
        f"wall {wall_s:.3f} s"
    )
    print()
    phases = [
        ("physics", world.driver.physics_wall_s),
        ("breakers", world.driver.breakers_wall_s),
        *world.dynamo.traces.stage_wall_s.items(),
    ]
    phases.append(("other", max(wall_s - sum(w for _, w in phases), 0.0)))
    print(f"{'phase':<10} {'wall_s':>8} {'share':>7}")
    for name, phase_wall in phases:
        share = 100.0 * phase_wall / wall_s if wall_s > 0 else 0.0
        print(f"{name:<10} {phase_wall:>8.3f} {share:>6.1f}%")
    print()
    _print_fallback_report(world)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"top {args.top} functions by cumulative time:")
    print(stream.getvalue().rstrip())
    return 0


def _print_fallback_report(world) -> None:
    """Per-tick scalar-fallback counts for both vectorized lanes.

    Physics: servers stepped individually because a chaos fault knocked
    them off the packed arrays.  Control: endpoint calls served on the
    scalar lane inside a batched broadcast, plus whole-group fallbacks
    (global fault rates armed).  Silent before the first step.
    """
    stepper = world.driver.stepper
    transport = world.dynamo.transport
    lines = []
    if stepper is not None and getattr(stepper, "step_count", 0):
        per_tick = stepper.fallback_server_steps / stepper.step_count
        lines.append(
            f"physics    {stepper.fallback_server_steps:>8d} fallback "
            f"server-steps over {stepper.step_count} ticks "
            f"({per_tick:.2f}/tick)"
        )
    if transport.group_rounds:
        fast = transport.group_fast_endpoint_calls
        slow = transport.group_fallback_endpoint_calls
        rounds = transport.group_rounds
        lines.append(
            f"control    {slow:>8d} scalar-lane endpoint calls over "
            f"{rounds} group rounds ({slow / rounds:.2f}/round, "
            f"{fast} fast), {transport.group_full_fallbacks} full "
            "group fallbacks"
        )
    if lines:
        print("scalar fallbacks by lane:")
        for line in lines:
            print(f"  {line}")
        print()


def _run_health(args: argparse.Namespace) -> int:
    from repro.core.agent import agent_endpoint
    from repro.core.failover import FailoverController
    from repro.core.remote import controller_endpoint
    from repro.errors import ConfigurationError

    dynamo = _ran(args).dynamo
    try:
        controller = dynamo.controller(args.device)
    except ConfigurationError:
        known = ", ".join(
            sorted(c.name for c in dynamo.hierarchy.all_controllers)
        )
        print(f"no controller for {args.device!r}; known: {known}")
        return 1
    instance = (
        controller.active
        if isinstance(controller, FailoverController)
        else controller
    )
    machine = getattr(instance, "modes", None)
    now_s = dynamo.engine.clock.now
    mode = machine.mode.value if machine is not None else "n/a"
    print(f"{args.device}: mode={mode}")
    if machine is not None:
        print(
            f"invalid streak={machine.consecutive_invalid} "
            f"valid streak={machine.consecutive_valid} "
            f"degraded entries={machine.degraded_entries} "
            f"safe entries={machine.safe_entries} "
            f"deferred uncaps={machine.deferred_uncaps}"
        )
        for time_s, from_mode, to_mode in machine.transitions:
            print(f"  t={time_s:.1f}s {from_mode} -> {to_mode}")
    last_trace = getattr(instance, "last_trace", None)
    if last_trace is not None and last_trace.pulls_attempted:
        measured = last_trace.pulls_attempted - last_trace.pulls_failed
        print(
            f"sensing coverage={last_trace.coverage_fraction:.0%} "
            f"(last cycle: {measured}/{last_trace.pulls_attempted} measured, "
            f"{last_trace.pulls_estimated} estimated, "
            f"{last_trace.disaggregated} disaggregated)"
        )
    if hasattr(instance, "server_ids"):
        endpoints = [agent_endpoint(s) for s in instance.server_ids]
    else:
        endpoints = [
            controller_endpoint(child.name)
            for child in getattr(instance, "children", [])
        ]
    quarantined = dynamo.health.quarantined_endpoints(now_s)
    print(
        f"endpoint health ({len(endpoints)} endpoints, "
        f"{len(quarantined)} quarantined):"
    )
    records = dynamo.endpoint_health()
    for endpoint in sorted(endpoints):
        stats = records.get(endpoint)
        line = (
            stats.render(now_s)
            if stats is not None
            else f"{endpoint} no calls recorded"
        )
        if dynamo.resilient_transport is not None:
            line += f" breaker={dynamo.resilient_transport.breaker_state(endpoint)}"
        print(f"  {line}")
    governor = dynamo.economics
    if governor is not None:
        summary = governor.ledger.summary()
        print(
            f"economics: score={governor.last_score:.2f} "
            f"deferring={'yes' if governor.deferring else 'no'} "
            f"cost=${summary['cost']:.2f} "
            f"carbon={summary['carbon_kg']:.1f} kgCO2 "
            f"deferred={summary['deferred_energy_kwh']:.2f} kWh "
            f"sla_misses={summary['sla_deadline_misses']}"
        )
    return 0


def _run_attribute(args: argparse.Namespace) -> int:
    """Per-service power attribution for one leaf device.

    Runs the chosen scenario, then renders where the device's power is
    going by service — measured and disaggregated readings alike, each
    weighted by its confidence — from the leaf controller's
    reading cache and fitted service models.
    """
    from repro.core.failover import FailoverController
    from repro.errors import ConfigurationError
    from repro.estimation import attribute_leaf, render_attribution

    dynamo = _ran(args).dynamo
    leaves = ", ".join(sorted(dynamo.hierarchy.leaf_controllers))
    try:
        controller = dynamo.controller(args.device)
    except ConfigurationError:
        print(f"no controller for {args.device!r}; leaf devices: {leaves}")
        return 1
    instance = (
        controller.active
        if isinstance(controller, FailoverController)
        else controller
    )
    if not hasattr(instance, "server_ids"):
        print(
            f"{args.device!r} is not a leaf device (attribution needs "
            f"per-server readings); leaf devices: {leaves}"
        )
        return 1
    print(render_attribution(args.device, attribute_leaf(instance)))
    return 0


def _run_econ(args: argparse.Namespace) -> int:
    """Run an economics scenario and render its cost/carbon scorecard.

    ``--compare`` runs the governed day and the price-blind day on the
    same seed and renders them side by side, plus the savings delta;
    the exit code then also requires the governed run to introduce no
    extra breaker trips or SLA-deadline misses.
    """
    from repro.economics import (
        build_econ_scorecard,
        render_econ_scorecard,
        run_econ_day,
    )

    duration_s = None if args.hours is None else hours(args.hours)
    modes = [not args.blind]
    if args.compare:
        modes = [True, False]
    scores = []
    for governed in modes:
        world = run_econ_day(
            args.scenario,
            seed=args.seed,
            governed=governed,
            duration_s=duration_s,
        )
        scores.append(build_econ_scorecard(world))
    print(render_econ_scorecard(*scores))
    failed = any(s.breaker_trips for s in scores)
    if args.compare:
        governed_score, blind = scores
        print(
            f"delta (governed - blind): "
            f"${governed_score.cost - blind.cost:+.2f}, "
            f"{governed_score.carbon_kg - blind.carbon_kg:+.1f} kgCO2, "
            f"{governed_score.energy_kwh - blind.energy_kwh:+.1f} kWh"
        )
        safety_ok = (
            governed_score.breaker_trips <= blind.breaker_trips
            and governed_score.sla_deadline_misses
            <= blind.sla_deadline_misses
        )
        print(
            "safety: "
            + (
                "no additional trips or SLA-deadline misses"
                if safety_ok
                else "GOVERNED RUN ADDED TRIPS OR SLA MISSES"
            )
        )
        failed = failed or not safety_ok
    return 1 if failed else 0


def _run_signals(args: argparse.Namespace) -> int:
    """Summarize a named price/carbon series for scenario authoring."""
    from repro.economics.signals import (
        SIGNALS,
        get_signal,
        render_signal_summary,
        summarize_signal,
    )

    if args.name == "list":
        for name in sorted(SIGNALS):
            signal = SIGNALS[name]
            low, high = signal.bounds()
            print(f"{name}: {low:g}..{high:g} {signal.unit}")
        return 0
    signal = get_signal(args.name)
    summary = summarize_signal(
        signal,
        duration_s=hours(args.duration_h),
        interval_s=args.interval_s,
        window_s=hours(args.window_h),
    )
    print(render_signal_summary(summary))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Host the long-running session service until interrupted."""
    from repro.serve import ServeApp, ServeServer
    from repro.serve.sessions import SessionManager

    app = ServeApp(SessionManager(max_sessions=args.max_sessions))
    server = ServeServer(app, host=args.host, port=args.port)
    print(
        f"serving on http://{args.host}:{args.port} "
        f"(max {args.max_sessions} sessions); Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except OSError as exc:
        print(f"serve: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    return 0


#: ``repro run`` reports; every other table world gets :func:`_run_named`.
_RUNNERS = {
    "quickstart": _run_quickstart,
    "ashburn": _run_ashburn,
    "altoona": _run_altoona,
    "hadoop": _run_hadoop,
    "mixedrow": _run_mixedrow,
    "cascade": _run_cascade,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamo (ISCA 2016) reproduction scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    worlds = world_names()
    sub.add_parser("list", help="list available scenarios")
    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario", choices=[*worlds, "cascade"])
    run.add_argument(
        "--servers", type=int, default=150, help="fleet size (ashburn, hadoop)"
    )
    run.add_argument("--duration-h", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--no-dynamo",
        action="store_true",
        help="cascade scenario only: run without Dynamo",
    )
    chaos = sub.add_parser("chaos", help="fault-injection scenarios")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_sub.add_parser("list", help="list chaos scenarios")
    chaos_run = chaos_sub.add_parser(
        "run", help="run a chaos scenario twice and score it"
    )
    from repro.chaos.scenarios import CHAOS_SCENARIOS

    chaos_run.add_argument(
        "scenario",
        nargs="?",
        default=None,
        choices=sorted(CHAOS_SCENARIOS),
        help="scenario to run (optional with --resume)",
    )
    chaos_run.add_argument("--seed", type=int, default=7)
    chaos_run.add_argument(
        "--once",
        action="store_true",
        help="single run, skipping the replay-determinism check",
    )
    chaos_run.add_argument(
        "--resume",
        metavar="SNAPSHOT",
        default=None,
        help="continue a campaign from a mid-campaign snapshot file",
    )
    snapshot = sub.add_parser(
        "snapshot", help="world checkpoint/restore and fork sweeps"
    )
    snapshot_sub = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    snap_save = snapshot_sub.add_parser(
        "save", help="run a world to a point in time and checkpoint it"
    )
    snap_save.add_argument(
        "--scenario", default="quickstart", choices=worlds
    )
    snap_save.add_argument("--seed", type=int, default=0)
    snap_save.add_argument(
        "--at",
        type=float,
        default=60.0,
        help="capture time (sim seconds after the world's start)",
    )
    snap_save.add_argument("--out", required=True, help="snapshot file path")
    snap_save.add_argument(
        "--no-traces",
        action="store_true",
        help="drop per-tick traces for a smaller file (fingerprints of "
        "resumed runs then differ in the trace section)",
    )
    snap_restore = snapshot_sub.add_parser(
        "restore", help="restore a snapshot, optionally run further"
    )
    snap_restore.add_argument("path")
    snap_restore.add_argument(
        "--until",
        type=float,
        default=None,
        help="run to this absolute sim time after restoring",
    )
    snap_diff = snapshot_sub.add_parser(
        "diff", help="compare two snapshots section by section"
    )
    snap_diff.add_argument("a")
    snap_diff.add_argument("b")
    snap_sweep = snapshot_sub.add_parser(
        "sweep", help="fork a snapshot into divergent branches and run them"
    )
    snap_sweep.add_argument("path")
    snap_sweep.add_argument("--branches", type=int, default=8)
    snap_sweep.add_argument(
        "--horizon", type=float, default=300.0, help="sim seconds per branch"
    )
    snap_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (0 or 1 = serial)",
    )
    snap_sweep.add_argument(
        "--json", default=None, help="also write results to this JSON file"
    )
    from repro.economics.scenarios import ECON_SCENARIOS
    from repro.economics.signals import SIGNALS

    trace = sub.add_parser(
        "trace", help="per-tick control-cycle traces for one controller"
    )
    trace.add_argument("device", help="controller/device name, e.g. rpp0.0")
    trace.add_argument(
        "--scenario",
        default="quickstart",
        choices=worlds,
        help="scenario to run before dumping traces",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--duration-h", type=float, default=0.25)
    trace.add_argument(
        "--last", type=int, default=20, help="show the most recent N ticks"
    )
    profile = sub.add_parser(
        "profile",
        help="per-phase wall-time breakdown and cProfile hot spots",
    )
    profile.add_argument(
        "scenario",
        nargs="?",
        default="quickstart",
        choices=worlds,
        help="scenario to profile (default: quickstart)",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--duration-h",
        type=float,
        default=0.25,
        help="simulated hours past the world's start (a chaos drill "
        "runs its whole schedule)",
    )
    profile.add_argument(
        "--servers",
        type=int,
        default=None,
        metavar="N",
        help="quickstart scenario only: profile a parametric-size "
        "world with N servers instead of the 36-server quickstart",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=15,
        help="cProfile rows to print (cumulative-time order)",
    )
    health = sub.add_parser(
        "health",
        help="operating mode and endpoint health for one controller",
    )
    health.add_argument("device", help="controller/device name, e.g. rpp0.0")
    health.add_argument(
        "--scenario",
        default="quickstart",
        choices=worlds,
        help="scenario to run before reporting health",
    )
    health.add_argument("--seed", type=int, default=0)
    health.add_argument("--duration-h", type=float, default=0.25)
    attribute = sub.add_parser(
        "attribute",
        help="per-service power attribution for one leaf device",
    )
    attribute.add_argument(
        "device", help="leaf controller/device name, e.g. rpp0"
    )
    attribute.add_argument(
        "--scenario",
        default="sensor-blackout-50",
        choices=worlds,
        help="scenario to run before attributing power",
    )
    attribute.add_argument("--seed", type=int, default=7)
    attribute.add_argument("--duration-h", type=float, default=0.25)
    econ = sub.add_parser(
        "econ",
        help="run an economics scenario and print its cost/carbon "
        "scorecard",
    )
    econ.add_argument(
        "scenario",
        nargs="?",
        default="price-spike-day",
        choices=sorted(ECON_SCENARIOS),
        help="economics scenario (default: price-spike-day)",
    )
    econ.add_argument("--seed", type=int, default=0)
    econ.add_argument(
        "--hours",
        type=float,
        default=None,
        help="simulated hours (default: the scenario's full day)",
    )
    econ.add_argument(
        "--blind",
        action="store_true",
        help="run the price-blind baseline (metering-only governor)",
    )
    econ.add_argument(
        "--compare",
        action="store_true",
        help="run governed and price-blind on the same seed and render "
        "both columns plus the savings delta",
    )
    signals = sub.add_parser(
        "signals",
        help="summarize a price/carbon series (or 'list' to enumerate)",
    )
    signals.add_argument(
        "name",
        choices=["list", *sorted(SIGNALS)],
        help="signal name, or 'list' to enumerate the registry",
    )
    signals.add_argument(
        "--duration-h",
        type=float,
        default=24.0,
        help="summary horizon in simulated hours",
    )
    signals.add_argument(
        "--interval-s",
        type=float,
        default=300.0,
        help="sampling interval in seconds",
    )
    signals.add_argument(
        "--window-h",
        type=float,
        default=1.0,
        help="rolling window for cheapest/dirtiest-window detection",
    )
    serve = sub.add_parser(
        "serve", help="host live simulation sessions over HTTP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8640)
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="concurrent session cap (create returns 409 beyond it)",
    )
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name in [*world_names(), "cascade"]:
            print(name)
        return 0
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "snapshot":
        return _run_snapshot(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "health":
        return _run_health(args)
    if args.command == "attribute":
        return _run_attribute(args)
    if args.command == "econ":
        return _run_econ(args)
    if args.command == "signals":
        return _run_signals(args)
    if args.command == "serve":
        return _run_serve(args)
    return _RUNNERS.get(args.scenario, _run_named)(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Operational failures exit nonzero with a one-line message on
    stderr instead of a traceback: snapshot-file problems (missing,
    corrupted, wrong schema version) exit 2, any other library error
    exits 1.  Tracebacks still surface for genuine bugs
    (non-:class:`~repro.errors.ReproError` exceptions).
    """
    from repro.errors import (
        ReproError,
        SnapshotError,
        SnapshotIntegrityError,
        SnapshotVersionError,
    )

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FileNotFoundError as exc:
        print(f"repro: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except SnapshotVersionError as exc:
        print(
            f"repro: incompatible snapshot: {exc}\n"
            "repro: re-capture it with 'repro snapshot save' from this "
            "version of the code",
            file=sys.stderr,
        )
        return 2
    except SnapshotIntegrityError as exc:
        print(
            f"repro: corrupted snapshot: {exc}\n"
            "repro: the file was truncated or edited after capture; "
            "re-capture or restore from a good copy",
            file=sys.stderr,
        )
        return 2
    except SnapshotError as exc:
        print(f"repro: snapshot error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
