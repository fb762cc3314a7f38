"""Tests of the benchmark harness itself (``pytest benchmarks/perf``).

Not part of the tier-1 suite: they check the measuring instrument —
span arithmetic, the percentile rule, shim removal, ``compare`` — and
run every workload once at toy size.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace

import pytest

from benchmarks.perf import tracer as tracer_module
from benchmarks.perf.cli import compare_metric
from benchmarks.perf.spec import ROOT, Metric, load_declaration
from benchmarks.perf.stats import percentile, summarize, tail_percentile
from benchmarks.perf.tracer import Tracer, span_self_ns

DECLARED = load_declaration()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


class _Layered:
    """outer -> (middle -> leaf, leaf), with a clock tick per call edge."""

    def outer(self):
        self.middle()
        self.leaf()

    def middle(self):
        self.leaf()

    def leaf(self):
        pass


@pytest.fixture
def fake_clock(monkeypatch):
    """``perf_counter_ns`` that advances 10 ns per reading."""
    ticks = itertools.count(0, 10)
    monkeypatch.setattr(tracer_module, "perf_counter_ns", lambda: next(ticks))


def test_self_time_is_duration_minus_children(fake_clock):
    obj = _Layered()
    tracer = Tracer()
    tracer.span(obj, "outer", "outer")
    tracer.span(obj, "middle", "middle")
    tracer.accumulate(obj, "leaf", "leaf")
    tracer.cycle = 7
    obj.outer()
    tracer.uninstall()

    # Clock readings: outer 0, middle 10, leaf 20-30, middle 40,
    # leaf 50-60, outer 70.
    assert tracer.self_ns == {"outer": 70 - 30 - 10, "middle": 30 - 10, "leaf": 20}
    assert tracer.calls == {"outer": 1, "middle": 1, "leaf": 2}
    assert sum(tracer.self_ns.values()) == 70  # tiles the root span
    assert tracer.spans == [("outer", 0, 70, -1, 7), ("middle", 10, 40, 0, 7)]
    # The offline computation agrees for spans (the accumulator's time
    # stays inside its parent span there, by construction).
    assert span_self_ns(tracer.spans, lambda cycle: cycle == 7) == {
        "outer": 40,
        "middle": 30,
    }
    assert span_self_ns(tracer.spans, lambda cycle: False) == {}


def test_uninstall_restores_instances_classes_and_hooks(fake_clock):
    obj = _Layered()
    original_leaf = _Layered.__dict__["leaf"]
    seen = []
    tracer = Tracer()
    tracer.span(obj, "outer", "outer", lambda args, result, ns: seen.append(ns))
    tracer.span(_Layered, "leaf", "leaf")
    obj.outer()
    assert "outer" in vars(obj) and tracer.count("leaf") == 2 and seen
    tracer.uninstall()
    assert "outer" not in vars(obj)
    assert _Layered.__dict__["leaf"] is original_leaf


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(20, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(1, n + 1)]
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
        assert "tail" not in summarize(values)
    else:
        pct, value = tail
        assert pct == expected
        assert sum(1 for v in values if v > value) >= 10
        assert summarize(values)["n"] == n


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 90.0) == 4.0
    assert percentile([5.0], 99.0) == 5.0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_compare_statuses():
    lower = Metric("x_ms", "ms", "lower", 0.10)
    higher = Metric("x_per_s", "1/s", "higher", 0.10)
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare_metric(lower, steady, [104.0, 105.0, 103.0, 104.5])[0] == "ok"
    assert compare_metric(lower, steady, [114.0, 115.0, 113.0, 116.0])[0] == "worse"
    assert compare_metric(higher, steady, [85.0, 86.0, 84.0, 85.5])[0] == "worse"
    assert compare_metric(higher, steady, [114.0, 115.0, 113.0, 116.0])[0] == "ok"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare_metric(lower, noisy, noisy)[0] == "unresolved"
    # ...unless every run of B beats every run of A.
    assert compare_metric(lower, noisy, [50.0, 60.0, 70.0, 79.0])[0] == "ok"
    # failed_frac: bound 0, baseline 0 — any failure is worse.
    failed = Metric("failed_frac", "frac", "lower", 0.0)
    assert compare_metric(failed, [0.0, 0.0], [0.0, 0.0])[0] == "ok"
    assert compare_metric(failed, [0.0, 0.0], [0.01, 0.01])[0] == "worse"


# ----------------------------------------------------------------------
# The declaration
# ----------------------------------------------------------------------


def test_benchmark_json_meets_the_contract_limits():
    raw = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(raw) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert raw["paths"] == ["benchmarks/perf"]
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in raw["workloads"])
    names = [m["name"] for m in raw["end_to_end"] + raw["per_layer"]]
    names += [w["name"] for w in raw["workloads"]]
    assert len(names) == len(set(names))
    setup = next(m for m in raw["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in raw["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in raw["per_layer"])


# ----------------------------------------------------------------------
# Every workload at toy size
# ----------------------------------------------------------------------


def _toy_fleet_workloads():
    from benchmarks.perf.fleet import FLEET_WORKLOADS, build_rows_world
    from repro.units import kilowatts

    def rows(**kwargs):
        return lambda seed: build_rows_world(
            seed, msb_count=1, rpps_per_sb=1, racks_per_rpp=5, **kwargs
        )

    toy = {"warmup_cycles": 2, "setup_repeats": 2, "min_cycles": 5}
    return [
        replace(FLEET_WORKLOADS["steady10k"], build=rows(), **toy),
        # 210 servers a row drawing ~34 kW against a 33 kW rating: caps
        # from the first cycle, long before the breaker's thermal trip.
        replace(
            FLEET_WORKLOADS["capping100k"],
            build=rows(rpp_rating_w=kilowatts(33)),
            **toy,
        ),
        replace(
            FLEET_WORKLOADS["fig12_outage"],
            warmup_cycles=2,
            min_cycles=5,
            end_cycle=7,
        ),
    ]


@pytest.fixture(scope="module")
def toy_passes():
    """Both passes of every workload, at <= 500 servers and 5 cycles."""
    from benchmarks.perf import fleet
    from benchmarks.perf.serve_ops import run_serve_pass

    built = []
    passes = {}
    for workload in _toy_fleet_workloads():
        build = workload.build

        def keep(seed, build=build):
            built.append(build(seed))
            return built[-1]

        workload = replace(workload, build=keep)
        passes[workload.name] = [
            fleet.run_fleet_pass(workload, seed=1, seconds=0.0, trace=trace)
            for trace in (False, True)
        ]
    passes["serve_ops"] = [
        run_serve_pass(
            1, 0.0, trace, warmup_iterations=2, snapshot_every=2, setup_repeats=1
        )
        for trace in (False, True)
    ]
    return passes, built


def test_toy_workloads_report_every_declared_metric(toy_passes):
    passes, _ = toy_passes
    assert set(passes) == set(DECLARED.workloads)
    end_to_end = {m.name for m in DECLARED.end_to_end}
    per_layer = {m.name for m in DECLARED.per_layer}
    reported_layers = set()
    for name, (untraced, traced) in passes.items():
        assert end_to_end <= set(untraced.metrics), name
        assert all(untraced.metrics[m] > 0 for m in end_to_end), name
        assert set(traced.metrics) <= per_layer, name
        reported_layers |= set(traced.metrics)
        assert untraced.attempted >= 1 and untraced.failed == 0, name
    # Fleet and serve passes between them cover the whole declaration.
    assert reported_layers == per_layer


def test_toy_fleet_passes_agree_and_tile_the_cycle(toy_passes):
    passes, _ = toy_passes
    for name in ("steady10k", "capping100k", "fig12_outage"):
        untraced, traced = passes[name]
        assert untraced.detail["cycles"] == traced.detail["cycles"] == 5
        assert untraced.detail["servers"] <= 500
        assert untraced.detail["checkpoint"] == traced.detail["checkpoint"]
        assert untraced.checks["no_trips"] and untraced.checks["setup_deterministic"]
        unattributed = traced.metrics["trace.unattributed_ms"]
        assert 0 <= unattributed < 0.15 * traced.metrics["driver.cycle_ms_p50"]
    assert passes["steady10k"][0].correct
    capping = passes["capping100k"][1]
    assert capping.metrics["core.leaf.cap_ticks"] > 0
    assert capping.metrics["core.capping_plan.build_ms"] > 0
    assert capping.metrics["rpc.group_set_cap_ms"] > 0
    assert passes["fig12_outage"][1].metrics["rpc.call_count"] > 0


def test_toy_serve_pass_checks_hold(toy_passes):
    passes, _ = toy_passes
    for result in passes["serve_ops"]:
        assert result.correct, result.checks
        assert max(result.detail["iterations"]) <= 5
    traced = passes["serve_ops"][1]
    assert traced.metrics["state.capture_ms"] > 0
    assert traced.metrics["state.restore_ms"] > 0
    assert traced.metrics["serve.requests"] > 0


def test_traced_pass_leaves_no_shims_behind(toy_passes):
    from repro.core import leaf_controller
    from repro.core.capping_plan import build_capping_plan

    _, built = toy_passes
    assert built
    for scenario in built:
        dynamo = scenario.dynamo
        owners = [
            scenario.engine,
            scenario.topology,
            scenario.driver.stepper,
            dynamo.controller_transport,
            dynamo.agent_batch,
            dynamo.traces,
            *dynamo.hierarchy.all_controllers,
            *list(scenario.fleet.servers.values())[:5],
        ]
        for owner in owners:
            if owner is not None:
                # A shim is an instance attribute shadowing a method.
                shimmed = [
                    k
                    for k in vars(owner)
                    if callable(getattr(type(owner), k, None))
                ]
                assert not shimmed, (owner, shimmed)
    assert leaf_controller.build_capping_plan is build_capping_plan
    assert (
        leaf_controller.BatchedSense.readings.__qualname__
        == "BatchedSense.readings"
    )
