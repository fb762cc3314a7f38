"""Tests for the per-tick control-cycle traces (TickTrace / TraceBuffer)."""

import numpy as np
import pytest

from repro.config import ThreeBandConfig
from repro.core.agent import DynamoAgent
from repro.core.controller import BaseController, PowerController
from repro.core.failover import FailoverController
from repro.core.leaf_controller import LeafPowerController
from repro.core.three_band import BandAction
from repro.core.upper_controller import UpperLevelPowerController
from repro.errors import ConfigurationError
from repro.power.device import DeviceLevel, PowerDevice
from repro.rpc.transport import RpcTransport
from repro.server.platform import HASWELL_2015
from repro.server.server import ConstantWorkload, Server
from repro.telemetry.tracing import TickTrace, TraceBuffer, TraceBuilder

from tests.conftest import settle_server


def make_leaf(n=6, utilization=0.6, rating_w=None, tracer=None):
    """A leaf device with N constant-load servers and a controller."""
    transport = RpcTransport(np.random.default_rng(0))
    servers = []
    for i in range(n):
        server = Server(
            f"s{i}", HASWELL_2015, ConstantWorkload(utilization, service="web")
        )
        settle_server(server)
        servers.append(server)
        DynamoAgent(server, transport)
    total = sum(s.power_w() for s in servers)
    device = PowerDevice(
        "rpp0", DeviceLevel.RPP, rating_w if rating_w else total * 1.5
    )
    for server in servers:
        device.attach_load(server.server_id, server.power_w)
    controller = LeafPowerController(
        device, [s.server_id for s in servers], transport, tracer=tracer
    )
    return controller, servers, transport


class TestLeafTickTrace:
    def test_valid_tick_populates_trace(self):
        tracer = TraceBuffer()
        controller, servers, _ = make_leaf(tracer=tracer)
        controller.tick(3.0)
        trace = controller.last_trace
        assert trace is not None
        assert trace.time_s == 3.0
        assert trace.controller == "rpp0"
        assert trace.kind == "leaf"
        assert trace.valid
        assert trace.action == BandAction.HOLD.value
        assert trace.pulls_attempted == len(servers)
        assert trace.pulls_failed == 0
        assert trace.pulls_estimated == 0
        assert trace.aggregate_w == pytest.approx(
            controller.last_aggregate_power_w
        )
        assert trace.effective_limit_w == pytest.approx(
            controller.device.rated_power_w
        )
        # Band thresholds are ordered cap_at > target > uncap_at.
        assert trace.cap_at_w > trace.target_w > trace.uncap_at_w
        assert trace.capped_after == 0

    def test_cap_tick_records_cut_and_actuations(self):
        tracer = TraceBuffer()
        controller, servers, _ = make_leaf(tracer=tracer)
        total = sum(s.power_w() for s in servers)
        # Squeeze so hard a cap is guaranteed.
        controller.set_contractual_limit_w(total * 0.9)
        action = controller.tick(3.0)
        assert action is BandAction.CAP
        trace = controller.last_trace
        assert trace.action == "cap"
        assert trace.cut_requested_w > 0.0
        assert trace.cut_allocated_w > 0.0
        assert trace.actuation_successes > 0
        assert trace.actuation_failures == 0
        assert trace.capped_after == trace.actuation_successes

    def test_invalid_tick_traced_as_invalid(self):
        tracer = TraceBuffer()
        controller, servers, transport = make_leaf(tracer=tracer)
        for server in servers:
            transport.injector.take_down(f"agent:{server.server_id}")
        action = controller.tick(3.0)
        assert action is BandAction.HOLD
        trace = controller.last_trace
        assert not trace.valid
        assert trace.aggregate_w is None
        assert controller.invalid_cycles == 1

    def test_estimated_pulls_counted(self):
        tracer = TraceBuffer()
        controller, servers, transport = make_leaf(n=10, tracer=tracer)
        controller.tick(0.0)  # prime last readings
        transport.injector.take_down("agent:s0")
        controller.tick(3.0)
        trace = controller.last_trace
        assert trace.pulls_failed == 1
        assert trace.pulls_estimated == 1
        assert trace.valid

    def test_render_is_stable_across_identical_runs(self):
        lines = []
        for _ in range(2):
            tracer = TraceBuffer()
            controller, _, _ = make_leaf(tracer=tracer)
            controller.tick(3.0)
            controller.tick(6.0)
            lines.append("\n".join(t.render() for t in tracer.latest()))
        assert lines[0] == lines[1]


class FakeChild:
    def __init__(self, name, rating_w, quota_w, power_w=None):
        self.device = PowerDevice(name + "-dev", DeviceLevel.RPP, rating_w)
        self.device.power_quota_w = quota_w
        self.name = name
        self.last_aggregate_power_w = power_w
        self.contractual = None

    def set_contractual_limit_w(self, limit_w):
        self.contractual = limit_w

    def clear_contractual_limit(self):
        self.contractual = None


class TestUpperTickTrace:
    def test_upper_tick_traced(self):
        tracer = TraceBuffer()
        children = [
            FakeChild("c1", 200_000.0, 150_000.0, power_w=190_000.0),
            FakeChild("c2", 200_000.0, 150_000.0, power_w=130_000.0),
        ]
        device = PowerDevice("sb0", DeviceLevel.SB, 300_000.0)
        upper = UpperLevelPowerController(device, children, tracer=tracer)
        action = upper.tick(9.0)
        assert action is BandAction.CAP
        trace = upper.last_trace
        assert trace.kind == "upper"
        assert trace.pulls_attempted == 2
        assert trace.cut_requested_w == pytest.approx(35_000.0)
        assert trace.cut_allocated_w == pytest.approx(35_000.0)
        assert trace.actuation_successes == 1  # one child limited
        assert trace.capped_after == 1

    def test_all_children_dark_is_invalid_tick(self):
        tracer = TraceBuffer()
        children = [FakeChild("c1", 200_000.0, 150_000.0, power_w=None)]
        device = PowerDevice("sb0", DeviceLevel.SB, 300_000.0)
        upper = UpperLevelPowerController(device, children, tracer=tracer)
        upper.tick(9.0)
        trace = upper.last_trace
        assert not trace.valid
        assert upper.invalid_cycles == 1


class TestTraceBuffer:
    def _trace(self, time_s, controller="c", action="hold", valid=True):
        return TraceBuilder(
            time_s=time_s, controller=controller, kind="leaf",
            valid=valid, action=action,
        ).finish()

    def test_bounded_ring_drops_oldest(self):
        buffer = TraceBuffer(capacity=3)
        for i in range(5):
            buffer.record(self._trace(float(i)))
        assert len(buffer) == 3
        assert buffer.recorded == 5
        assert [t.time_s for t in buffer.latest()] == [2.0, 3.0, 4.0]

    def test_stage_totals_cover_every_recorded_tick(self):
        # The ring keeps the tail; the stage totals keep counting.
        buffer = TraceBuffer(capacity=3)
        traces = [
            TraceBuilder(
                time_s=float(i), controller="c", kind="leaf",
                sense_duration_s=1.0 + i, aggregate_duration_s=0.5 * i,
                decide_duration_s=0.25, actuate_duration_s=2.0 * i,
            ).finish()
            for i in range(10)
        ]
        for trace in traces:
            buffer.record(trace)
        assert buffer.recorded == 10 > buffer.capacity
        assert buffer.stage_wall_s == {
            "sense": sum(t.sense_duration_s for t in traces),
            "aggregate": sum(t.aggregate_duration_s for t in traces),
            "decide": sum(t.decide_duration_s for t in traces),
            "actuate": sum(t.actuate_duration_s for t in traces),
        }
        retained = sum(t.sense_duration_s for t in buffer.latest())
        assert retained < buffer.stage_wall_s["sense"]
        # Host timing is not snapshot state: restore leaves it alone.
        restored = TraceBuffer(capacity=3)
        restored.restore_state(buffer.snapshot_state())
        assert restored.recorded == 10
        assert set(restored.stage_wall_s.values()) == {0.0}

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceBuffer(capacity=0)

    def test_per_controller_queries(self):
        buffer = TraceBuffer()
        buffer.record(self._trace(1.0, controller="a"))
        buffer.record(self._trace(2.0, controller="b"))
        buffer.record(self._trace(3.0, controller="a", action="cap"))
        assert buffer.controllers() == ["a", "b"]
        assert [t.time_s for t in buffer.for_controller("a")] == [1.0, 3.0]
        assert buffer.last_trace("a").action == "cap"
        assert buffer.last_trace("missing") is None

    def test_metrics_aggregation(self):
        buffer = TraceBuffer()
        buffer.record(self._trace(1.0, action="cap"))
        buffer.record(self._trace(2.0, action="hold"))
        buffer.record(self._trace(3.0, valid=False))
        metrics = buffer.metrics()
        assert metrics.ticks == 3
        assert metrics.caps == 1
        assert metrics.holds == 2
        assert metrics.invalid_ticks == 1
        assert metrics.allocation_fraction == 1.0
        assert len(metrics.rows()) > 0

    def test_shared_empty_buffer_not_replaced(self):
        # Regression: an empty TraceBuffer is falsy (it has __len__), so
        # the base controller must not use `tracer or TraceBuffer()`.
        tracer = TraceBuffer()
        controller, _, _ = make_leaf(tracer=tracer)
        assert controller.tracer is tracer
        controller.tick(3.0)
        assert len(tracer) == 1


class TestFailoverReplaceBand:
    def test_replace_band_reaches_both_instances(self):
        primary, _, transport = make_leaf()
        backup = LeafPowerController(
            primary.device, primary.server_ids, transport
        )
        pair = FailoverController(primary, backup)
        custom = ThreeBandConfig(
            capping_threshold=0.90,
            capping_target=0.85,
            uncapping_threshold=0.80,
        )
        pair.replace_band(custom)
        assert primary.band.config is custom
        assert backup.band.config is custom

    def test_replace_band_preserves_capping_state(self):
        controller, servers, _ = make_leaf()
        total = sum(s.power_w() for s in servers)
        controller.set_contractual_limit_w(total * 0.9)
        assert controller.tick(3.0) is BandAction.CAP
        assert controller.band.capping_active
        custom = ThreeBandConfig(
            capping_threshold=0.90,
            capping_target=0.85,
            uncapping_threshold=0.80,
        )
        controller.replace_band(custom)
        assert controller.band.capping_active
        assert controller.band.config is custom

    def test_failover_satisfies_power_controller_protocol(self):
        primary, _, transport = make_leaf()
        backup = LeafPowerController(
            primary.device, primary.server_ids, transport
        )
        pair = FailoverController(primary, backup)
        assert isinstance(pair, PowerController)
        assert isinstance(primary, PowerController)
        assert isinstance(primary, BaseController)


class TestTickTraceRender:
    def test_render_excludes_durations(self):
        builder = TraceBuilder(
            time_s=3.0, controller="rpp0", kind="leaf",
            sense_duration_s=0.123, actuate_duration_s=0.456,
        )
        trace = builder.finish()
        assert isinstance(trace, TickTrace)
        assert trace.duration_s == pytest.approx(0.579)
        rendered = trace.render()
        assert "0.123" not in rendered
        assert "rpp0" in rendered

    def test_mode_suffix_only_when_nondefault(self):
        # Parity contract: the default render is byte-identical to the
        # pre-resilience format; the mode only shows when set.
        plain = TraceBuilder(
            time_s=3.0, controller="rpp0", kind="leaf"
        ).finish()
        assert " mode=" not in plain.render()
        tagged = TraceBuilder(
            time_s=3.0, controller="rpp0", kind="leaf", mode="degraded",
        ).finish()
        assert "mode=degraded" in tagged.render()
