"""Tests for the leaf power controller (Section III-C)."""

import numpy as np
import pytest

from repro.core.agent import DynamoAgent
from repro.core.leaf_controller import (
    LeafPowerController,
    NonServerComponent,
)
from repro.core.three_band import BandAction
from repro.power.device import DeviceLevel, PowerDevice
from repro.rpc.transport import RpcTransport
from repro.server.server import ConstantWorkload, Server
from repro.server.platform import HASWELL_2015
from repro.telemetry.alerts import Severity

from tests.conftest import settle_server


class Rig:
    """A leaf device with N constant-load servers and their agents."""

    def __init__(self, n=10, utilization=0.6, rating_w=None, services=None):
        self.transport = RpcTransport(np.random.default_rng(0))
        self.servers: list[Server] = []
        self.agents: list[DynamoAgent] = []
        services = services or ["web"] * n
        for i, service in enumerate(services):
            server = Server(
                f"s{i}",
                HASWELL_2015,
                ConstantWorkload(utilization, service=service),
            )
            settle_server(server)
            self.servers.append(server)
            self.agents.append(DynamoAgent(server, self.transport))
        total = sum(s.power_w() for s in self.servers)
        rating = rating_w if rating_w is not None else total * 1.5
        self.device = PowerDevice("rpp0", DeviceLevel.RPP, rating)
        for server in self.servers:
            self.device.attach_load(server.server_id, server.power_w)
        self.controller = LeafPowerController(
            self.device,
            [s.server_id for s in self.servers],
            self.transport,
        )

    def settle_all(self, seconds=10.0):
        for server in self.servers:
            settle_server(server, seconds)


class TestAggregation:
    def test_aggregate_matches_true_power(self):
        rig = Rig(n=10, utilization=0.6)
        rig.controller.tick(0.0)
        true_total = sum(s.power_w() for s in rig.servers)
        assert rig.controller.last_aggregate_power_w == pytest.approx(
            true_total, rel=0.02
        )

    def test_aggregate_recorded_in_series(self):
        rig = Rig()
        rig.controller.tick(3.0)
        rig.controller.tick(6.0)
        assert len(rig.controller.aggregate_series) == 2

    def test_fixed_overhead_included(self):
        rig = Rig(n=5)
        rig.device.fixed_overhead_w = 500.0
        rig.controller.tick(0.0)
        true_total = sum(s.power_w() for s in rig.servers) + 500.0
        assert rig.controller.last_aggregate_power_w == pytest.approx(
            true_total, rel=0.02
        )


class TestFailureEstimation:
    def test_few_failures_estimated_from_neighbours(self):
        rig = Rig(n=10, utilization=0.6)
        rig.controller.tick(0.0)  # prime last readings
        rig.transport.injector.take_down("agent:s0")
        action = rig.controller.tick(3.0)
        assert action is not None
        # Aggregate still close to truth: the failed server runs the
        # same workload as its neighbours.
        true_total = sum(s.power_w() for s in rig.servers)
        assert rig.controller.last_aggregate_power_w == pytest.approx(
            true_total, rel=0.03
        )

    def test_above_20_percent_failures_invalidates(self):
        rig = Rig(n=10)
        for i in range(3):  # 30% > 20%
            rig.transport.injector.take_down(f"agent:s{i}")
        action = rig.controller.tick(0.0)
        assert action is BandAction.HOLD
        assert rig.controller.invalid_cycles == 1
        assert rig.controller.last_aggregate_power_w is None
        criticals = rig.controller.alerts.by_severity(Severity.CRITICAL)
        assert len(criticals) == 1

    def test_exactly_20_percent_failures_tolerated(self):
        rig = Rig(n=10)
        rig.controller.tick(0.0)
        for i in range(2):  # exactly 20%, not > 20%
            rig.transport.injector.take_down(f"agent:s{i}")
        rig.controller.tick(3.0)
        assert rig.controller.invalid_cycles == 0

    def test_unknown_server_estimate_falls_back(self):
        # First-ever tick with a down agent: no last reading for it yet,
        # so the controller falls back to neighbour/service estimates
        # without crashing.  6 servers, 1 down = 17% < 20%.
        rig = Rig(n=6)
        rig.transport.injector.take_down("agent:s0")
        rig.controller.tick(0.0)
        assert rig.controller.last_aggregate_power_w is not None


class TestCappingFlow:
    def test_no_capping_below_threshold(self):
        rig = Rig(n=10, utilization=0.5)
        assert rig.controller.tick(0.0) is BandAction.HOLD
        assert rig.controller.capped_server_ids == []

    def test_capping_above_threshold(self):
        rig = Rig(n=10, utilization=0.9)
        total = sum(s.power_w() for s in rig.servers)
        # Make the device limit 97% of current draw: aggregated power is
        # above the 99% capping threshold.
        rig.controller.device.breaker.rated_power_w  # unchanged; use contractual
        rig.controller.set_contractual_limit_w(total * 0.97)
        action = rig.controller.tick(0.0)
        assert action is BandAction.CAP
        assert rig.controller.cap_events == 1
        assert len(rig.controller.capped_server_ids) > 0
        # Caps actually landed on the RAPL modules.
        assert any(s.rapl.capped for s in rig.servers)

    def test_capping_brings_power_to_target(self):
        rig = Rig(n=10, utilization=0.9)
        total = sum(s.power_w() for s in rig.servers)
        limit = total * 0.97
        rig.controller.set_contractual_limit_w(limit)
        rig.controller.tick(0.0)
        rig.settle_all()
        rig.controller.tick(3.0)
        # A contractual limit already carries the parent's margin, so
        # the controller targets 98% of it rather than re-discounting.
        from repro.core.thresholds import CONTRACTUAL_TARGET

        target = limit * CONTRACTUAL_TARGET
        assert rig.controller.last_aggregate_power_w <= limit
        assert rig.controller.last_aggregate_power_w == pytest.approx(
            target, rel=0.03
        )

    def test_uncap_when_load_drops(self):
        rig = Rig(n=10, utilization=0.9)
        total = sum(s.power_w() for s in rig.servers)
        limit = total * 0.97
        rig.controller.set_contractual_limit_w(limit)
        rig.controller.tick(0.0)
        rig.settle_all()
        # Load drops well below the uncapping threshold.
        for server in rig.servers:
            server.workload.set_utilization(0.3)
        rig.settle_all(30.0)
        action = rig.controller.tick(10.0)
        assert action is BandAction.UNCAP
        assert rig.controller.capped_server_ids == []
        assert not any(s.rapl.capped for s in rig.servers)

    def test_effective_limit_is_min_of_physical_and_contractual(self):
        rig = Rig(n=2)
        rating = rig.device.rated_power_w
        assert rig.controller.effective_limit_w == rating
        # A tighter contractual limit binds...
        rig.controller.set_contractual_limit_w(rating * 0.5)
        assert rig.controller.effective_limit_w == rating * 0.5
        # ...a looser one does not.
        rig.controller.set_contractual_limit_w(rating * 2.0)
        assert rig.controller.effective_limit_w == rating
        rig.controller.clear_contractual_limit()
        assert rig.controller.effective_limit_w == rating

    def test_priority_respected_in_capping(self):
        services = ["web"] * 5 + ["cache"] * 5
        rig = Rig(n=10, utilization=0.9, services=services)
        total = sum(s.power_w() for s in rig.servers)
        rig.controller.set_contractual_limit_w(total * 0.97)
        rig.controller.tick(0.0)
        for server in rig.servers:
            if server.service == "cache":
                assert not server.rapl.capped

    def test_sla_floor_warning_when_cut_unallocatable(self):
        rig = Rig(n=2, utilization=0.9)
        total = sum(s.power_w() for s in rig.servers)
        # Demand an absurd cut: far below what SLA floors allow.
        rig.controller.set_contractual_limit_w(total * 0.4)
        rig.controller.tick(0.0)
        warnings = rig.controller.alerts.by_severity(Severity.WARNING)
        assert len(warnings) == 1


class TestBreakerValidation:
    def test_agreeing_reading_passes(self):
        rig = Rig(n=5)
        rig.controller.tick(0.0)
        agg = rig.controller.last_aggregate_power_w
        assert rig.controller.validate_against_breaker(agg * 1.02, 0.0)

    def test_drifting_reading_warns(self):
        rig = Rig(n=5)
        rig.controller.tick(0.0)
        agg = rig.controller.last_aggregate_power_w
        assert not rig.controller.validate_against_breaker(agg * 1.5, 0.0)
        assert rig.controller.alerts.by_severity(Severity.WARNING)

    def test_no_aggregate_yet_passes(self):
        rig = Rig(n=2)
        assert rig.controller.validate_against_breaker(1_000.0, 0.0)


class TestNonServerComponents:
    def build_controller(self):
        transport = RpcTransport(np.random.default_rng(0))
        device = PowerDevice("rpp0", DeviceLevel.RPP, 100_000.0)
        return LeafPowerController(device, [], transport), device

    def test_component_with_source_pulled_directly(self):
        controller, _ = self.build_controller()
        controller.add_component(
            NonServerComponent("tor0", source=lambda: 168.0)
        )
        controller.tick(0.0)
        assert controller.last_aggregate_power_w == pytest.approx(168.0)

    def test_component_without_source_estimated(self):
        controller, _ = self.build_controller()
        controller.add_component(
            NonServerComponent("tor1", source=None, estimate_w=180.0)
        )
        controller.tick(0.0)
        assert controller.last_aggregate_power_w == pytest.approx(180.0)

    def test_components_listed(self):
        controller, _ = self.build_controller()
        controller.add_component(NonServerComponent("a", estimate_w=1.0))
        controller.add_component(NonServerComponent("b", estimate_w=2.0))
        assert [c.name for c in controller.components] == ["a", "b"]

    def test_components_never_capped(self):
        # Monitoring-only: a component pushing the aggregate over the
        # limit triggers capping decisions but no cap is (or can be)
        # sent to the component — with no servers, the cut is simply
        # unallocatable and alerts.
        controller, device = self.build_controller()
        controller.add_component(
            NonServerComponent("hog", estimate_w=device.rated_power_w * 1.05)
        )
        controller.tick(0.0)
        assert controller.capped_server_ids == []
