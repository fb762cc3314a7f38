"""Extended integration tests: network components in capping decisions
and estimator detail paths."""

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
from repro.server.estimator import PowerEstimator, fit_linear_power_model
from repro.server.platform import HASWELL_2015
from repro.server.server import ConstantWorkload, Server

from tests.conftest import settle_server


class TestSwitchesInCappingDecisions:
    def test_uncappable_switch_power_absorbed_by_server_caps(self):
        # Row: 8 servers + 2 ToR switches.  The limit is set so server
        # power alone would be fine, but servers + switches exceed the
        # capping threshold: the controller must cut *servers* deeper to
        # make room for the switches it cannot control.
        transport = RpcTransport(np.random.default_rng(0))
        servers = []
        for i in range(8):
            server = Server(f"s{i}", HASWELL_2015, ConstantWorkload(0.8, "web"))
            settle_server(server)
            servers.append(server)
            DynamoAgent(server, transport)
        switch_w = 207.0
        server_power = sum(s.power_w() for s in servers)
        switch_power = 2 * switch_w
        device = PowerDevice("rpp0", DeviceLevel.RPP, 1e6)
        controller = LeafPowerController(
            device, [s.server_id for s in servers], transport
        )
        for i in range(2):
            controller.add_component(
                NonServerComponent(f"tor{i}", source=lambda: switch_w)
            )
        # Limit between server-only power and total power.
        limit = server_power + switch_power / 2.0
        controller.set_contractual_limit_w(limit)
        action = controller.tick(0.0)
        assert action is BandAction.CAP
        # Settle and re-read: the aggregate (servers + switches) lands
        # under the limit, meaning the servers absorbed the cut.
        for server in servers:
            settle_server(server, 10.0)
        controller.tick(3.0)
        assert controller.last_aggregate_power_w <= limit
        assert any(s.rapl.capped for s in servers)


class TestEstimatorExtras:
    def test_memory_and_network_terms(self):
        fit = fit_linear_power_model([(0.0, 100.0), (1.0, 300.0)])
        estimator = PowerEstimator(
            fit, memory_coeff_w=10.0, network_coeff_w=5.0
        )
        base = estimator.estimate_w(0.5)
        loaded = estimator.estimate_w(
            0.5, memory_traffic=2.0, network_traffic=4.0
        )
        # 10 W/unit x 2 memory + 5 W/unit x 4 network.
        assert loaded == pytest.approx(base + 20.0 + 20.0)

    def test_recalibration_preserves_extra_terms(self):
        fit = fit_linear_power_model([(0.0, 100.0), (1.0, 300.0)])
        estimator = PowerEstimator(fit, memory_coeff_w=10.0)
        scaled = estimator.recalibrate(1.1)
        assert scaled.estimate_w(0.5, memory_traffic=1.0) == pytest.approx(
            1.1 * estimator.estimate_w(0.5, memory_traffic=1.0)
        )

    def test_fit_residual_reported(self):
        # Noisy calibration: the fit carries its own quality measure.
        rng = np.random.default_rng(0)
        samples = [
            (u / 10, 100.0 + 200.0 * u / 10 + rng.normal(0, 5.0))
            for u in range(11)
        ]
        fit = fit_linear_power_model(samples)
        assert 0.0 < fit.residual_rms_w < 15.0
