"""Tests for the Server composite, sensors, estimators, and Turbo."""

import numpy as np
import pytest

from repro.errors import AgentError
from repro.server.estimator import (
    calibrate_from_model,
    fit_linear_power_model,
)
from repro.server.platform import HASWELL_2015, WESTMERE_2011
from repro.server.power_model import PowerModel
from repro.server.sensor import PowerSensor
from repro.server.server import ConstantWorkload, Server
from repro.server.turbo import TurboBoost

from tests.conftest import make_server, settle_server


class TestSensor:
    def test_noiseless_read_exact(self):
        sensor = PowerSensor(noise_fraction=0.0)
        assert sensor.read(215.0) == 215.0

    def test_noise_is_small_and_unbiased(self):
        sensor = PowerSensor(0.005, np.random.default_rng(0))
        reads = [sensor.read(200.0) for _ in range(2000)]
        assert abs(np.mean(reads) - 200.0) < 0.5
        assert np.std(reads) < 3.0

    def test_breakdown_sums_to_total(self):
        sensor = PowerSensor(0.0)
        breakdown = sensor.read_breakdown(300.0)
        assert breakdown.components_sum_w == pytest.approx(breakdown.total_w)
        assert breakdown.ac_dc_loss_w > 0.0

    def test_rejects_negative_power(self):
        with pytest.raises(AgentError):
            PowerSensor(0.0).read(-1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(AgentError):
            PowerSensor(-0.1)


class TestEstimator:
    def test_linear_fit_recovers_line(self):
        samples = [(u / 10, 100.0 + 200.0 * u / 10) for u in range(11)]
        fit = fit_linear_power_model(samples)
        assert fit.intercept_w == pytest.approx(100.0, abs=1e-6)
        assert fit.slope_w == pytest.approx(200.0, abs=1e-6)
        assert fit.residual_rms_w == pytest.approx(0.0, abs=1e-6)

    def test_fit_rejects_too_few_samples(self):
        with pytest.raises(AgentError):
            fit_linear_power_model([(0.5, 200.0)])

    def test_fit_rejects_degenerate_samples(self):
        with pytest.raises(AgentError):
            fit_linear_power_model([(0.5, 200.0), (0.5, 210.0)])

    def test_calibrated_estimator_tracks_model(self):
        model = PowerModel(WESTMERE_2011)
        estimator = calibrate_from_model(model.power_w)
        for util in (0.0, 0.3, 0.7, 1.0):
            true = model.power_w(util)
            assert estimator.estimate_w(util) == pytest.approx(true, rel=0.06)

    def test_estimate_rejects_bad_util(self):
        estimator = calibrate_from_model(PowerModel(WESTMERE_2011).power_w)
        with pytest.raises(AgentError):
            estimator.estimate_w(1.2)

    def test_recalibrate_scales_output(self):
        estimator = calibrate_from_model(PowerModel(WESTMERE_2011).power_w)
        scaled = estimator.recalibrate(1.10)
        assert scaled.estimate_w(0.5) == pytest.approx(
            1.10 * estimator.estimate_w(0.5)
        )

    def test_recalibrate_rejects_bad_scale(self):
        estimator = calibrate_from_model(PowerModel(WESTMERE_2011).power_w)
        with pytest.raises(AgentError):
            estimator.recalibrate(0.0)


class TestTurboBoost:
    def test_disabled_by_default(self):
        turbo = TurboBoost(HASWELL_2015)
        assert not turbo.enabled
        assert turbo.performance_multiplier == 1.0
        assert turbo.worst_case_power_w == HASWELL_2015.peak_power_w

    def test_enable_raises_perf_and_power(self):
        turbo = TurboBoost(HASWELL_2015)
        turbo.enable()
        assert turbo.performance_multiplier == pytest.approx(1.13)
        # Turbo adds ~20% to the dynamic (core) power component.
        assert turbo.worst_case_power_w == pytest.approx(
            HASWELL_2015.idle_power_w + HASWELL_2015.dynamic_range_w * 1.20
        )
        assert turbo.worst_case_power_w > HASWELL_2015.peak_power_w

    def test_disable(self):
        turbo = TurboBoost(HASWELL_2015, enabled=True)
        turbo.disable()
        assert not turbo.enabled


class TestServer:
    def test_power_settles_to_model(self):
        server = make_server(utilization=0.6)
        settle_server(server)
        expected = PowerModel(HASWELL_2015).power_w(0.6)
        assert server.power_w() == pytest.approx(expected, abs=1.0)

    def test_cap_reduces_power(self):
        server = make_server(utilization=0.9)
        settle_server(server)
        uncapped = server.power_w()
        server.rapl.set_limit(uncapped * 0.8)
        settle_server(server, 10.0)
        assert server.power_w() == pytest.approx(uncapped * 0.8, abs=2.0)

    def test_performance_ratio_one_when_uncapped(self):
        server = make_server(utilization=0.7)
        settle_server(server)
        assert server.performance_ratio() == pytest.approx(1.0)

    def test_binding_cap_costs_performance(self):
        server = make_server(utilization=0.9)
        settle_server(server)
        server.reset_work_counters()
        server.rapl.set_limit(server.power_w() * 0.6)
        settle_server(server, 60.0)
        assert server.performance_ratio() < 0.95

    def test_turbo_delivers_extra_work(self):
        plain = make_server("a", utilization=0.8)
        boosted = make_server("b", utilization=0.8, turbo=True)
        settle_server(plain, 60.0)
        settle_server(boosted, 60.0)
        ratio = boosted.delivered_work / plain.delivered_work
        assert ratio == pytest.approx(1.13, abs=0.01)

    def test_turbo_draws_extra_power(self):
        plain = make_server("a", utilization=0.9)
        boosted = make_server("b", utilization=0.9, turbo=True)
        settle_server(plain)
        settle_server(boosted)
        assert boosted.power_w() > plain.power_w() * 1.10

    def test_offline_server_draws_nothing(self):
        server = make_server(utilization=0.8)
        settle_server(server)
        server.set_online(False)
        server.step(100.0, 1.0)
        assert server.power_w() == 0.0
        assert not server.online

    def test_offline_accrues_no_work(self):
        server = make_server(utilization=0.8)
        server.set_online(False)
        server.step(1.0, 1.0)
        assert server.demanded_work == 0.0

    def test_sensor_present_on_haswell(self):
        assert make_server().sensor is not None

    def test_no_sensor_on_westmere(self):
        server = make_server(platform=WESTMERE_2011)
        assert server.sensor is None

    def test_service_from_workload(self):
        assert make_server(service="cache").service == "cache"

    def test_constant_workload_set(self):
        workload = ConstantWorkload(0.5)
        workload.set_utilization(0.8)
        assert workload.utilization(0.0) == 0.8

    def test_utilization_clamped(self):
        server = Server("s", HASWELL_2015, ConstantWorkload(5.0))
        server.step(1.0, 1.0)
        assert server.utilization == 1.0


class TestEnergyAccounting:
    def test_energy_integrates_power(self):
        server = make_server(utilization=0.6)
        settle_server(server, 100.0)
        # ~settled power x time (transient makes it slightly lower).
        assert server.energy_j == pytest.approx(
            server.power_w() * 100.0, rel=0.05
        )

    def test_capped_server_uses_less_energy(self):
        a = make_server("a", utilization=0.9)
        b = make_server("b", utilization=0.9)
        b.rapl.set_limit(b.platform.effective_min_cap_w() + 50.0)
        settle_server(a, 60.0)
        settle_server(b, 60.0)
        assert b.energy_j < a.energy_j

    def test_efficiency_metric(self):
        server = make_server(utilization=0.7)
        settle_server(server, 60.0)
        assert server.energy_efficiency() > 0.0
        fresh = make_server("f")
        assert fresh.energy_efficiency() == 0.0

    def test_reset_clears_energy(self):
        server = make_server(utilization=0.5)
        settle_server(server)
        server.reset_work_counters()
        assert server.energy_j == 0.0
