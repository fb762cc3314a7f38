"""Tests for time series, CDFs, samplers, and alerts."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.alerts import AlertSink, Severity
from repro.telemetry.cdf import empirical_cdf, p50, p99, percentile
from repro.telemetry.sampler import PowerSampler
from repro.telemetry.timeseries import TimeSeries


class TestTimeSeries:
    def make(self):
        series = TimeSeries("test")
        for t in range(10):
            series.append(float(t), float(t * 10))
        return series

    def test_append_and_len(self):
        assert len(self.make()) == 10

    def test_rejects_out_of_order(self):
        series = self.make()
        with pytest.raises(ConfigurationError):
            series.append(5.0, 1.0)

    def test_equal_timestamps_allowed(self):
        series = TimeSeries()
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2

    def test_latest(self):
        assert self.make().latest() == (9.0, 90.0)

    def test_latest_empty_raises(self):
        with pytest.raises(ConfigurationError):
            TimeSeries().latest()

    def test_window(self):
        window = self.make().window(3.0, 6.0)
        assert list(window.times) == [3.0, 4.0, 5.0, 6.0]

    def test_value_at(self):
        series = self.make()
        assert series.value_at(4.5) == 40.0
        assert series.value_at(4.0) == 40.0

    def test_value_at_before_first_raises(self):
        with pytest.raises(ConfigurationError):
            self.make().value_at(-1.0)

    def test_aggregates(self):
        series = self.make()
        assert series.mean() == pytest.approx(45.0)
        assert series.max() == 90.0
        assert series.min() == 0.0

    def test_empty_aggregates(self):
        assert TimeSeries().mean() == 0.0
        with pytest.raises(ConfigurationError):
            TimeSeries().max()

    def test_downsample_keeps_last_per_bucket(self):
        series = TimeSeries()
        for t in range(0, 120, 10):
            series.append(float(t), float(t))
        coarse = series.downsample(60.0)
        assert list(coarse.times) == [50.0, 110.0]

    def test_downsample_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            self.make().downsample(0.0)


class TestCdf:
    def test_empirical_cdf_sorted(self):
        values, probs = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert probs[-1] == 1.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])

    def test_percentiles(self):
        data = list(range(101))
        assert p50(data) == 50.0
        assert p99(data) == pytest.approx(99.0)
        assert percentile(data, 0.0) == 0.0

    def test_percentile_range_check(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 150.0)


class TestSampler:
    def test_samples_on_interval(self, engine):
        sampler = PowerSampler(engine, interval_s=3.0)
        sampler.add_source("dev", lambda: 100.0)
        sampler.start()
        engine.run_until(10.0)
        assert len(sampler.series["dev"]) == 4  # t=0,3,6,9

    def test_multiple_sources(self, engine):
        sampler = PowerSampler(engine, interval_s=1.0)
        sampler.add_source("a", lambda: 1.0)
        sampler.add_source("b", lambda: 2.0)
        sampler.start()
        engine.run_until(5.0)
        assert sampler.sample_count == 12

    def test_remove_source_keeps_history(self, engine):
        sampler = PowerSampler(engine, interval_s=1.0)
        sampler.add_source("a", lambda: 1.0)
        sampler.start()
        engine.run_until(2.5)
        sampler.remove_source("a")
        engine.run_until(5.0)
        assert len(sampler.series["a"]) == 3

    def test_stop(self, engine):
        sampler = PowerSampler(engine, interval_s=1.0)
        sampler.add_source("a", lambda: 1.0)
        sampler.start()
        engine.run_until(2.5)
        sampler.stop()
        engine.run_until(10.0)
        assert len(sampler.series["a"]) == 3

    def test_dynamic_source_values(self, engine):
        sampler = PowerSampler(engine, interval_s=1.0)
        sampler.add_source("t", lambda: engine.clock.now * 2)
        sampler.start()
        engine.run_until(3.5)
        assert list(sampler.series["t"].values) == [0.0, 2.0, 4.0, 6.0]


class TestAlerts:
    def test_raise_and_list(self):
        sink = AlertSink()
        sink.raise_alert(1.0, Severity.WARNING, "ctrl-a", "drift")
        sink.raise_alert(2.0, Severity.CRITICAL, "ctrl-b", "invalid")
        assert sink.count() == 2
        assert sink.alerts[0].message == "drift"

    def test_filter_by_severity(self):
        sink = AlertSink()
        sink.raise_alert(1.0, Severity.WARNING, "a", "w")
        sink.raise_alert(2.0, Severity.CRITICAL, "b", "c")
        assert len(sink.by_severity(Severity.CRITICAL)) == 1

    def test_filter_by_source(self):
        sink = AlertSink()
        sink.raise_alert(1.0, Severity.INFO, "a", "1")
        sink.raise_alert(2.0, Severity.INFO, "a", "2")
        sink.raise_alert(3.0, Severity.INFO, "b", "3")
        assert len(sink.from_source("a")) == 2

    def test_clear(self):
        sink = AlertSink()
        sink.raise_alert(1.0, Severity.INFO, "a", "x")
        sink.clear()
        assert sink.count() == 0
