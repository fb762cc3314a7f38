"""Tests for configuration dataclasses and their validation."""

import pytest

from repro.config import (
    ControllerConfig,
    DynamoConfig,
    EconomicsConfig,
    ResilienceConfig,
    ThreeBandConfig,
)
from repro.errors import ConfigurationError


class TestThreeBandConfig:
    def test_paper_defaults(self):
        cfg = ThreeBandConfig()
        assert cfg.capping_threshold == pytest.approx(0.99)
        assert cfg.capping_target == pytest.approx(0.95)

    def test_bands_ordered(self):
        cfg = ThreeBandConfig()
        assert cfg.uncapping_threshold < cfg.capping_target < cfg.capping_threshold

    def test_rejects_inverted_cap_bands(self):
        with pytest.raises(ConfigurationError):
            ThreeBandConfig(capping_threshold=0.90, capping_target=0.95)

    def test_rejects_uncap_above_target(self):
        with pytest.raises(ConfigurationError):
            ThreeBandConfig(uncapping_threshold=0.97)

    def test_rejects_threshold_above_one(self):
        with pytest.raises(ConfigurationError):
            ThreeBandConfig(capping_threshold=1.05)


class TestControllerConfig:
    def test_paper_intervals(self):
        cfg = ControllerConfig()
        assert cfg.leaf_pull_interval_s == 3.0
        assert cfg.upper_pull_interval_s == 9.0

    def test_upper_is_multiple_of_leaf(self):
        cfg = ControllerConfig()
        assert cfg.upper_pull_interval_s == 3 * cfg.leaf_pull_interval_s

    def test_rejects_sub_settling_leaf_interval(self):
        # Figure 9: RAPL takes ~2 s to settle, so sampling at <= 2 s is
        # rejected outright.
        with pytest.raises(ConfigurationError):
            ControllerConfig(leaf_pull_interval_s=1.5)

    def test_rejects_upper_faster_than_leaf(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(leaf_pull_interval_s=5.0, upper_pull_interval_s=4.0)

    def test_default_failure_fraction_is_20_percent(self):
        from repro.core.controller import MAX_READING_FAILURE_FRACTION

        assert MAX_READING_FAILURE_FRACTION == pytest.approx(0.20)


class TestPaperConstants:
    """The paper's design numbers, fixed beside the code that reads them."""

    def test_bucket_width_is_20_w(self):
        from repro.core.capping_plan import BUCKET_WIDTH_W

        assert BUCKET_WIDTH_W == 20.0

    def test_rapl_settling_matches_figure9(self):
        from repro.server.rapl import SETTLING_TIME_S

        assert SETTLING_TIME_S == pytest.approx(2.0)


class TestResilienceConfig:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_attempts=0)

    def test_rejects_negative_quarantine_count(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(quarantine_after_opens=-1)


class TestEconomicsConfig:
    def test_rejects_empty_signal_name(self):
        with pytest.raises(ConfigurationError):
            EconomicsConfig(price_signal="")


class TestDynamoConfig:
    def test_default_leaf_level_is_rpp(self):
        # Footnote 2: Facebook skips rack-level controllers.
        from repro.core.hierarchy import LEAF_LEVEL
        from repro.power.device import DeviceLevel

        assert LEAF_LEVEL is DeviceLevel.RPP

    def test_nested_defaults_present(self):
        cfg = DynamoConfig()
        assert isinstance(cfg.controller, ControllerConfig)
        assert isinstance(cfg.resilience, ResilienceConfig)
        assert isinstance(cfg.economics, EconomicsConfig)

    def test_frozen(self):
        cfg = DynamoConfig()
        with pytest.raises(AttributeError):
            cfg.controller = ControllerConfig()  # type: ignore[misc]
