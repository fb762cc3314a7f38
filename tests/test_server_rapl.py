"""Tests for the simulated RAPL module and its Figure-9 dynamics."""

import pytest

from repro.errors import CappingError
from repro.server.rapl import RaplModule


def make_rapl(initial=200.0) -> RaplModule:
    return RaplModule(initial_power_w=initial)


class TestLimitManagement:
    def test_starts_uncapped(self):
        assert not make_rapl().capped
        assert make_rapl().limit_w is None

    def test_set_and_clear(self):
        rapl = make_rapl()
        rapl.set_limit(180.0)
        assert rapl.capped
        assert rapl.limit_w == 180.0
        rapl.clear_limit()
        assert not rapl.capped

    def test_rejects_limit_below_platform_minimum(self):
        rapl = RaplModule(min_cap_w=100.0)
        with pytest.raises(CappingError):
            rapl.set_limit(80.0)

    def test_min_cap_respects_config_floor(self):
        # RAPL's own 50 W floor holds whatever the platform allows.
        rapl = RaplModule(min_cap_w=0.0)
        rapl.set_limit(50.0)
        with pytest.raises(CappingError):
            rapl.set_limit(49.0)


class TestDynamics:
    def test_uncapped_tracks_demand(self):
        rapl = make_rapl(initial=200.0)
        for _ in range(10):
            rapl.step(240.0, 1.0)
        assert rapl.enforced_power_w == pytest.approx(240.0, abs=1.0)

    def test_cap_settles_within_two_seconds(self):
        # Figure 9: a cap command takes ~2 s to take effect and stabilize.
        rapl = make_rapl(initial=240.0)
        rapl.set_limit(180.0)
        rapl.step(240.0, 2.0)
        assert rapl.enforced_power_w == pytest.approx(180.0, abs=6.0)

    def test_cap_not_instant(self):
        rapl = make_rapl(initial=240.0)
        rapl.set_limit(180.0)
        rapl.step(240.0, 0.5)
        # Half a second in, enforcement is still well above the target.
        assert rapl.enforced_power_w > 190.0

    def test_uncap_settles_within_two_seconds(self):
        rapl = make_rapl(initial=240.0)
        rapl.set_limit(180.0)
        rapl.step(240.0, 10.0)
        rapl.clear_limit()
        rapl.step(240.0, 2.0)
        assert rapl.enforced_power_w == pytest.approx(240.0, abs=6.0)

    def test_nonbinding_cap_is_invisible(self):
        rapl = make_rapl(initial=200.0)
        rapl.set_limit(300.0)
        rapl.step(200.0, 5.0)
        assert rapl.enforced_power_w == pytest.approx(200.0, abs=0.5)

    def test_target_power(self):
        rapl = make_rapl()
        assert rapl.target_power_w(250.0) == 250.0
        rapl.set_limit(200.0)
        assert rapl.target_power_w(250.0) == 200.0
        assert rapl.target_power_w(150.0) == 150.0

    def test_zero_dt_no_change(self):
        rapl = make_rapl(initial=200.0)
        rapl.set_limit(100.0)
        assert rapl.step(200.0, 0.0) == 200.0

    def test_settled_predicate(self):
        rapl = make_rapl(initial=240.0)
        rapl.set_limit(180.0)
        assert not rapl.settled(240.0)
        rapl.step(240.0, 10.0)
        assert rapl.settled(240.0)

    def test_controller_sampling_implication(self):
        # The reason the leaf pull cycle is 3 s: one second after a cap
        # the power has NOT settled; three seconds after, it has.
        rapl = make_rapl(initial=240.0)
        rapl.set_limit(180.0)
        rapl.step(240.0, 1.0)
        assert not rapl.settled(240.0)
        rapl.step(240.0, 2.0)
        assert rapl.settled(240.0, tolerance_w=3.0)
