"""Tests for punish-offender-first coordination (Section III-D)."""

import pytest

from repro.core.offender import ChildState, punish_offender_first
from repro.errors import ConfigurationError


def child(name, power, quota):
    return ChildState(name=name, power_w=power, quota_w=quota)


class TestChildState:
    def test_offender_detection(self):
        assert child("c", 190.0, 150.0).is_offender
        assert not child("c", 130.0, 150.0).is_offender

    def test_overage(self):
        assert child("c", 190.0, 150.0).overage_w == pytest.approx(40.0)
        assert child("c", 130.0, 150.0).overage_w == 0.0


class TestPaperExample:
    def test_worked_example_from_section_3d(self):
        # P1 limit 300 KW; C1 and C2 quota 150 KW each.  C1 draws
        # 190 KW, C2 130 KW -> 320 KW total, cut 20 KW.  C1 is the sole
        # offender and takes the whole cut: contractual limit 170 KW.
        c1 = child("C1", 190_000.0, 150_000.0)
        c2 = child("C2", 130_000.0, 150_000.0)
        decision = punish_offender_first([c1, c2], 20_000.0)
        assert decision.cuts_w["C1"] == pytest.approx(20_000.0)
        assert decision.cuts_w["C2"] == 0.0
        assert decision.contractual_limit_w(c1) == pytest.approx(170_000.0)
        assert decision.contractual_limit_w(c2) is None
        assert decision.unallocated_w == 0.0


class TestMultipleOffenders:
    def test_cut_split_among_offenders(self):
        c1 = child("C1", 190_000.0, 150_000.0)
        c2 = child("C2", 180_000.0, 150_000.0)
        c3 = child("C3", 100_000.0, 150_000.0)
        decision = punish_offender_first([c1, c2, c3], 30_000.0)
        assert decision.cuts_w["C3"] == 0.0
        assert decision.cuts_w["C1"] + decision.cuts_w["C2"] == pytest.approx(
            30_000.0
        )
        # High-bucket-first: the bigger offender pays at least as much.
        assert decision.cuts_w["C1"] >= decision.cuts_w["C2"]

    def test_offenders_not_cut_below_quota_in_stage_one(self):
        # Cut exactly equals total overage: every offender lands on its
        # quota, no one below.
        c1 = child("C1", 190_000.0, 150_000.0)
        c2 = child("C2", 170_000.0, 150_000.0)
        decision = punish_offender_first([c1, c2], 60_000.0)
        assert 190_000.0 - decision.cuts_w["C1"] >= 150_000.0 - 1e-6
        assert 170_000.0 - decision.cuts_w["C2"] >= 150_000.0 - 1e-6
        assert decision.unallocated_w == 0.0


class TestBucketWidth:
    def test_width_scales_with_the_largest_child(self):
        # The default width is 2% of the largest child (2 KW here), so
        # two offenders 0.5 KW apart share one bucket and split the cut
        # evenly.  Buckets 0.1 KW wide separate them: the larger one
        # then pays the whole cut before the smaller is touched.
        c1 = child("C1", 100_000.0, 90_000.0)
        c2 = child("C2", 99_500.0, 90_000.0)
        shared = punish_offender_first([c1, c2], 500.0)
        assert shared.cuts_w["C1"] == pytest.approx(250.0)
        assert shared.cuts_w["C2"] == pytest.approx(250.0)
        narrow = punish_offender_first(
            [c1, c2], 500.0, bucket_width_fraction=0.001
        )
        assert narrow.cuts_w["C1"] == pytest.approx(500.0)
        assert narrow.cuts_w["C2"] == 0.0


class TestSpillover:
    def test_cut_beyond_overage_spills_to_all(self):
        # Oversubscription case: offenders' overage is 20 KW but the
        # parent needs 50 KW; the remaining 30 KW spreads to everyone.
        c1 = child("C1", 170_000.0, 150_000.0)
        c2 = child("C2", 140_000.0, 150_000.0)
        decision = punish_offender_first([c1, c2], 50_000.0)
        total = decision.cuts_w["C1"] + decision.cuts_w["C2"]
        assert total == pytest.approx(50_000.0)
        assert decision.cuts_w["C2"] > 0.0

    def test_unallocated_only_when_nothing_left(self):
        c1 = child("C1", 10_000.0, 5_000.0)
        decision = punish_offender_first([c1], 50_000.0)
        assert decision.cuts_w["C1"] == pytest.approx(10_000.0)
        assert decision.unallocated_w == pytest.approx(40_000.0)


class TestEdgeCases:
    def test_zero_cut(self):
        decision = punish_offender_first([child("C1", 100.0, 50.0)], 0.0)
        assert decision.cuts_w["C1"] == 0.0

    def test_no_children(self):
        decision = punish_offender_first([], 100.0)
        assert decision.unallocated_w == 100.0

    def test_rejects_negative_cut(self):
        with pytest.raises(ConfigurationError):
            punish_offender_first([child("C1", 100.0, 50.0)], -1.0)

    def test_no_offenders_all_spillover(self):
        c1 = child("C1", 100_000.0, 150_000.0)
        c2 = child("C2", 100_000.0, 150_000.0)
        decision = punish_offender_first([c1, c2], 40_000.0)
        assert decision.cuts_w["C1"] + decision.cuts_w["C2"] == pytest.approx(
            40_000.0
        )

    def test_contractual_limit_none_for_tiny_cut(self):
        c1 = child("C1", 100.0, 50.0)
        decision = punish_offender_first([c1], 0.0)
        assert decision.contractual_limit_w(c1) is None
