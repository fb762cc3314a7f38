"""Tests for the economics subsystem: signals, water-filling, and the
EconomicGovernor's shaping, safety precedence, and snapshot contract."""

import math
from types import SimpleNamespace

import pytest

from repro.config import DynamoConfig, EconomicsConfig
from repro.core.dynamo import Dynamo
from repro.core.health import OperatingMode
from repro.economics.governor import (
    DEFER_CEILING,
    MAX_SHAPING,
    SHAPE_THRESHOLD,
    SLA_DEADLINE_S,
    SLA_MAX_DEFER_FRACTION,
    EconomicGovernor,
    GroupDemand,
    water_fill,
)
from repro.economics.ledger import (
    CostCarbonLedger,
    build_econ_scorecard,
    render_econ_scorecard,
)
from repro.economics.scenarios import (
    ECON_SCENARIOS,
    EconScenario,
    build_econ_world,
    get_econ_scenario,
    run_econ_day,
)
from repro.economics.signals import (
    SIGNALS,
    DiurnalSignal,
    ReplaySignal,
    SpikeEvent,
    get_signal,
    normalized_score,
    record_signal,
    seeded_spikes,
    summarize_signal,
)
from repro.errors import ConfigurationError
from repro.fleet import FleetDriver, ServiceAllocation, populate_fleet
from repro.power.builder import DataCenterSpec, build_datacenter
from repro.power.oversubscription import plan_quotas
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams
from repro.units import hours
from repro.workloads.events import (
    DeferModifier,
    decode_modifier,
    encode_modifier,
)


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------


class TestSignals:
    def test_registry_lookup_and_protocol(self):
        for name, signal in SIGNALS.items():
            assert get_signal(name) is signal
            low, high = signal.bounds()
            assert low <= high
            assert signal.value(0.0) >= 0.0
            assert signal.unit

    def test_unknown_signal_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="known:"):
            get_signal("price-of-tea")

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalSignal("bad", "$", -0.1, 0.2)
        with pytest.raises(ConfigurationError):
            DiurnalSignal("bad", "$", 0.2, 0.1)

    def test_diurnal_peaks_and_troughs(self):
        signal = DiurnalSignal("p", "$", 0.04, 0.14, peak_time_s=hours(18))
        assert signal.value(hours(18)) == pytest.approx(0.14)
        assert signal.value(hours(6)) == pytest.approx(0.04)

    def test_spike_validation(self):
        with pytest.raises(ConfigurationError):
            SpikeEvent(start_s=0.0, duration_s=0.0, magnitude=1.0)
        with pytest.raises(ConfigurationError):
            SpikeEvent(start_s=0.0, duration_s=10.0, magnitude=1.0, ramp_s=-1)

    def test_spike_trapezoid(self):
        spike = SpikeEvent(
            start_s=100.0, duration_s=100.0, magnitude=2.0, ramp_s=20.0
        )
        assert spike.contribution(99.0) == 0.0
        assert spike.contribution(201.0) == 0.0
        assert spike.contribution(110.0) == pytest.approx(1.0)  # mid-ramp
        assert spike.contribution(150.0) == pytest.approx(2.0)  # plateau
        assert spike.contribution(190.0) == pytest.approx(1.0)  # down-ramp

    def test_negative_spike_floors_value_at_zero(self):
        signal = DiurnalSignal(
            "sag",
            "$",
            0.01,
            0.02,
            spikes=(
                SpikeEvent(start_s=0.0, duration_s=hours(24), magnitude=-5.0),
            ),
        )
        assert signal.value(hours(12)) == 0.0

    def test_seeded_spikes_deterministic(self):
        a = seeded_spikes(11, count=3)
        b = seeded_spikes(11, count=3)
        c = seeded_spikes(12, count=3)
        assert a == b
        assert a != c
        assert [s.start_s for s in a] == sorted(s.start_s for s in a)
        assert seeded_spikes(0, count=0) == ()

    def test_seeded_spikes_validation(self):
        with pytest.raises(ConfigurationError):
            seeded_spikes(0, count=-1)
        with pytest.raises(ConfigurationError):
            seeded_spikes(0, window_s=(hours(8), hours(8)))

    def test_normalized_score_flat_is_zero(self):
        assert normalized_score(get_signal("price-flat"), hours(18)) == 0.0
        assert normalized_score(get_signal("carbon-flat"), 0.0) == 0.0

    def test_normalized_score_spike_saturates_at_one(self):
        signal = get_signal("price-spike-day")
        assert normalized_score(signal, hours(18.75)) == 1.0
        assert 0.0 <= normalized_score(signal, hours(3)) < 0.5

    def test_replay_validation(self):
        with pytest.raises(ConfigurationError):
            ReplaySignal("r", "$", [], [])
        with pytest.raises(ConfigurationError):
            ReplaySignal("r", "$", [0.0, 1.0], [1.0])
        with pytest.raises(ConfigurationError):
            ReplaySignal("r", "$", [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            ReplaySignal("r", "$", [0.0, 1.0], [1.0, -1.0])

    def test_replay_interpolation_and_step_modes(self):
        times, values = [0.0, 100.0], [1.0, 3.0]
        smooth = ReplaySignal("s", "$", times, values)
        step = ReplaySignal("s", "$", times, values, interpolate=False)
        assert smooth.value(50.0) == pytest.approx(2.0)
        assert step.value(50.0) == 1.0
        assert smooth.bounds() == (1.0, 3.0)

    def test_replay_loop_wraps_and_noloop_clamps(self):
        times = [0.0, 50.0, 100.0]
        values = [1.0, 4.0, 1.0]
        looped = ReplaySignal("l", "$", times, values)
        clamped = ReplaySignal("c", "$", times, values, loop=False)
        for t in (10.0, 35.0, 90.0):
            assert looped.value(t + 100.0) == pytest.approx(looped.value(t))
        assert clamped.value(250.0) == 1.0

    def test_from_csv_skips_header_comments_and_blanks(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "# day-ahead trace\ntime_s,value\n\n0,0.05\n3600,0.09\n"
        )
        signal = ReplaySignal.from_csv(path, unit="$/kWh")
        assert signal.name == "prices"
        assert signal.value(1800.0) == pytest.approx(0.07)

    def test_from_csv_rejects_malformed_and_empty(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0.05\n3600,not-a-number\n")
        with pytest.raises(ConfigurationError, match="malformed"):
            ReplaySignal.from_csv(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing here\n")
        with pytest.raises(ConfigurationError, match="no samples"):
            ReplaySignal.from_csv(empty)

    def test_summarize_signal_finds_cheapest_window(self):
        summary = summarize_signal(get_signal("price-diurnal"))
        assert summary["min"] == pytest.approx(0.04, abs=1e-3)
        assert summary["max"] == pytest.approx(0.14, abs=1e-3)
        # Trough is half a day from the 18:00 peak.
        assert math.isclose(
            summary["lowest_window_start_s"], hours(5.5), abs_tol=hours(1)
        )
        with pytest.raises(ConfigurationError):
            summarize_signal(get_signal("price-flat"), duration_s=0.0)

    def test_record_signal_samples_inclusive(self):
        pairs = list(
            record_signal(get_signal("price-flat"), 600.0, interval_s=300.0)
        )
        assert pairs == [(0.0, 0.08), (300.0, 0.08), (600.0, 0.08)]
        with pytest.raises(ConfigurationError):
            list(record_signal(get_signal("price-flat"), -1.0))


# ---------------------------------------------------------------------------
# Water-filling
# ---------------------------------------------------------------------------


class TestWaterFill:
    GROUPS = [
        GroupDemand(group=0, demand_w=400.0, floor_w=100.0),
        GroupDemand(group=1, demand_w=300.0, floor_w=200.0),
        GroupDemand(group=2, demand_w=300.0, floor_w=250.0),
    ]

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupDemand(group=0, demand_w=-1.0, floor_w=0.0)

    def test_full_budget_meets_all_demand(self):
        allocation = water_fill(self.GROUPS, 1000.0)
        assert allocation == {0: 400.0, 1: 300.0, 2: 300.0}

    def test_surplus_budget_never_overallocates(self):
        allocation = water_fill(self.GROUPS, 5000.0)
        assert sum(allocation.values()) == pytest.approx(1000.0)

    def test_floors_claimed_before_any_pour(self):
        # Budget exactly covers the floors: nobody gets headroom.
        allocation = water_fill(self.GROUPS, 550.0)
        assert allocation == {0: 100.0, 1: 200.0, 2: 250.0}

    def test_lowest_group_starved_first(self):
        # A 100 W cut below full demand comes entirely out of group 0.
        allocation = water_fill(self.GROUPS, 900.0)
        assert allocation == {0: 300.0, 1: 300.0, 2: 300.0}

    def test_conservation_under_any_budget(self):
        for budget in (0.0, 123.0, 550.0, 777.0, 1000.0):
            allocation = water_fill(self.GROUPS, budget)
            assert sum(allocation.values()) == pytest.approx(
                min(budget, 1000.0)
            )
            for g in self.GROUPS:
                assert 0.0 <= allocation[g.group] <= g.demand_w + 1e-9


# ---------------------------------------------------------------------------
# DeferModifier
# ---------------------------------------------------------------------------


class TestDeferModifier:
    def test_ceiling_validation(self):
        for ceiling in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                DeferModifier(ceiling=ceiling)

    def test_clamps_demand(self):
        modifier = DeferModifier(ceiling=0.4)
        assert modifier.apply(0.0, 0.9) == 0.4
        assert modifier.apply(0.0, 0.2) == 0.2

    def test_equality_by_value(self):
        assert DeferModifier(ceiling=0.4) == DeferModifier(ceiling=0.4)
        assert DeferModifier(ceiling=0.4) != DeferModifier(ceiling=0.5)

    def test_codec_round_trip(self):
        modifier = DeferModifier(ceiling=0.4)
        state = encode_modifier(modifier)
        assert state["type"] == "defer"
        assert decode_modifier(state) == modifier


# ---------------------------------------------------------------------------
# Scenarios and scorecard plumbing
# ---------------------------------------------------------------------------


class TestEconScenarios:
    def test_unknown_scenario_lists_known(self):
        with pytest.raises(ConfigurationError, match="known:"):
            get_econ_scenario("free-energy-day")

    def test_scenario_duration_validated(self):
        with pytest.raises(ConfigurationError):
            EconScenario("bad", "price-flat", "carbon-flat", end_s=0.0)

    def test_registry_signals_resolve(self):
        for scenario in ECON_SCENARIOS.values():
            get_signal(scenario.price_signal)
            get_signal(scenario.carbon_signal)

    def test_scorecard_requires_governor(self):
        with pytest.raises(ValueError, match="no economic governor"):
            build_econ_scorecard(SimpleNamespace(governor=None))

    def test_render_requires_scores(self):
        with pytest.raises(ValueError):
            render_econ_scorecard()


# ---------------------------------------------------------------------------
# The governor
# ---------------------------------------------------------------------------

#: A price day that is expensive from t=300 s to t=1200 s and cheap
#: otherwise, against a flat carbon signal (which scores 0) — the
#: ``price-spike-surge`` drill's stimulus, sized for short horizons.
SPIKE_CONFIG = EconomicsConfig(
    enabled=True,
    price_signal="price-spike-early",
    carbon_signal="carbon-flat",
)


def build_test_world(config: EconomicsConfig, *, seed=0, shaping=True):
    """The econ-world recipe with an arbitrary EconomicsConfig."""
    engine = SimulationEngine()
    topology = build_datacenter(
        DataCenterSpec(
            msb_count=1, sbs_per_msb=2, rpps_per_sb=2, racks_per_rpp=3
        )
    )
    plan_quotas(topology)
    rng = RngStreams(seed)
    fleet = populate_fleet(
        topology,
        [
            ServiceAllocation("web", 16),
            ServiceAllocation("cache", 8),
            ServiceAllocation("hadoop", 12, turbo_enabled=True),
        ],
        rng,
    )
    dynamo = Dynamo(
        engine,
        topology,
        fleet,
        config=DynamoConfig(economics=config),
        rng_streams=rng.fork("dynamo"),
    )
    driver = FleetDriver(engine, topology, fleet)
    governor = EconomicGovernor(engine, dynamo, fleet, shaping=shaping)
    driver.start()
    dynamo.start()
    governor.start()
    return engine, dynamo, fleet, governor, driver


def batch_servers(fleet):
    return [s for s in fleet.servers.values() if s.service == "hadoop"]


class TestGovernor:
    def test_requires_enabled_config(self):
        with pytest.raises(ConfigurationError, match="disabled"):
            build_test_world(EconomicsConfig())

    def test_flat_day_is_a_no_op(self):
        world = run_econ_day("flat-day", seed=1, duration_s=1800.0)
        governor = world.governor
        assert governor.last_score == 0.0
        assert not governor.deferring
        assert governor.applied_scale == {}
        assert governor.ledger.shaped_intervals == 0
        assert governor.ledger.band_adjustments == 0
        assert governor.ledger.defer_windows == 0
        # It still meters: one booking per interval, t=0 included.
        assert len(governor.ledger.samples) == 31
        assert governor.ledger.cost > 0.0

    def test_spike_defers_batch_then_releases(self):
        engine, _, fleet, governor, _ = build_test_world(SPIKE_CONFIG)
        ceiling = DEFER_CEILING
        engine.run_until(900.0)  # mid-spike
        assert governor.deferring
        for server in batch_servers(fleet):
            assert DeferModifier(ceiling=ceiling) in server.workload._modifiers
            assert not server.turbo.enabled
        assert governor.ledger.defer_windows == 1
        assert governor.ledger.deferred_energy_kwh > 0.0

        engine.run_until(1500.0)  # spike over at 1200 s
        assert not governor.deferring
        for server in batch_servers(fleet):
            assert (
                DeferModifier(ceiling=ceiling)
                not in server.workload._modifiers
            )
            assert server.turbo.enabled
        assert governor.ledger.deferral_active_s > 0.0

    def test_spike_tightens_bands_then_restores(self):
        engine, dynamo, _, governor, _ = build_test_world(SPIKE_CONFIG)
        engine.run_until(900.0)
        floor = 1.0 - MAX_SHAPING
        shaped = {
            name: scale
            for name, scale in governor.applied_scale.items()
            if scale < 1.0
        }
        assert shaped, "no leaf was shaped mid-spike"
        for name, scale in shaped.items():
            assert floor <= scale < 1.0
            baseline = governor._baseline_bands[name]
            active = dynamo.hierarchy.leaf_controllers[name]
            instance = getattr(active, "active", active)
            applied = instance.band.config
            assert applied.capping_threshold < baseline.capping_threshold
            assert applied.capping_target == pytest.approx(
                baseline.capping_target * scale
            )
        assert governor.ledger.shaped_intervals > 0
        assert governor.ledger.band_adjustments > 0

        engine.run_until(1500.0)
        for name, baseline in governor._baseline_bands.items():
            active = dynamo.hierarchy.leaf_controllers[name]
            instance = getattr(active, "active", active)
            assert instance.band.config == baseline

    def test_non_normal_leaf_mode_wins_over_shaping(self):
        engine, dynamo, _, governor, _ = build_test_world(SPIKE_CONFIG)
        engine.run_until(600.0)
        shaped = [
            name
            for name, scale in governor.applied_scale.items()
            if scale < 1.0
        ]
        assert len(shaped) >= 2
        victim = shaped[0]
        controller = dynamo.hierarchy.leaf_controllers[victim]
        instance = getattr(controller, "active", controller)
        # Pin the leaf in DEGRADED: healthy control cycles would
        # otherwise recover it to NORMAL before the next governor tick.
        instance.modes.mode = OperatingMode.DEGRADED
        instance.modes.record_valid_cycle = lambda now_s: (
            OperatingMode.DEGRADED
        )
        engine.run_until(665.0)  # one more governor tick at t=660
        assert governor.applied_scale[victim] == 1.0
        assert instance.band.config == governor._baseline_bands[victim]
        # A healthy neighbor is still shaped: precedence is per-leaf.
        assert any(
            scale < 1.0
            for name, scale in governor.applied_scale.items()
            if name != victim
        )

    def test_sla_deadline_forces_release_and_counts_miss(self):
        engine, _, fleet, governor, _ = build_test_world(SPIKE_CONFIG)
        # Enter the spike with the day's window nearly spent (180 s of
        # its 12 h deferral budget left), and roll the window at 720 s.
        budget_s = SLA_MAX_DEFER_FRACTION * SLA_DEADLINE_S
        governor._window_deferred_s = budget_s - 180.0
        governor._window_start_s = 720.0 - SLA_DEADLINE_S
        engine.run_until(700.0)
        ledger = governor.ledger
        assert ledger.sla_deadline_misses == 1
        assert not governor.deferring
        # The deadline floor capped the window's deferral at its budget.
        assert ledger.deferral_active_s <= 180.0
        # The spike is still on: deferral restarts in the fresh window.
        engine.run_until(900.0)
        assert governor.deferring
        assert ledger.defer_windows == 2

    def test_blind_governor_meters_without_acting(self):
        engine, _, fleet, governor, _ = build_test_world(
            SPIKE_CONFIG, shaping=False
        )
        engine.run_until(900.0)  # mid-spike
        assert governor.last_score > SHAPE_THRESHOLD
        assert not governor.deferring
        assert governor.applied_scale == {}
        assert governor.ledger.shaped_intervals == 0
        assert governor.ledger.band_adjustments == 0
        assert governor.ledger.defer_windows == 0
        assert len(governor.ledger.samples) == 16
        for server in batch_servers(fleet):
            assert server.turbo.enabled

    def test_governed_run_adds_no_safety_events(self):
        engine, dynamo, _, governor, driver = build_test_world(SPIKE_CONFIG)
        engine.run_until(1800.0)
        assert governor.ledger.shaped_intervals > 0
        assert len(driver.trips) == 0
        assert dynamo.safe_mode_entries() == 0
        assert governor.ledger.sla_deadline_misses == 0


# ---------------------------------------------------------------------------
# Ledger and snapshot/restore
# ---------------------------------------------------------------------------


class TestLedger:
    def test_booking_math(self):
        ledger = CostCarbonLedger()
        sample = ledger.record(
            time_s=60.0,
            interval_s=3600.0,
            power_w=1000.0,
            price_per_kwh=0.10,
            carbon_g_per_kwh=400.0,
            score=0.5,
            shaped=True,
            deferring=False,
        )
        assert sample.energy_kwh == pytest.approx(1.0)
        assert sample.cost == pytest.approx(0.10)
        assert sample.carbon_g == pytest.approx(400.0)
        assert ledger.shaped_intervals == 1
        assert ledger.deferral_active_s == 0.0
        assert ledger.last_sample is sample

    def test_snapshot_round_trip(self):
        ledger = CostCarbonLedger()
        for i in range(3):
            ledger.record(
                time_s=60.0 * i,
                interval_s=60.0,
                power_w=500.0 + i,
                price_per_kwh=0.08,
                carbon_g_per_kwh=420.0,
                score=0.1 * i,
                shaped=i > 0,
                deferring=i == 2,
            )
        ledger.defer_windows = 1
        ledger.sla_deadline_misses = 2
        ledger.band_adjustments = 3
        ledger.deferred_energy_kwh = 0.25

        restored = CostCarbonLedger()
        restored.restore_state(ledger.snapshot_state())
        assert restored.summary() == ledger.summary()
        assert restored.samples == ledger.samples


class TestSnapshotResume:
    def test_mid_deferral_resume_is_bit_exact(self, monkeypatch):
        from repro.state import SnapshotRegistry, fingerprint

        monkeypatch.setitem(
            ECON_SCENARIOS,
            "test-spike-early",
            EconScenario(
                "test-spike-early",
                price_signal="price-spike-early",
                carbon_signal="carbon-flat",
                end_s=1800.0,
            ),
        )

        def build():
            return build_econ_world("test-spike-early", seed=5)

        def world_fp(world):
            return fingerprint(SnapshotRegistry().capture(world).state)

        baseline = build()
        baseline.run_until(1500.0)
        expected = world_fp(baseline)
        assert baseline.governor.ledger.shaped_intervals > 0

        registry = SnapshotRegistry()
        world = build()
        world.run_until(900.0)  # mid-spike: deferral + shaped bands live
        snap = registry.capture(world)
        assert snap.state["economics"]["ledger"]["samples"]
        resumed = registry.restore(snap)
        assert resumed.governor is not None
        assert resumed.governor.applied_scale == world.governor.applied_scale
        resumed.run_until(1500.0)
        assert world_fp(resumed) == expected
