"""Tests for the snapshot subsystem: bit-exact checkpoint/restore.

The correctness bar is byte-identity: run-to-T → snapshot → restore →
run-to-2T must produce the same state fingerprint as an uninterrupted
run-to-2T — for a plain fleet, a fleet mid-capping-event, a fleet under
an active chaos fault, and controllers in SAFE posture.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.failover import FailoverController
from repro.errors import (
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)
from repro.state import (
    SnapshotRegistry,
    WorldSnapshot,
    build_quickstart_world,
    build_world,
    fingerprint,
    named_recipe,
    world_names,
)


def named_world(name: str, seed: int):
    return build_world(named_recipe(name, seed=seed))


def world_fingerprint(world) -> str:
    return fingerprint(SnapshotRegistry().capture(world).state)


def resumed_fingerprint(build, snapshot_s: float, end_s: float) -> str:
    """Build, run to ``snapshot_s``, snapshot, restore, run to ``end_s``."""
    registry = SnapshotRegistry()
    world = build()
    world.run_until(snapshot_s)
    snapshot = registry.capture(world)
    resumed = registry.restore(snapshot)
    assert resumed.now_s == pytest.approx(snapshot_s)
    resumed.run_until(end_s)
    return world_fingerprint(resumed)


def uninterrupted_fingerprint(build, end_s: float) -> str:
    world = build()
    world.run_until(end_s)
    return world_fingerprint(world)


class TestBitExactResume:
    def test_plain_fleet(self):
        build = lambda: build_quickstart_world(seed=0)  # noqa: E731
        assert resumed_fingerprint(build, 60.0, 120.0) == (
            uninterrupted_fingerprint(build, 120.0)
        )

    def test_mid_capping_event(self):
        # sb-outage holds rpp0/rpp1/sb0 in active capping through
        # t=600 s; the snapshot lands in the middle of the episode.
        build = lambda: named_world("sb-outage", seed=7)  # noqa: E731
        registry = SnapshotRegistry()
        world = build()
        world.run_until(600.0)
        snapshot = registry.capture(world)
        capping = [
            c.name
            for c in world.dynamo.hierarchy.all_controllers
            if getattr(
                getattr(getattr(c, "active", c), "band", None),
                "capping_active",
                False,
            )
        ]
        assert capping, "snapshot must land mid-capping-event"
        resumed = registry.restore(snapshot)
        resumed.run_until(900.0)
        world.run_until(900.0)
        assert world_fingerprint(resumed) == world_fingerprint(world)

    def test_under_active_chaos_fault(self):
        # At t=900 s the sb-outage fault is injected and not yet
        # recovered: the snapshot must carry the armed recovery timer
        # and the fault's saved world state.
        build = lambda: named_world("sb-outage", seed=7)  # noqa: E731
        registry = SnapshotRegistry()
        world = build()
        world.run_until(900.0)
        snapshot = registry.capture(world)
        faults = snapshot.state["orchestrator"]["faults"]
        assert any(f["injected"] and not f["recovered"] for f in faults)
        resumed = registry.restore(snapshot)
        end_s = world.end_s
        resumed.run_until(end_s)
        world.run_until(end_s)
        assert world_fingerprint(resumed) == world_fingerprint(world)

    def test_in_safe_mode(self):
        # The partition scenario drives leaf controllers into SAFE
        # posture around t=150-300 s; snapshot inside that window.
        build = lambda: named_world("partition", seed=7)  # noqa: E731
        registry = SnapshotRegistry()
        world = build()
        world.run_until(210.0)
        postures = {
            getattr(getattr(c, "active", c), "modes").mode.value
            for c in world.dynamo.hierarchy.all_controllers
            if getattr(getattr(c, "active", c), "modes", None) is not None
        }
        assert "safe" in postures
        snapshot = registry.capture(world)
        resumed = registry.restore(snapshot)
        resumed.run_until(450.0)
        world.run_until(450.0)
        assert world_fingerprint(resumed) == world_fingerprint(world)

    def test_vectorized_control_plain_fleet(self):
        # The batched control plane prefetches sensor noise and defers
        # breaker/health materialization; capture must flush both so a
        # resumed run continues the identical trajectory.
        build = lambda: build_quickstart_world(seed=0)  # noqa: E731
        assert resumed_fingerprint(build, 60.0, 120.0) == (
            uninterrupted_fingerprint(build, 120.0)
        )

    def test_vectorized_control_under_chaos_campaign(self):
        # Snapshot mid-campaign at t=650 s: an rpc-flaky fault (582 s to
        # 680 s) has part of the group on the scalar lane with pending
        # fast-path successes on the rest, so the capture carries the
        # control_batch section plus armed per-endpoint faults.
        build = lambda: named_world("campaign", seed=7)  # noqa: E731
        assert resumed_fingerprint(build, 650.0, 900.0) == (
            uninterrupted_fingerprint(build, 900.0)
        )

    def test_restore_in_fresh_process(self, tmp_path):
        # The snapshot must be self-contained: a brand-new interpreter
        # loading the file continues the exact trajectory.
        registry = SnapshotRegistry()
        world = build_quickstart_world(seed=11)
        world.run_until(60.0)
        path = tmp_path / "warm.json"
        registry.capture(world).save(path)
        world.run_until(120.0)
        expected = world_fingerprint(world)
        script = (
            "from repro.state import SnapshotRegistry, WorldSnapshot, fingerprint\n"
            "registry = SnapshotRegistry()\n"
            f"world = registry.restore(WorldSnapshot.load({str(path)!r}))\n"
            "world.run_until(120.0)\n"
            "print(fingerprint(registry.capture(world).state))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == expected


#: Seconds each named world runs before and after its capture, from its
#: start: long enough for every periodic process to have fired.
RESUME_T_S = 60.0


class TestEveryNamedWorldResumes:
    @pytest.mark.parametrize("name", world_names())
    def test_resume_through_the_envelope_is_bit_exact(self, name):
        """Run to T, capture, save/load, restore, run to 2T: no drift."""
        registry = SnapshotRegistry()
        world = named_world(name, seed=1)
        capture_s = world.start_s + RESUME_T_S
        end_s = capture_s + RESUME_T_S
        world.run_until(capture_s)
        envelope = json.loads(json.dumps(registry.capture(world).to_envelope()))
        resumed = registry.restore(WorldSnapshot.from_envelope(envelope))
        assert resumed.name == world.name
        assert resumed.now_s == pytest.approx(capture_s)
        resumed.run_until(end_s)
        world.run_until(end_s)
        assert world_fingerprint(resumed) == world_fingerprint(world)


class TestChaosCampaignResume:
    def test_scorecard_matches_uninterrupted_run(self, tmp_path):
        from repro.chaos import build_scorecard

        registry = SnapshotRegistry()
        baseline = named_world("watchdog-restart", seed=7)
        end_s = baseline.end_s
        baseline.run_until(end_s)
        baseline_score = build_scorecard(baseline)

        world = named_world("watchdog-restart", seed=7)
        world.run_until(end_s / 2)
        path = tmp_path / "campaign.json"
        registry.capture(world).save(path)
        resumed = registry.restore(WorldSnapshot.load(path))
        resumed.run_until(end_s)
        assert (
            resumed.orchestrator.timeline_fingerprint()
            == baseline.orchestrator.timeline_fingerprint()
        )
        assert build_scorecard(resumed) == baseline_score

    def test_cli_resume_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "campaign.json"
        registry = SnapshotRegistry()
        world = named_world("watchdog-restart", seed=7)
        world.run_until(300.0)
        registry.capture(world).save(path)
        assert main(["chaos", "run", "--resume", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resumed 'watchdog-restart'" in out
        assert "Robustness scorecard" in out

    def test_cli_resume_rejects_non_chaos_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "quickstart.json"
        world = build_quickstart_world(seed=0)
        world.run_until(30.0)
        SnapshotRegistry().capture(world).save(path)
        assert main(["chaos", "run", "--resume", str(path)]) == 2


class TestEnvelope:
    def make_snapshot(self, tmp_path) -> Path:
        world = build_quickstart_world(seed=0)
        world.run_until(30.0)
        path = tmp_path / "world.json"
        SnapshotRegistry().capture(world).save(path)
        return path

    def test_round_trip(self, tmp_path):
        path = self.make_snapshot(tmp_path)
        snapshot = WorldSnapshot.load(path)
        assert snapshot.builder == "quickstart"
        assert snapshot.time_s == pytest.approx(30.0)
        assert snapshot.integrity().startswith("sha256:")

    def test_incompatible_version_is_rejected(self, tmp_path):
        path = self.make_snapshot(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotVersionError) as excinfo:
            WorldSnapshot.load(path)
        assert excinfo.value.found == 999

    def test_tampered_state_is_rejected(self, tmp_path):
        path = self.make_snapshot(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["state"]["engine"]["now"] += 1.0
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotIntegrityError):
            WorldSnapshot.load(path)

    @pytest.fixture(scope="class")
    def econ_envelope(self):
        world = named_world("price-spike-day", seed=3)
        world.run_until(60.0)
        return SnapshotRegistry().capture(world).to_envelope()

    @pytest.mark.parametrize("key, value", [("seed", 4), ("governed", False)])
    def test_edited_recipe_is_rejected(self, econ_envelope, key, value):
        # The recipe rebuilds the world the state is restored into: an
        # edited seed or governor flag fails the integrity hash.
        envelope = json.loads(json.dumps(econ_envelope))
        assert envelope["recipe"]["kwargs"][key] != value
        envelope["recipe"]["kwargs"][key] = value
        with pytest.raises(SnapshotIntegrityError):
            WorldSnapshot.from_envelope(envelope)

    def test_arbitrary_json_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(SnapshotError):
            WorldSnapshot.load(path)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            WorldSnapshot.load(tmp_path / "absent.json")


class TestMalformedRecipes:
    """A recipe whose kwargs do not bind to its builder is refused."""

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"bogus": 1}, "bogus"),
            ([["seed", 0]], "mapping"),
            ("seed=0", "mapping"),
        ],
    )
    def test_bad_kwargs_name_the_problem(self, kwargs, named):
        recipe = {"builder": "quickstart", "kwargs": kwargs}
        with pytest.raises(SnapshotError, match=named):
            build_world(recipe)

    def test_missing_required_kwarg(self):
        with pytest.raises(SnapshotError, match="scenario"):
            build_world({"builder": "chaos", "kwargs": {"seed": 7}})

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda e: e.pop("recipe"), "malformed recipe"),
            (lambda e: e.update(recipe=["chaos"]), "malformed recipe"),
            (lambda e: e.update(recipe={"kwargs": {}}), "malformed recipe"),
            (lambda e: e.update(schema_version="x"), "schema_version"),
            (lambda e: e.pop("state"), "no state"),
        ],
    )
    def test_malformed_envelope_is_refused(self, damage, named):
        # The envelope's fields are checked by shape before the
        # integrity hash, each refusal a SnapshotError naming its field.
        world = named_world("sb-outage", seed=7)
        world.run_until(9.0)
        envelope = SnapshotRegistry().capture(world).to_envelope()
        damage(envelope)
        with pytest.raises(SnapshotError, match=named):
            WorldSnapshot.from_envelope(envelope)

    def test_chaos_recipe_without_scenario_is_refused(self):
        world = named_world("sb-outage", seed=7)
        world.run_until(9.0)
        snapshot = SnapshotRegistry().capture(world)
        sealed = dataclasses.replace(
            snapshot, recipe={"builder": "chaos", "kwargs": {"seed": 7}}
        )
        snapshot = WorldSnapshot.from_envelope(sealed.to_envelope())
        with pytest.raises(SnapshotError, match="scenario"):
            SnapshotRegistry().restore(snapshot)

    def test_envelope_recipe_with_backend_keys_is_refused(self):
        # Recipes captured before every world ran the array lane carry
        # the two backend keys; restoring one fails loudly by name.
        world = build_quickstart_world(seed=0)
        world.run_until(9.0)
        snapshot = SnapshotRegistry().capture(world)
        old = dataclasses.replace(
            snapshot,
            recipe={
                "builder": "quickstart",
                "kwargs": {
                    "seed": 0,
                    "physics_backend": "scalar",
                    "control_backend": "scalar",
                },
            },
        )
        restored = WorldSnapshot.from_envelope(old.to_envelope())
        with pytest.raises(SnapshotError) as excinfo:
            SnapshotRegistry().restore(restored)
        assert "control_backend" in str(excinfo.value)
        assert "physics_backend" in str(excinfo.value)


class TestCaptureGuards:
    def test_world_without_recipe_is_rejected(self):
        from repro.chaos import CHAOS_SCENARIOS

        world = CHAOS_SCENARIOS["sb-outage"](seed=7)
        world.start()
        with pytest.raises(SnapshotError, match="no recipe"):
            SnapshotRegistry().capture(world)

    def test_unknown_pending_event_is_rejected(self):
        world = build_quickstart_world(seed=0)
        world.run_until(10.0)
        world.engine.schedule_at(99.0, lambda: None, label="custom")
        with pytest.raises(SnapshotError, match="pending events"):
            SnapshotRegistry().capture(world)

    def test_failover_pairs_round_trip(self):
        world = named_world("upper-controller-crash", seed=7)
        world.run_until(world.end_s / 2)
        snapshot = SnapshotRegistry().capture(world)
        assert snapshot.state["failover_devices"]
        resumed = SnapshotRegistry().restore(snapshot)
        pairs = [
            c
            for c in dict(
                resumed.dynamo.hierarchy.upper_controllers
            ).values()
            if isinstance(c, FailoverController)
        ]
        assert pairs
