"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.state import world_names


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.split() == [*world_names(), "cascade"]

    def test_every_verb_takes_every_world_name(self):
        parser = build_parser()
        for name in world_names():
            for argv in (
                ["run", name],
                ["snapshot", "save", "--scenario", name, "--out", "x"],
                ["trace", "rpp0", "--scenario", name],
                ["profile", name],
                ["health", "rpp0", "--scenario", name],
                ["attribute", "rpp0", "--scenario", name],
            ):
                parser.parse_args(argv)

    def test_run_requires_scenario(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run"])

    def test_unknown_scenario_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nonsense"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "quickstart"])
        args2 = build_parser().parse_args(
            ["run", "hadoop", "--servers", "40", "--duration-h", "0.5"]
        )
        assert args.servers == 150
        assert args2.servers == 40
        assert args2.duration_h == 0.5

    def test_one_process_one_execution_path(self, capsys):
        """There is no second execution path to select, anywhere.

        No CLI flag picks one, and no field anywhere in the
        ``DynamoConfig`` tree names an execution backend or a shard
        count.
        """
        import dataclasses

        from repro.config import DynamoConfig

        for flag in (["--execution-backend", "sharded"], ["--shards", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["run", "quickstart", *flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

        def field_names(cls):
            for f in dataclasses.fields(cls):
                yield f.name
                if isinstance(f.default_factory, type):
                    yield from field_names(f.default_factory)

        names = list(field_names(DynamoConfig))
        assert "leaf_pull_interval_s" in names  # the walk reaches the leaves
        assert not [
            name
            for name in names
            if "backend" in name or "shard" in name or "execution" in name
        ], names


class TestExecution:
    def test_quickstart_runs_clean(self, capsys):
        code = main(["run", "quickstart", "--duration-h", "0.1"])
        assert code == 0
        assert "0 trips" in capsys.readouterr().out

    def test_hadoop_short_run(self, capsys):
        code = main(
            ["run", "hadoop", "--servers", "24", "--duration-h", "0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SB mean" in out

    def test_cascade_with_dynamo_survives(self, capsys):
        code = main(["run", "cascade", "--seed", "2"])
        assert code == 0
        assert "none" in capsys.readouterr().out

    def test_cascade_without_dynamo_trips(self, capsys):
        code = main(["run", "cascade", "--no-dynamo", "--seed", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "dc" in out


class TestChaosCommand:
    def test_chaos_list(self, capsys):
        from repro.chaos import CHAOS_SCENARIOS

        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in CHAOS_SCENARIOS:
            assert name in out

    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])

    def test_chaos_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "run", "nonsense"])

    def test_chaos_run_once_prints_scorecard(self, capsys):
        code = main(["chaos", "run", "watchdog-restart", "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Robustness scorecard" in out
        assert "replay determinism" not in out

    def test_chaos_run_checks_determinism(self, capsys):
        code = main(["chaos", "run", "watchdog-restart", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical timelines" in out

    def test_chaos_scorecard_includes_trace_metrics(self, capsys):
        code = main(["chaos", "run", "watchdog-restart", "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ticks traced" in out
        assert "invalid ticks" in out


class TestProfileCommand:
    SETUP_PHASES = [
        "topology",
        "populate",
        "Dynamo",
        "stepper bind",
        "agent-batch bind",
        "first cycle",
    ]

    @staticmethod
    def _setup_rows(out: str) -> dict[str, list[str]]:
        """Set-up table rows keyed by phase, as printed, in order."""
        lines = out.splitlines()
        start = next(
            i for i, line in enumerate(lines) if line.startswith("set-up (")
        )
        rows = {}
        for line in lines[start + 2 :]:
            if not line.strip():
                break
            phase, *cells = line.rsplit(None, 6)
            rows[phase.strip()] = cells
        return rows

    def test_setup_table_precedes_the_tick_table(self, capsys):
        code = main(
            [
                "profile",
                "--servers",
                "504",
                "--duration-h",
                "0.005",
                "--top",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("set-up (504 servers):") < out.index("profiled ")
        header = out.splitlines()[1].split()
        assert header == [
            "phase", "wall_s", "objects", "gen0", "gen1", "gen2", "rss_mb"
        ]
        rows = self._setup_rows(out)
        assert list(rows)[:-1] == self.SETUP_PHASES
        for phase in self.SETUP_PHASES:
            wall_s, objects, gen0, gen1, gen2, rss_mb = rows[phase]
            assert float(wall_s) >= 0.0 and float(rss_mb) > 0.0
            assert int(gen0) >= 0 and int(gen1) >= 0 and int(gen2) >= 0
        # the fleet's objects are created where the table says they are
        assert int(rows["populate"][1]) > 504 * 10
        assert int(rows["Dynamo"][1]) > 504 * 4
        assert int(rows["agent-batch bind"][1]) >= 504 * 2
        # and the bulk builders hold the collector off (a young pass can
        # still fire in the few statements between two builders)
        for phase in ("populate", "Dynamo", "stepper bind", "agent-batch bind"):
            gen0, gen1, gen2 = map(int, rows[phase][2:5])
            assert gen0 <= 1 and gen1 <= 1 and gen2 == 0, phase
        total = out.splitlines()[len(self.SETUP_PHASES) + 2].split()
        assert total[0] == "total"
        assert float(total[1]) == pytest.approx(
            sum(float(rows[p][0]) for p in self.SETUP_PHASES), abs=0.01
        )
        # the tick table still follows, with the first cycle's physics in it
        assert "physics" in out and "top 3 functions" in out

    def test_named_scenarios_print_no_setup_table(self, capsys):
        assert main(["profile", "quickstart", "--duration-h", "0.005"]) == 0
        assert "set-up (" not in capsys.readouterr().out

    def test_tick_table_covers_ticks_the_trace_ring_dropped(
        self, capsys, monkeypatch
    ):
        """Stage rows sum every recorded tick, not the ring's tail."""
        import dataclasses

        from repro.core import dynamo
        from repro.telemetry.tracing import TraceBuffer

        rings = []

        class SmallRing(TraceBuffer):
            def __init__(self):
                super().__init__(capacity=8)
                rings.append(self)

            def record(self, trace):
                # powers of two: the totals are exact whatever the order
                super().record(
                    dataclasses.replace(
                        trace,
                        sense_duration_s=1.0,
                        aggregate_duration_s=0.5,
                        decide_duration_s=0.25,
                        actuate_duration_s=0.125,
                    )
                )

        monkeypatch.setattr(dynamo, "TraceBuffer", SmallRing)
        args = ["profile", "quickstart", "--duration-h", "0.01", "--top", "1"]
        assert main(args) == 0
        (ring,) = rings
        assert ring.recorded > ring.capacity == len(ring)
        table = dict(
            line.split()[:2]
            for line in capsys.readouterr().out.splitlines()
            if len(line.split()) == 3 and line.endswith("%")
        )
        assert float(table["sense"]) == ring.recorded
        assert float(table["aggregate"]) == ring.recorded * 0.5
        assert float(table["decide"]) == ring.recorded * 0.25
        assert float(table["actuate"]) == ring.recorded * 0.125


class TestHealthCommand:
    def test_health_quickstart_leaf(self, capsys):
        code = main(["health", "rpp0.0.0", "--duration-h", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rpp0.0.0: mode=normal" in out
        assert "endpoint health" in out
        assert "breaker=closed" in out

    def test_health_counts_fast_lane_calls(self, capsys):
        # Successes served on the batched fast lane count as calls even
        # though they have not been folded into the health records.
        code = main(["health", "rpp0.0.0", "--duration-h", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line for line in out.splitlines() if "agent:" in line]
        assert len(rows) == 9
        for row in rows:
            assert "calls=240/240 retries=0(0 won)" in row
        assert "no calls recorded" not in out

    def test_health_upper_controller_lists_children(self, capsys):
        code = main(["health", "sb0.0", "--duration-h", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ctrl:" in out

    def test_health_chaos_scenario(self, capsys):
        code = main(
            [
                "health",
                "rpp0",
                "--scenario",
                "flaky-fabric-recovery",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "retries=" in out
        assert "opens=0" in out

    def test_health_unknown_device_lists_known(self, capsys):
        code = main(["health", "nonsense", "--duration-h", "0.05"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no controller" in out
        assert "rpp0.0.0" in out


class TestTraceCommand:
    def test_trace_quickstart_prints_ticks_and_metrics(self, capsys):
        code = main(
            ["trace", "rpp0.0.0", "--duration-h", "0.05", "--last", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if "[leaf]" in line]
        assert len(lines) == 5
        assert "ticks traced" in out
        assert "pulls ok/failed/estimated" in out

    def test_trace_chaos_scenario(self, capsys):
        code = main(
            ["trace", "sb0", "--scenario", "watchdog-restart", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[upper]" in out

    def test_trace_unknown_device_lists_known(self, capsys):
        code = main(
            ["trace", "nonsense", "--duration-h", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no traces recorded" in out
        assert "rpp0.0.0" in out


def _without_scenario(envelope):
    """Drop the chaos recipe's scenario and re-seal the envelope.

    What a snapshot captured from such a recipe would hold: the
    integrity hash matches, so the refusal comes from the restore.
    """
    from repro.state import WorldSnapshot

    del envelope["recipe"]["kwargs"]["scenario"]
    envelope["integrity"] = WorldSnapshot(
        recipe=envelope["recipe"], state=envelope["state"]
    ).integrity()


class TestExitCodes:
    """Operational errors exit 2 with a one-line message, not a traceback."""

    def test_missing_snapshot_file_exits_2(self, capsys):
        code = main(["snapshot", "restore", "/nonexistent/missing.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro:" in err
        assert "Traceback" not in err

    def test_corrupted_snapshot_exits_2(self, capsys, tmp_path):
        import json

        from repro.state import SnapshotRegistry, build_quickstart_world

        world = build_quickstart_world(seed=0)
        world.run_until(30.0)
        path = tmp_path / "snap.json"
        SnapshotRegistry().capture(world).save(path)
        envelope = json.loads(path.read_text())
        envelope["state"]["engine"]["now_s"] = 999.0
        path.write_text(json.dumps(envelope))
        code = main(["snapshot", "restore", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupted snapshot" in err

    def test_malformed_recipe_exits_2(self, capsys, tmp_path):
        import dataclasses

        from repro.state import SnapshotRegistry, build_quickstart_world

        world = build_quickstart_world(seed=0)
        world.run_until(9.0)
        snapshot = SnapshotRegistry().capture(world)
        bad = {"builder": "quickstart", "kwargs": {"seed": 0, "bogus": 1}}
        path = dataclasses.replace(snapshot, recipe=bad).save(
            tmp_path / "snap.json"
        )
        code = main(["snapshot", "restore", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def chaos_envelope(self):
        from repro.state import SnapshotRegistry, build_world, named_recipe

        world = build_world(named_recipe("sb-outage", seed=7))
        world.run_until(30.0)
        return SnapshotRegistry().capture(world).to_envelope()

    @pytest.mark.parametrize(
        "verb", [["snapshot", "restore"], ["chaos", "run", "--resume"]]
    )
    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda e: e.pop("recipe"), "malformed recipe None"),
            (lambda e: e.update(recipe=["chaos"]), "malformed recipe ['chaos']"),
            (lambda e: e.update(schema_version="x"), "malformed schema_version"),
            (_without_scenario, "scenario"),
        ],
        ids=["no-recipe", "list-recipe", "text-version", "no-scenario"],
    )
    def test_malformed_envelope_exits_2(
        self, capsys, tmp_path, chaos_envelope, verb, damage, named
    ):
        import copy
        import json

        envelope = copy.deepcopy(chaos_envelope)
        damage(envelope)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(envelope))
        assert main([*verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro: snapshot error" in err and named in err
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def econ_envelope(self):
        from repro.state import SnapshotRegistry, build_world, named_recipe

        world = build_world(named_recipe("price-spike-day", seed=3))
        world.run_until(60.0)
        return SnapshotRegistry().capture(world).to_envelope()

    @pytest.mark.parametrize("key, value", [("seed", 4), ("governed", False)])
    def test_edited_recipe_exits_2(
        self, capsys, tmp_path, econ_envelope, key, value
    ):
        import copy
        import json

        envelope = copy.deepcopy(econ_envelope)
        envelope["recipe"]["kwargs"][key] = value
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(envelope))
        assert main(["snapshot", "restore", str(path)]) == 2
        err = capsys.readouterr().err
        assert "failed integrity verification" in err
        assert "Traceback" not in err

    def test_schema_version_mismatch_exits_2(self, capsys, tmp_path):
        import json

        from repro.state import SnapshotRegistry, build_quickstart_world

        world = build_quickstart_world(seed=0)
        world.run_until(30.0)
        path = tmp_path / "snap.json"
        SnapshotRegistry().capture(world).save(path)
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = 99
        path.write_text(json.dumps(envelope))
        code = main(["snapshot", "restore", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "incompatible snapshot" in err
        assert "re-capture" in err


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8640
        assert args.max_sessions == 64

    def test_serve_parser_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000",
             "--max-sessions", "4"]
        )
        assert (args.host, args.port, args.max_sessions) == (
            "0.0.0.0", 9000, 4
        )


class TestEconCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["econ"])
        assert args.scenario == "price-spike-day"
        assert args.hours is None
        assert not args.compare and not args.blind

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["econ", "free-energy-day"])

    def test_flat_day_runs_clean(self, capsys):
        code = main(["econ", "flat-day", "--hours", "0.2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cost/carbon scorecard" in out
        assert "flat-day (governed)" in out

    def test_compare_prints_delta_and_safety(self, capsys):
        code = main(
            ["econ", "flat-day", "--hours", "0.2", "--seed", "1",
             "--compare"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flat-day (governed)" in out
        assert "flat-day (blind)" in out
        assert "delta (governed - blind)" in out
        assert "no additional trips" in out


class TestSignalsCommand:
    def test_signals_list(self, capsys):
        from repro.economics.signals import SIGNALS

        assert main(["signals", "list"]) == 0
        out = capsys.readouterr().out
        for name in SIGNALS:
            assert name in out

    def test_unknown_signal_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["signals", "price-of-tea"])

    def test_signal_summary_renders(self, capsys):
        code = main(["signals", "price-spike-day"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Signal summary: price-spike-day" in out
        assert "lowest" in out and "highest" in out
