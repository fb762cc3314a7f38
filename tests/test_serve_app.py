"""Tests for the serve app layer: routing, handlers, error mapping.

Drives :meth:`~repro.serve.app.ServeApp.handle` directly with in-process
:class:`~repro.serve.app.Request` objects — no sockets — so these cover
the handler logic independent of the asyncio transport.
"""

import json

import pytest

from repro.serve import Request, ServeApp
from repro.serve.sessions import SessionManager
from repro.state import SnapshotRegistry, build_quickstart_world


@pytest.fixture(scope="module")
def warm_snapshot_path(tmp_path_factory):
    """A quickstart world checkpointed at t=60 s."""
    world = build_quickstart_world(seed=3)
    world.run_until(60.0)
    path = tmp_path_factory.mktemp("serve-snapshots") / "warm.json"
    SnapshotRegistry().capture(world).save(path)
    return path


@pytest.fixture
def app():
    application = ServeApp()
    yield application
    application.manager.close_all()


def call(app, method, target, payload=None):
    response = app.handle(Request.make(method, target, payload=payload))
    return response.status, response.json()


def make_session(app, **spec):
    if not spec.keys() & {"scenario", "recipe", "snapshot_path", "snapshot"}:
        spec["scenario"] = "quickstart"
    spec = {k: v for k, v in spec.items() if v is not None}
    status, body = call(app, "POST", "/sessions", spec)
    assert status == 201
    return body["id"]


class TestLifecycle:
    def test_healthz(self, app):
        status, body = call(app, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "sessions": 0}

    def test_create_list_get_delete(self, app):
        sid = make_session(app, seed=1)
        status, listing = call(app, "GET", "/sessions")
        assert status == 200
        assert [s["id"] for s in listing["sessions"]] == [sid]
        status, view = call(app, "GET", f"/sessions/{sid}")
        assert status == 200
        assert view["server_count"] == 36
        assert view["time_s"] == 0.0
        status, body = call(app, "DELETE", f"/sessions/{sid}")
        assert (status, body) == (200, {"deleted": sid})
        assert call(app, "GET", "/sessions")[1] == {"sessions": []}

    def test_create_from_snapshot_path(self, app, warm_snapshot_path):
        sid = make_session(
            app, scenario=None, snapshot_path=str(warm_snapshot_path)
        )
        _, view = call(app, "GET", f"/sessions/{sid}")
        assert view["time_s"] == pytest.approx(60.0)

    def test_create_from_posted_envelope(self, app, warm_snapshot_path):
        envelope = json.loads(warm_snapshot_path.read_text())
        sid = make_session(app, scenario=None, snapshot=envelope)
        _, view = call(app, "GET", f"/sessions/{sid}")
        assert view["time_s"] == pytest.approx(60.0)

    def test_fork_index_differentiates_branches(self, app, warm_snapshot_path):
        a = make_session(
            app, scenario=None, snapshot_path=str(warm_snapshot_path),
            fork_index=0,
        )
        b = make_session(
            app, scenario=None, snapshot_path=str(warm_snapshot_path),
            fork_index=1,
        )
        for sid in (a, b):
            call(app, "POST", f"/sessions/{sid}/step", {"until_s": 120.0})
        fp_a = app.manager.get(a).fingerprint()
        fp_b = app.manager.get(b).fingerprint()
        assert fp_a != fp_b

    def test_session_limit_maps_to_409(self, warm_snapshot_path):
        app = ServeApp(SessionManager(max_sessions=1))
        try:
            make_session(app)
            status, body = call(
                app, "POST", "/sessions", {"scenario": "quickstart"}
            )
            assert status == 409
            assert "session limit" in body["error"]
        finally:
            app.manager.close_all()

    @pytest.mark.parametrize(
        "name, start_s", [("altoona", 11 * 3600.0), ("price-spike-day", 0.0)]
    )
    def test_create_any_named_world(self, app, name, start_s):
        # A case-study world and an econ day: the same names the CLI
        # takes, through the same resolver.
        sid = make_session(app, scenario=name, seed=1)
        _, view = call(app, "GET", f"/sessions/{sid}")
        assert view["time_s"] == pytest.approx(start_s)
        status, body = call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 6.0})
        assert status == 200
        assert body["time_s"] == pytest.approx(start_s + 6.0)

    def test_unknown_world_name_is_400(self, app):
        status, body = call(app, "POST", "/sessions", {"scenario": "nope"})
        assert status == 400
        assert "unknown world 'nope'" in body["error"]

    def test_create_requires_exactly_one_origin(self, app, warm_snapshot_path):
        status, body = call(app, "POST", "/sessions", {})
        assert status == 400
        status, body = call(
            app,
            "POST",
            "/sessions",
            {
                "scenario": "quickstart",
                "snapshot_path": str(warm_snapshot_path),
            },
        )
        assert status == 400
        assert "exactly one" in body["error"]


class TestStepAndObserve:
    def test_step_dt(self, app):
        sid = make_session(app)
        status, body = call(
            app, "POST", f"/sessions/{sid}/step", {"dt_s": 60.0}
        )
        assert status == 200
        assert body["time_s"] == pytest.approx(60.0)
        assert body["advanced_s"] == pytest.approx(60.0)
        assert body["events_executed"] > 0

    def test_step_needs_exactly_one_of_dt_until(self, app):
        sid = make_session(app)
        assert call(app, "POST", f"/sessions/{sid}/step", {})[0] == 400
        assert (
            call(
                app,
                "POST",
                f"/sessions/{sid}/step",
                {"dt_s": 1.0, "until_s": 2.0},
            )[0]
            == 400
        )

    def test_step_backwards_rejected(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 60.0})
        status, body = call(
            app, "POST", f"/sessions/{sid}/step", {"until_s": 30.0}
        )
        assert status == 400

    def test_tree_view(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 30.0})
        status, tree = call(app, "GET", f"/sessions/{sid}/tree?depth=1")
        assert status == 200
        assert tree["total_power_w"] > 0
        root = tree["roots"][0]
        assert root["level"] == "msb"
        # depth=1: root plus its children, which carry no grandchildren
        assert all("children" not in c for c in root["children"])

    def test_controllers_view(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 30.0})
        status, body = call(app, "GET", f"/sessions/{sid}/controllers")
        assert status == 200
        kinds = {c["kind"] for c in body["controllers"]}
        assert kinds == {"leaf", "upper"}
        status, one = call(
            app, "GET", f"/sessions/{sid}/controllers/rpp0.0.0"
        )
        assert status == 200
        assert one["mode"] == "normal"
        status, body = call(app, "GET", f"/sessions/{sid}/controllers/nope")
        assert status == 404
        assert "known" in body["error"]

    def test_health_view(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 30.0})
        status, body = call(app, "GET", f"/sessions/{sid}/health")
        assert status == 200
        assert set(body["modes"].values()) == {"normal"}
        assert body["pending_serve_faults"] == []

    def test_health_view_lists_every_agent_endpoint(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 30.0})
        session = app.manager.get(sid)
        batch = session.world.dynamo.agent_batch
        pending = batch.fast_successes.copy()
        assert pending.sum() > 0
        status, body = call(app, "GET", f"/sessions/{sid}/health")
        assert status == 200
        agents = [
            e for e in body["endpoints"] if e["endpoint"].startswith("agent:")
        ]
        assert len(agents) == 36
        for entry in agents:
            assert entry["attempts"] == entry["successes"] == 10
        # a view folds pending fast-lane successes in without moving them
        assert (batch.fast_successes == pending).all()


class TestActions:
    def test_band_change_applies(self, app):
        sid = make_session(app)
        status, body = call(
            app,
            "POST",
            f"/sessions/{sid}/band",
            {
                "device": "sb0.0",
                "capping_threshold": 0.9,
                "capping_target": 0.82,
                "uncapping_threshold": 0.72,
            },
        )
        assert status == 200
        session = app.manager.get(sid)
        band = session.world.dynamo.controller("sb0.0").band.config
        assert band.capping_threshold == pytest.approx(0.9)

    def test_invalid_band_rejected(self, app):
        sid = make_session(app)
        status, body = call(
            app,
            "POST",
            f"/sessions/{sid}/band",
            {
                "device": "sb0.0",
                "capping_threshold": 0.5,
                "capping_target": 0.9,  # target above threshold: invalid
                "uncapping_threshold": 0.72,
            },
        )
        assert status == 400

    def test_fault_inject_and_recovery_at_deadline(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 60.0})
        status, body = call(
            app,
            "POST",
            f"/sessions/{sid}/faults",
            {"kind": "sensor-dropout", "duration_s": 60.0},
        )
        assert status == 200
        assert body["end_s"] == pytest.approx(120.0)
        _, health = call(app, "GET", f"/sessions/{sid}/health")
        assert len(health["pending_serve_faults"]) == 1
        session = app.manager.get(sid)
        assert all(
            s.sensor is None for s in session.world.fleet.servers.values()
        )
        call(app, "POST", f"/sessions/{sid}/step", {"until_s": 150.0})
        _, health = call(app, "GET", f"/sessions/{sid}/health")
        assert health["pending_serve_faults"] == []
        assert all(
            s.sensor is not None
            for s in session.world.fleet.servers.values()
        )

    def test_unknown_fault_kind_rejected(self, app):
        sid = make_session(app)
        status, body = call(
            app, "POST", f"/sessions/{sid}/faults", {"kind": "warp-core"}
        )
        assert status == 400
        assert "unknown fault kind" in body["error"]

    def test_bad_fault_target_rejected_without_mutation(self, app):
        sid = make_session(app)
        status, body = call(
            app,
            "POST",
            f"/sessions/{sid}/faults",
            {
                "kind": "power-surge",
                "duration_s": 60.0,
                "targets": ["sb0.0"],
            },
        )
        assert status == 400
        assert "server ids" in body["error"]
        _, health = call(app, "GET", f"/sessions/{sid}/health")
        assert health["pending_serve_faults"] == []

    def test_failover_enable_fail_restore(self, app):
        sid = make_session(app)
        for action, healthy in (
            ("enable", True),
            ("fail", False),
            ("restore", True),
        ):
            status, body = call(
                app,
                "POST",
                f"/sessions/{sid}/failover",
                {"device": "msb0", "action": action},
            )
            assert status == 200
            assert body["primary_healthy"] is healthy
        status, body = call(
            app,
            "POST",
            f"/sessions/{sid}/failover",
            {"device": "msb0", "action": "explode"},
        )
        assert status == 400


class TestSnapshotRestore:
    def test_roundtrip_restores_fingerprint(self, app, tmp_path):
        sid = make_session(app, seed=5)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 90.0})
        path = tmp_path / "live.json"
        status, summary = call(
            app,
            "POST",
            f"/sessions/{sid}/snapshot",
            {"path": str(path)},
        )
        assert status == 200
        assert summary["fingerprint"].startswith("sha256:")
        before = app.manager.get(sid).fingerprint()
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 60.0})
        assert app.manager.get(sid).fingerprint() != before
        status, body = call(
            app,
            "POST",
            f"/sessions/{sid}/restore",
            {"path": str(path)},
        )
        assert status == 200
        assert body["time_s"] == pytest.approx(90.0)
        assert app.manager.get(sid).fingerprint() == before

    def test_snapshot_include_state_inlines_envelope(self, app):
        sid = make_session(app)
        status, summary = call(
            app, "POST", f"/sessions/{sid}/snapshot", {"include_state": True}
        )
        assert status == 200
        envelope = summary["snapshot"]
        assert envelope["format"] == "repro-world-snapshot"
        # and the inlined envelope restores over the wire
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 30.0})
        status, body = call(
            app, "POST", f"/sessions/{sid}/restore", {"snapshot": envelope}
        )
        assert status == 200
        assert body["time_s"] == pytest.approx(0.0)

    def test_restore_drops_pending_serve_faults(self, app, tmp_path):
        sid = make_session(app)
        path = tmp_path / "clean.json"
        call(app, "POST", f"/sessions/{sid}/snapshot", {"path": str(path)})
        call(
            app,
            "POST",
            f"/sessions/{sid}/faults",
            {"kind": "sensor-dropout", "duration_s": 300.0},
        )
        status, body = call(
            app, "POST", f"/sessions/{sid}/restore", {"path": str(path)}
        )
        assert status == 200
        assert body["dropped_serve_faults"] == 1
        _, health = call(app, "GET", f"/sessions/{sid}/health")
        assert health["pending_serve_faults"] == []

    def test_restore_rejects_bad_envelope(self, app):
        sid = make_session(app)
        status, body = call(
            app,
            "POST",
            f"/sessions/{sid}/restore",
            {"snapshot": {"format": "nonsense"}},
        )
        assert status == 400

    @pytest.mark.parametrize("key, value", [("seed", 4), ("governed", False)])
    def test_restore_rejects_edited_recipe(self, app, key, value):
        sid = make_session(app, scenario="price-spike-day", seed=3)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 60.0})
        status, summary = call(
            app, "POST", f"/sessions/{sid}/snapshot", {"include_state": True}
        )
        assert status == 200
        envelope = summary["snapshot"]
        envelope["recipe"]["kwargs"][key] = value
        status, body = call(
            app, "POST", f"/sessions/{sid}/restore", {"snapshot": envelope}
        )
        assert status == 400
        assert "integrity" in body["error"]

    def test_restore_needs_exactly_one_source(self, app):
        sid = make_session(app)
        assert call(app, "POST", f"/sessions/{sid}/restore", {})[0] == 400


class TestStream:
    def drain(self, app, target):
        response = app.handle(Request.make("GET", target))
        assert response.status == 200
        return [
            json.loads(line)
            for line in response.stream
            if line is not None
        ]

    def test_trace_stream_with_limit(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 60.0})
        records = self.drain(
            app, f"/sessions/{sid}/stream?kind=traces&limit=5"
        )
        assert len(records) == 5
        assert all("controller" in r for r in records)

    def test_trace_stream_controller_filter(self, app):
        sid = make_session(app)
        call(app, "POST", f"/sessions/{sid}/step", {"dt_s": 60.0})
        records = self.drain(
            app,
            f"/sessions/{sid}/stream?kind=traces&controller=rpp0.0.0",
        )
        assert records
        assert {r["controller"] for r in records} == {"rpp0.0.0"}

    def test_log_stream_records_actions(self, app):
        sid = make_session(app)
        call(
            app,
            "POST",
            f"/sessions/{sid}/faults",
            {"kind": "sensor-dropout", "duration_s": 10.0},
        )
        records = self.drain(app, f"/sessions/{sid}/stream?kind=log")
        assert any(r["kind"] == "inject.sensor-dropout" for r in records)

    def test_unknown_kind_rejected(self, app):
        sid = make_session(app)
        status, body = call(
            app, "GET", f"/sessions/{sid}/stream?kind=nonsense"
        )
        assert status == 400


class TestErrorMapping:
    def test_unknown_session_is_404(self, app):
        for method, target in (
            ("GET", "/sessions/zz"),
            ("DELETE", "/sessions/zz"),
            ("GET", "/sessions/zz/tree"),
            ("POST", "/sessions/zz/step"),
        ):
            status, body = call(app, method, target, {"dt_s": 1.0})
            assert status == 404, target

    def test_unknown_route_is_404(self, app):
        assert call(app, "GET", "/nope")[0] == 404

    def test_wrong_method_is_405(self, app):
        assert call(app, "PUT", "/sessions")[0] == 405

    @pytest.mark.parametrize(
        "kwargs", [{"seed": 0, "bogus": 1}, ["seed", 0]]
    )
    def test_malformed_recipe_is_400(self, app, kwargs):
        status, body = call(
            app,
            "POST",
            "/sessions",
            {"recipe": {"builder": "quickstart", "kwargs": kwargs}},
        )
        assert status == 400
        assert "quickstart" in body["error"]
        assert len(app.manager) == 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda e: e.pop("recipe"),
            lambda e: e.update(recipe=["chaos"]),
            lambda e: e.update(schema_version="x"),
            lambda e: e.pop("state"),
        ],
        ids=["no-recipe", "list-recipe", "text-version", "no-state"],
    )
    def test_malformed_snapshot_envelope_is_400(
        self, app, warm_snapshot_path, damage
    ):
        envelope = json.loads(warm_snapshot_path.read_text())
        damage(envelope)
        status, body = call(app, "POST", "/sessions", {"snapshot": envelope})
        assert status == 400
        assert "posted snapshot" in body["error"]
        assert len(app.manager) == 0

    def test_malformed_json_is_400(self, app):
        response = app.handle(
            Request(method="POST", path="/sessions", body=b"{nope")
        )
        assert response.status == 400
