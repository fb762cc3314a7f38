"""End-to-end tests: real asyncio server, real sockets, stdlib client.

Covers the transport (keep-alive, chunked streaming, error statuses over
the wire) and the concurrent-session isolation contract: a session that
receives chaos faults and configuration changes must not perturb a
sibling forked from the same snapshot by a single byte.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve import ServeClient, ServeClientError, ServeServer
from repro.state import (
    SnapshotRegistry,
    build_quickstart_world,
    fingerprint,
    fork_inprocess,
)


@pytest.fixture(scope="module")
def warm_snapshot_path(tmp_path_factory):
    """A quickstart world checkpointed at t=60 s."""
    world = build_quickstart_world(seed=3)
    world.run_until(60.0)
    path = tmp_path_factory.mktemp("serve-http") / "warm.json"
    SnapshotRegistry().capture(world).save(path)
    return path


@pytest.fixture
def server():
    with ServeServer() as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


class TestTransport:
    def test_healthz_over_the_wire(self, client):
        assert client.healthz()["status"] == "ok"

    def test_keep_alive_reuses_one_connection(self, client):
        sid = client.create_session(scenario="quickstart")["id"]
        first = client._connection()
        client.step(sid, dt_s=30.0)
        client.tree(sid, depth=0)
        assert client._connection() is first

    def test_error_statuses_over_the_wire(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.tree("zz")
        assert excinfo.value.status == 404
        with pytest.raises(ServeClientError) as excinfo:
            client.create_session()
        assert excinfo.value.status == 400

    def test_stream_traces_chunked(self, client):
        sid = client.create_session(scenario="quickstart")["id"]
        client.step(sid, dt_s=60.0)
        records = list(client.stream(sid, kind="traces", limit=10))
        assert len(records) == 10
        assert all("controller" in r for r in records)
        # the plain connection still works after a streamed one closed
        assert client.session(sid)["time_s"] == pytest.approx(60.0)

    def test_create_from_snapshot_over_the_wire(
        self, client, warm_snapshot_path
    ):
        view = client.create_session(snapshot_path=str(warm_snapshot_path))
        assert view["time_s"] == pytest.approx(60.0)

    def test_concurrent_clients(self, server):
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                with ServeClient(server.host, server.port) as c:
                    sid = c.create_session(
                        scenario="quickstart", seed=index
                    )["id"]
                    # every session its own distance: a clock that lands
                    # anywhere else had another session's step leak in
                    own_s = 30.0 * (index + 1)
                    c.step(sid, dt_s=own_s)
                    assert c.tree(sid, depth=0)["total_power_w"] > 0
                    assert c.session(sid)["time_s"] == pytest.approx(own_s)
                    traces = list(c.stream(sid, kind="traces", limit=10))
                    assert len(traces) == 10
                    c.delete_session(sid)
            except Exception as exc:  # surfaced below with context
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not errors

    def test_ticker_advances_in_real_time(self, client):
        sid = client.create_session(scenario="quickstart")["id"]
        state = client.ticker(sid, ratio=120.0, interval_s=0.02, running=True)
        assert state["running"] is True
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.session(sid)["time_s"] > 0.0:
                break
            time.sleep(0.05)
        else:
            pytest.fail("ticker never advanced the session")
        state = client.ticker(sid, running=False)
        assert state["running"] is False
        frozen = client.session(sid)["time_s"]
        time.sleep(0.1)
        assert client.session(sid)["time_s"] == pytest.approx(frozen)


def _raw_exchange(server, payload: bytes) -> bytes:
    """Send ``payload`` on a fresh socket; everything the server answers."""
    with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server may hang up on a request it already refused
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestMalformedFraming:
    """Bad framing is answered with a 400 and a close, never a dropped
    socket or an unhandled task exception — and never takes the server
    down for the next client."""

    @pytest.mark.parametrize(
        "payload, complaint",
        [
            (
                b"POST /sessions HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                "Content-Length",
            ),
            (
                b"POST /sessions HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                "Content-Length",
            ),
            (
                b"POST /sessions HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
                "Content-Length",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 200_000 + b"\r\n\r\n",
                "too long",
            ),
            (b"GET /" + b"a" * 20_000 + b" HTTP/1.1\r\n\r\n", "too long"),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-%d: v\r\n" % i for i in range(10_000))
                + b"\r\n",
                "header lines",
            ),
            (b"GET /healthz\xff\xfe HTTP/1.1\r\n\r\n", "request line"),
            (b"nonsense\r\n\r\n", "request line"),
        ],
        ids=[
            "non-integer-length",
            "negative-length",
            "signed-length",
            "line-over-reader-limit",
            "line-over-cap",
            "10k-headers",
            "non-ascii-request-line",
            "no-target",
        ],
    )
    def test_answers_400_and_closes(self, server, client, payload, complaint):
        reply = _raw_exchange(server, payload)
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert complaint in json.loads(body)["error"]
        # a well-formed request on a fresh connection is still served
        assert client.healthz()["status"] == "ok"

    def test_header_cap_admits_ordinary_requests(self, server):
        payload = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-%d: v\r\n" % i for i in range(100))
            + b"Connection: close\r\n\r\n"
        )
        # 101 header lines, 101 distinct names: one over the cap
        assert _raw_exchange(server, payload).startswith(b"HTTP/1.1 400")
        payload = payload.replace(b"X-99: v\r\n", b"")
        assert _raw_exchange(server, payload).startswith(b"HTTP/1.1 200")


class TestSessionIsolation:
    def test_faulted_session_never_perturbs_its_sibling(
        self, server, client, warm_snapshot_path
    ):
        """The satellite contract: fault one fork, its sibling is
        byte-identical to an unforked control run."""
        a = client.create_session(
            snapshot_path=str(warm_snapshot_path), fork_index=0
        )["id"]
        b = client.create_session(
            snapshot_path=str(warm_snapshot_path), fork_index=1
        )["id"]
        # batter session A: surge + rpc flakiness + tighter bands
        client.inject_fault(
            a, "power-surge", duration_s=90.0, params={"multiplier": 1.8}
        )
        client.inject_fault(a, "rpc-flaky", duration_s=60.0)
        client.set_band(
            a,
            "sb0.0",
            capping_threshold=0.85,
            capping_target=0.8,
            uncapping_threshold=0.7,
        )
        # interleave stepping so both sessions share the server loop
        for until in (120.0, 180.0, 240.0):
            client.step(a, until_s=until)
            client.step(b, until_s=until)
        fp_a = server.app.manager.get(a).fingerprint()
        fp_b = server.app.manager.get(b).fingerprint()
        # control: the same branch run locally, no serve layer at all
        control = fork_inprocess(warm_snapshot_path, 1)
        control.run_until(240.0)
        fp_control = fingerprint(SnapshotRegistry().capture(control).state)
        assert fp_b == fp_control
        assert fp_a != fp_b
