"""The ``serve_ops`` workload: two closed-loop operators on one server.

The server runs in a child process (:mod:`benchmarks.perf.serve_child`)
on an ephemeral port.  Each of two client threads keeps one keep-alive
``ServeClient`` and owns one ``quickstart`` session, and repeats the
operator loop — ``step(dt_s=30)`` (write), then ``tree(depth=1)``,
``health``, ``controllers`` (reads), and ``snapshot(path=…)`` every 25th
iteration — sending the next request only when the previous one has
returned.  Steps and snapshots of one session block the other's reads
on the server's single event loop.

Each client thinks for a seeded random 0-80 ms between iterations.
With no think time the server is saturated and the two clients
phase-lock: which of a client's requests queues behind the other's step
flips between passes of identical code, and every latency median sits on
the edge between two modes (step 19 or 32 ms, read 0.9 or 1.8 ms,
iteration 37 or 65 ms were all measured).  Think time keeps the chance
that a step arrives behind the other session's step near a quarter, so
the median step is the unblocked one and the blocked ones are the tail.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep

from repro.serve import ServeClient

from .spec import OUT_DIR, ROOT, PassResult
from .stats import (
    calibration_detail,
    calibration_spin_ms,
    median,
    percentile,
    summarize,
)
from .tracer import GcWatch, span_self_ns

CLIENTS = 2
STEP_DT_S = 30.0
WARMUP_ITERATIONS = 20
SNAPSHOT_EVERY = 25
#: Mean think time between iterations (uniform on 0..2x), seconds.
THINK_MEAN_S = 0.040
#: Server starts per pass; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Where the traced server child leaves its spans.
SPANS_PATH = OUT_DIR / "serve_ops.spans.jsonl"


class _Server:
    """The server child process and the pipe protocol to it."""

    def __init__(self, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "benchmarks.perf.serve_child",
                *(["--spans", str(SPANS_PATH)] if trace else []),
            ],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert self._process.stdout is not None
        try:
            self.port = int(json.loads(self._process.stdout.readline())["port"])
        except (ValueError, KeyError):
            self.kill()
            raise RuntimeError("serve child did not announce a port") from None

    def mark(self) -> None:
        """Tell the child the measured window opens now."""
        assert self._process.stdin is not None
        self._process.stdin.write("mark\n")
        self._process.stdin.flush()

    def stop(self) -> dict:
        """Stop the child, wait for it, and return its report."""
        try:
            out, _ = self._process.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self._process.returncode != 0:
            raise RuntimeError(
                f"serve child exited with {self._process.returncode}"
            )
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        """Last resort: never leave the child running."""
        self._process.kill()
        self._process.wait()


class _Operator:
    """One closed-loop client and the record of everything it sent."""

    def __init__(
        self, port: int, seed: int, snapshot_path: Path, snapshot_every: int
    ) -> None:
        self.snapshot_every = snapshot_every
        self.think = random.Random(seed)
        self.client = ServeClient("127.0.0.1", port, timeout_s=120.0)
        self.snapshot_path = str(snapshot_path)
        #: Every request after session creation, in order:
        #: (kind, latency ns, status, measured?).
        self.sent: list[tuple[str, int, int, bool]] = []
        self.advanced_s = 0.0
        self.window_advanced_s = 0.0
        self.iterations = 0
        status, view = self.client.request(
            "POST", "/sessions", {"scenario": "quickstart", "seed": seed}
        )
        if status != 201:
            raise RuntimeError(f"session create failed: {status} {view}")
        self.sid = view["id"]

    def request(
        self,
        kind: str,
        method: str,
        suffix: str,
        payload: dict | None = None,
        *,
        measured: bool = False,
    ) -> dict:
        """One timed request on this operator's session."""
        t0 = perf_counter_ns()
        try:
            status, body = self.client.request(
                method, f"/sessions/{self.sid}{suffix}", payload
            )
        except (OSError, TimeoutError):
            status, body = 599, {}
        self.sent.append((kind, perf_counter_ns() - t0, status, measured))
        return body if isinstance(body, dict) and status < 400 else {}

    def iterate(self, measured: bool) -> None:
        """One operator-loop iteration; a measured one thinks first."""
        if measured:
            sleep(self.think.uniform(0.0, 2.0 * THINK_MEAN_S))
        step = self.request(
            "step", "POST", "/step", {"dt_s": STEP_DT_S}, measured=measured
        )
        advanced = float(step.get("advanced_s", 0.0))
        self.advanced_s += advanced
        if measured:
            self.window_advanced_s += advanced
        self.request("read", "GET", "/tree?depth=1", measured=measured)
        self.request("read", "GET", "/health", measured=measured)
        self.request("read", "GET", "/controllers", measured=measured)
        self.iterations += 1
        if self.iterations % self.snapshot_every == 0:
            self.snapshot(measured)

    def snapshot(self, measured: bool = False) -> dict:
        """Checkpoint the session to this operator's snapshot file."""
        return self.request(
            "snapshot",
            "POST",
            "/snapshot",
            {"path": self.snapshot_path, "include_state": False},
            measured=measured,
        )

    def run_window(self, deadline_ns: int, min_iterations: int) -> None:
        """Measured iterations until the deadline, at least the minimum."""
        done = 0
        while done < min_iterations or perf_counter_ns() < deadline_ns:
            self.iterate(measured=True)
            done += 1

    def warm_up(self, iterations: int) -> None:
        """Unmeasured iterations."""
        for _ in range(iterations):
            self.iterate(measured=False)


def _in_threads(operators: list[_Operator], method, *args) -> None:
    """Run one method of every operator concurrently; re-raise failures."""
    with ThreadPoolExecutor(max_workers=len(operators)) as pool:
        futures = [pool.submit(method, op, *args) for op in operators]
        for future in futures:
            future.result()


def _set_up(
    trace: bool,
    seed: int,
    work_dir: Path,
    warmup_iterations: int,
    snapshot_every: int,
) -> tuple[_Server, list[_Operator]]:
    server = _Server(trace)
    try:
        operators = [
            _Operator(
                server.port,
                CLIENTS * seed + i,
                work_dir / f"session{i}.json",
                snapshot_every,
            )
            for i in range(CLIENTS)
        ]
        _in_threads(operators, _Operator.warm_up, warmup_iterations)
    except BaseException:
        server.kill()
        raise
    return server, operators


def run_serve_pass(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    warmup_iterations: int = WARMUP_ITERATIONS,
    snapshot_every: int = SNAPSHOT_EVERY,
    setup_repeats: int = SETUP_REPEATS,
) -> PassResult:
    """Start the server, warm up, load it for ``seconds``, check."""
    calib_before = calibration_spin_ms()
    work_dir = OUT_DIR / f"serve-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s: list[float] = []
        for repeat in range(setup_repeats):
            t0 = perf_counter()
            server, operators = _set_up(
                trace, seed, work_dir, warmup_iterations, snapshot_every
            )
            setup_s.append(perf_counter() - t0)
            if repeat < setup_repeats - 1:
                for op in operators:
                    op.client.close()
                server.stop()
        try:
            server.mark()
            window_t0 = perf_counter_ns()
            _in_threads(
                operators,
                _Operator.run_window,
                window_t0 + int(seconds * 1e9),
                snapshot_every,  # so every window holds a snapshot
            )
            window_s = (perf_counter_ns() - window_t0) / 1e9
            calib_after = calibration_spin_ms()
            checks, snapshot_bytes = _final_checks(operators)
            for op in operators:
                op.client.close()
            report = server.stop()
        except BaseException:
            server.kill()
            raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    sent = [record for op in operators for record in op.sent]
    window = [r for r in sent if r[3]]

    def latencies_ms(kind: str) -> list[float]:
        return [ns / 1e6 for k, ns, _, _ in window if k == kind]

    all_ms = [ns / 1e6 for _, ns, _, _ in window]
    steps, reads = latencies_ms("step"), latencies_ms("read")
    snapshots = latencies_ms("snapshot")
    failed = sum(1 for _, _, status, _ in sent if status >= 400)
    checks["no_5xx"] = not any(status >= 500 for _, _, status, _ in sent)
    advanced_s = sum(op.window_advanced_s for op in operators)
    detail = {
        "iterations": [op.iterations for op in operators],
        "warmup_iterations": warmup_iterations,
        "window_s": window_s,
        "request_ms": summarize(all_ms),
        "step_ms": summarize(steps),
        "read_ms": summarize(reads),
        "snapshot_ms": summarize(snapshots),
        "setup_s": setup_s,
        **calibration_detail(calib_before, calib_after),
    }

    if not trace:
        metrics = {
            "setup_s": median(setup_s),
            "sim_s_per_wall_s": advanced_s / window_s,
            "op_ms_p50": median(steps),
            "peak_rss_mb": report["peak_rss_mb"],
            "req_per_s": len(window) / window_s,
            "read_ms_p95": percentile(reads, 95.0),
            "snapshot_ms_p50": median(snapshots),
            "failed_frac": failed / len(sent),
        }
        return PassResult(checks, len(sent), failed, metrics, detail)

    # Pair each client request with the server's record of it: a
    # closed-loop client's requests reach the server in the order sent.
    by_sid: dict[str, list[int]] = {op.sid: [] for op in operators}
    for index, (path, _, _) in enumerate(report["handled"]):
        parts = path.split("/")
        if len(parts) > 3 and parts[2] in by_sid:
            by_sid[parts[2]].append(index)
    measured: set[int] = set()
    queue_wait_ms: list[float] = []
    for op in operators:
        for index, (_, ns, _, in_window) in zip(by_sid[op.sid], op.sent):
            if in_window:
                measured.add(index)
                handle_ns = report["handled"][index][1]
                queue_wait_ms.append((ns - handle_ns) / 1e6)
    requests = len(measured)
    checks["requests_paired"] = requests == len(window)
    self_ns = span_self_ns(report["spans"], measured.__contains__)
    # The one restore happens in the final checks, after the window.
    restore_ns = span_self_ns(report["spans"], lambda _: True).get(
        "state.restore", 0
    )
    statuses = [report["handled"][i][2] for i in measured]
    gc_watch = GcWatch()
    gc_watch.pauses = [tuple(p) for p in report["gc_pauses"]]

    def ms(name: str) -> float:
        return self_ns.get(name, 0) / 1e6 / max(requests, 1)

    metrics = {
        "state.capture_ms": ms("state.capture"),
        "state.restore_ms": restore_ns / 1e6 / CLIENTS,
        "state.snapshot_bytes": float(snapshot_bytes),
        "serve.handle_ms": ms("serve.handle"),
        "serve.session_step_ms": ms("serve.session_step"),
        "serve.session_snapshot_ms": ms("serve.session_snapshot"),
        "serve.queue_wait_ms_p50": median(queue_wait_ms),
        "serve.queue_wait_ms_p90": percentile(queue_wait_ms, 90.0),
        "serve.step_ms_p50": median(steps),
        "serve.step_ms_p95": percentile(steps, 95.0),
        "serve.read_ms_p50": median(reads),
        "serve.read_ms_p90": percentile(reads, 90.0),
        "serve.read_ms_p95": percentile(reads, 95.0),
        "serve.read_ms_p99": percentile(reads, 99.0),
        "serve.snapshot_ms_p50": median(snapshots),
        "serve.req_per_s": len(window) / window_s,
        "serve.requests": float(requests),
        "serve.errors_4xx": float(sum(1 for s in statuses if 400 <= s < 500)),
        "serve.errors_5xx": float(sum(1 for s in statuses if s >= 500)),
        **gc_watch.metrics(requests),
        "driver.cycle_ms_p50": median(steps),
        "driver.cycle_ms_p90": percentile(steps, 90.0),
        "driver.cycle_ms_max": max(steps),
        "driver.calib_ms": (calib_before + calib_after) / 2.0,
        "trace.unattributed_ms": sum(queue_wait_ms) / max(requests, 1),
    }
    detail["spans"] = len(report["spans"])
    return PassResult(checks, len(sent), failed, metrics, detail)


def _final_checks(operators: list[_Operator]) -> tuple[dict[str, bool], int]:
    """Clock, snapshot and restore checks, after the window closed."""
    clocks_exact = True
    restores_exact = True
    snapshot_bytes = 0
    for op in operators:
        view = op.request("session", "GET", "")
        # Quickstart worlds start at t=0, so the clock must read exactly
        # the seconds this operator's own steps asked for.
        clocks_exact &= view.get("time_s") == op.iterations * STEP_DT_S
        clocks_exact &= op.advanced_s == op.iterations * STEP_DT_S
        taken = op.snapshot()
        snapshot_bytes = max(
            snapshot_bytes, os.path.getsize(op.snapshot_path)
        )
        op.request("step", "POST", "/step", {"dt_s": STEP_DT_S})
        op.request("restore", "POST", "/restore", {"path": op.snapshot_path})
        again = op.snapshot()
        restores_exact &= (
            "fingerprint" in taken
            and again.get("fingerprint") == taken["fingerprint"]
            and again.get("time_s") == taken["time_s"]
        )
    checks = {
        "session_clocks_exact": bool(clocks_exact),
        "restore_reproduces_snapshot": bool(restores_exact),
    }
    return checks, snapshot_bytes
