"""The server side of ``serve_ops``: one ``ServeServer`` in this process.

Started by :mod:`benchmarks.perf.serve_ops` as
``python -m benchmarks.perf.serve_child [--spans FILE]`` (``--spans``
turns tracing on and names the JSON-lines file).  Prints one JSON
line ``{"port": N}`` once it accepts connections, then reads stdin:
``mark`` opens the measured window (garbage-collection pauses before it
are dropped), any other line — or end of file, the parent died — stops
the server, prints one JSON report line and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.serve import ServeServer
from repro.serve.app import Response, ServeApp
from repro.serve.sessions import Session, SessionManager
from repro.state.registry import SnapshotRegistry

from .stats import peak_rss_mb
from .tracer import GcWatch, Tracer


def main(argv: list[str] | None = None) -> int:
    """Serve until told to stop; report what the shims saw."""
    parser = argparse.ArgumentParser(prog="benchmarks.perf.serve_child")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    trace = args.spans is not None

    app = ServeApp(SessionManager())
    tracer = Tracer()
    tracer.cycle = 0  # index of the request being handled
    gc_watch = GcWatch()
    #: Per request, in arrival order: (path, handle ns, status).
    handled: list[tuple[str, int, int]] = []

    def on_handle(call_args: tuple, response: Response, ns: int) -> None:
        handled.append((call_args[0].path, ns, response.status))
        tracer.cycle += 1

    if trace:
        tracer.span(app, "handle", "serve.handle", on_handle)
        tracer.span(Session, "step", "serve.session_step")
        tracer.span(Session, "snapshot", "serve.session_snapshot")
        tracer.span(SnapshotRegistry, "capture", "state.capture")
        tracer.span(SnapshotRegistry, "restore", "state.restore")
        gc_watch.install()

    server = ServeServer(app)
    server.start()
    print(json.dumps({"port": server.port}), flush=True)
    window_gc_start = 0
    for line in sys.stdin:
        if line.strip() != "mark":
            break
        window_gc_start = len(gc_watch.pauses)
    server.stop()
    if trace:
        gc_watch.uninstall()
        tracer.uninstall()
        tracer.write_jsonl(args.spans)

    report = {
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.spans,
        "handled": handled,
        "gc_pauses": gc_watch.pauses[window_gc_start:],
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
