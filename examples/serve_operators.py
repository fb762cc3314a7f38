#!/usr/bin/env python
"""An operator fleet driving live simulation sessions over HTTP.

The serve layer's reason to exist: several operators each own an
isolated datacenter forked from one warm snapshot, working it
concurrently through the same HTTP API an operations dashboard would
use.  This demo starts a real server in-process and runs three
operator scripts side by side:

- **steady** just watches: steps its session and reads the power tree.
- **surge** injects a demand surge, a flaky RPC fabric, and a breaker
  derating, then watches its controllers leave NORMAL (degraded/safe
  capping), cap servers, and recover once the faults clear.
- **maintenance** derates a breaker, fails a controller primary over to
  its backup, and restores both.

At the end, the steady session's fingerprint is compared against a
local control run of the same fork — byte-identical, proving the other
operators' chaos never leaked across session boundaries.

Run:  python examples/serve_operators.py     (~30 s)
"""

import threading
import time

from repro.serve import ServeClient, ServeServer
from repro.state import (
    SnapshotRegistry,
    build_quickstart_world,
    fingerprint,
    fork_inprocess,
)

WARM_S = 60.0
END_S = 420.0
SEED = 3


def say(name: str, message: str) -> None:
    print(f"[{name:<11}] {message}")


def steady_operator(host: int, port: int, snapshot_path: str) -> str:
    """Observe only; returns the session's final fingerprint source id."""
    with ServeClient(host, port) as client:
        sid = client.create_session(
            snapshot_path=snapshot_path, fork_index=0
        )["id"]
        say("steady", f"session {sid} forked at t={WARM_S:.0f}s")
        for until in range(int(WARM_S) + 60, int(END_S) + 1, 60):
            body = client.step(sid, until_s=float(until))
            tree = client.tree(sid, depth=0)
            say(
                "steady",
                f"t={body['time_s']:>5.0f}s "
                f"power={tree['total_power_w'] / 1e3:.1f} kW "
                f"capped={tree['capped_servers']} trips={tree['trips']}",
            )
        return sid


def surge_operator(host: int, port: int, snapshot_path: str) -> None:
    """Inject a surge + flaky RPC fabric; watch modes degrade and heal."""
    with ServeClient(host, port) as client:
        sid = client.create_session(
            snapshot_path=snapshot_path, fork_index=1
        )["id"]
        say("surge", f"session {sid} forked at t={WARM_S:.0f}s")
        client.inject_fault(
            sid, "power-surge", duration_s=180.0,
            params={"multiplier": 1.9, "ramp_s": 30.0},
        )
        client.inject_fault(
            sid, "rpc-flaky", duration_s=120.0,
            params={"failure_probability": 0.9, "timeout_probability": 0.3},
        )
        client.inject_fault(
            sid, "breaker-derate", duration_s=180.0,
            targets=["sb0.0"], params={"fraction": 0.004},
        )
        say(
            "surge",
            "injected power-surge x1.9 (180s) + rpc-flaky (120s) "
            "+ sb0.0 derated to 0.004x (180s)",
        )
        seen_degraded = False
        for until in range(int(WARM_S) + 60, int(END_S) + 1, 60):
            body = client.step(sid, until_s=float(until))
            health = client.health(sid)
            modes = sorted(set(health["modes"].values()))
            tree = client.tree(sid, depth=0)
            say(
                "surge",
                f"t={body['time_s']:>5.0f}s "
                f"power={tree['total_power_w'] / 1e3:.1f} kW "
                f"capped={tree['capped_servers']} modes={modes}",
            )
            seen_degraded = seen_degraded or modes != ["normal"]
        for record in client.stream(sid, kind="log"):
            say("surge", f"log: t={record['time_s']:.0f}s {record['kind']}")
        final_modes = sorted(set(client.health(sid)["modes"].values()))
        say(
            "surge",
            f"non-normal modes observed: {seen_degraded}; "
            f"final modes: {final_modes}; trips: "
            f"{client.tree(sid, depth=0)['trips']}",
        )


def maintenance_operator(host: int, port: int, snapshot_path: str) -> None:
    """Derate a breaker and exercise a controller failover pair."""
    with ServeClient(host, port) as client:
        sid = client.create_session(
            snapshot_path=snapshot_path, fork_index=2
        )["id"]
        say("maintenance", f"session {sid} forked at t={WARM_S:.0f}s")
        client.inject_fault(
            sid, "breaker-derate", duration_s=120.0,
            targets=["sb0.0"], params={"fraction": 0.8},
        )
        say("maintenance", "derated sb0.0 to 0.8x for 120s")
        client.failover(sid, "sb0.1", "enable")
        client.failover(sid, "sb0.1", "fail")
        say("maintenance", "failed sb0.1 primary over to its backup")
        client.step(sid, until_s=WARM_S + 120.0)
        pair = client.controller(sid, "sb0.1")
        say(
            "maintenance",
            f"t={WARM_S + 120:.0f}s sb0.1 pair primary_healthy="
            f"{pair['primary_healthy']} cap_events={pair['cap_events']}",
        )
        client.failover(sid, "sb0.1", "restore")
        client.step(sid, until_s=END_S)
        say("maintenance", "restored primary; maintenance window closed")


def main() -> int:
    print(__doc__.split("\n\n")[0])
    world = build_quickstart_world(seed=SEED)
    world.run_until(WARM_S)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = str(Path(tmp) / "warm.json")
        SnapshotRegistry().capture(world, include_traces=False).save(
            snapshot_path
        )
        say("fleet", f"warm snapshot captured at t={WARM_S:.0f}s")
        with ServeServer() as server:
            say("fleet", f"server up on {server.host}:{server.port}")
            steady_sid: list[str] = []
            workers = [
                threading.Thread(
                    target=lambda: steady_sid.append(
                        steady_operator(
                            server.host, server.port, snapshot_path
                        )
                    )
                ),
                threading.Thread(
                    target=surge_operator,
                    args=(server.host, server.port, snapshot_path),
                ),
                threading.Thread(
                    target=maintenance_operator,
                    args=(server.host, server.port, snapshot_path),
                ),
            ]
            t0 = time.perf_counter()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            say("fleet", f"all operators done in {time.perf_counter() - t0:.1f}s")

            # isolation proof: the steady session matches a local
            # control run of the same fork, untouched by the chaos the
            # other operators unleashed next door.
            served = server.app.manager.get(steady_sid[0])
            fp_served = served.fingerprint()
            control = fork_inprocess(snapshot_path, 0)
            control.run_until(END_S)
            fp_control = fingerprint(
                SnapshotRegistry().capture(control).state
            )
            identical = fp_served == fp_control
            say(
                "fleet",
                "steady session vs local control run: "
                + ("byte-identical" if identical else "DIVERGED"),
            )
            return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
