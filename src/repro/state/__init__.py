"""World snapshots: versioned checkpoint/restore and fork-from-snapshot.

Public surface:

* :class:`~repro.state.snapshot.WorldSnapshot` — the versioned,
  content-hashed envelope (``save``/``load``).
* :func:`~repro.state.snapshot.fingerprint` — run-comparable digest of a
  captured state payload.
* :class:`~repro.state.registry.SnapshotRegistry` — walks a world to
  ``capture`` a snapshot and ``restore`` one bit-exactly.
* :class:`~repro.state.registry.Snapshotable` — the protocol every
  stateful component implements.
* :mod:`~repro.state.worlds` — the recipe table (``WORLD_BUILDERS``),
  the name resolver (``named_recipe``) and ``build_world``.
* :mod:`~repro.state.fork` — ``fork_world`` branch cloning and
  ``run_sweep`` parallel scenario sweeps.
"""

from repro.state.fork import (
    BranchResult,
    fork_branch,
    fork_inprocess,
    fork_world,
    run_branch,
    run_sweep,
    shutdown_sweep_pool,
)
from repro.state.registry import SnapshotRegistry, Snapshotable
from repro.state.snapshot import (
    SCHEMA_VERSION,
    WorldSnapshot,
    canonical_json,
    fingerprint,
    state_digest,
)
from repro.state.worlds import (
    WORLD_BUILDERS,
    World,
    build_quickstart_world,
    build_world,
    named_recipe,
    world_names,
)

__all__ = [
    "SCHEMA_VERSION",
    "WORLD_BUILDERS",
    "BranchResult",
    "SnapshotRegistry",
    "Snapshotable",
    "World",
    "WorldSnapshot",
    "build_quickstart_world",
    "build_world",
    "canonical_json",
    "fingerprint",
    "fork_branch",
    "fork_inprocess",
    "fork_world",
    "named_recipe",
    "run_branch",
    "run_sweep",
    "shutdown_sweep_pool",
    "state_digest",
    "world_names",
]
