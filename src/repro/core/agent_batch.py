"""Batched agent control plane: SoA sensing and RAPL actuation.

PR 5 vectorized the *physics* (``repro.server.vectorized``); this module
does the same for the *control plane*.  Per-agent mutable state — the
health flag and the read/cap/uncap counters — is packed into numpy
arrays, and the hot agent operations (``read_power``, ``set_cap``) gain
whole-group entry points the RPC transports dispatch in one call instead
of one Python round-trip per server.

The scalar :class:`~repro.core.agent.DynamoAgent` objects stay alive as
views onto the arrays (the same ``array_backed`` binding the servers
use), so the watchdog, chaos faults, and snapshot capture keep reading
and writing the exact same fields on either backend.

Bit-identical by contract, like the physics:

* A batched read draws sensor noise with ``gen.normal(0.0, frac,
  size=k)``, which produces the same sequence as ``k`` scalar
  ``gen.normal(0.0, frac)`` calls on that sensor's dedicated stream.
  Blocks are prefetched per sensor
  (:class:`~repro.simulation.rng.PrefetchedNormals`, as in the physics
  stepper), so snapshot capture of ``sensor._rng`` always sees the
  logical draw position.
* A batched cap writes the RAPL limit through the scalar module's own
  setter per affected row, so limit listeners (the fleet's capped-server
  index) fire exactly as they would under per-server RPCs, and
  below-minimum requests clamp to the platform minimum just as the
  scalar agent does.
* ``fast_successes`` counts per-endpoint successes served on the batched
  fast path.  The moment an endpoint first drops to the scalar lane, the
  resilient transport materializes that pending history into its circuit
  breaker and health record (see :meth:`AgentBatch.materialize_pending`),
  which is exactly equivalent to having recorded each success
  individually while the breaker sat CLOSED.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.agent import DynamoAgent, agent_endpoint
from repro.errors import ConfigurationError
from repro.simulation.bulk import collector_held_off
from repro.simulation.rng import PrefetchedNormals
from repro.simulation.soa import ArraySlot, bind_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> rpc)
    from repro.rpc.resilient import ResilientTransport

#: Pre-drawn sensor-noise normals per server: trades refill frequency
#: against rewind cost on foreign draws, and has no effect on results.
PREFETCH_DRAWS = 64


class AgentArrays:
    """Packed per-agent mutable state (one row per server).

    Attribute names are the contract with the ``array_backed``
    declarations on :class:`~repro.core.agent.DynamoAgent`.
    """

    def __init__(self, n: int) -> None:
        self.agent_healthy = np.ones(n, dtype=bool)
        self.agent_reads_served = np.zeros(n, dtype=np.int64)
        self.agent_caps_applied = np.zeros(n, dtype=np.int64)
        self.agent_uncaps_applied = np.zeros(n, dtype=np.int64)


class AgentBatch:
    """Whole-fleet agent state plus batched read/cap entry points.

    Rows are aligned with the physics stepper's rows, so a batched read
    is a fancy-indexed load straight out of the packed power array.
    """

    @collector_held_off()
    def __init__(
        self,
        agents: dict[str, DynamoAgent],
        stepper: Any,
    ) -> None:
        n = stepper._n
        if len(agents) != n:
            raise ConfigurationError(
                f"agent batch needs one agent per stepper row "
                f"({len(agents)} agents, {n} rows)"
            )
        self._stepper = stepper
        self._power = stepper._arrays.power
        self._n = n
        self._arrays = AgentArrays(n)
        #: One bound method serves every server's sensor-swap hook.
        self._sensor_listener = self._on_sensor_change

        self._agents: list[DynamoAgent | None] = [None] * n
        self._rapls: list[Any] = [None] * n
        self._servers: list[Any] = [None] * n
        self.server_ids: list[str] = [""] * n
        self.services: list[str] = [""] * n
        self.row_for_endpoint: dict[str, int] = {}
        self.row_for_server_id: dict[str, int] = {}

        #: Rows whose reads can be served from the arrays right now:
        #: sensored servers still carrying the sensor captured at build
        #: time.  Chaos sensor faults swap ``server.sensor`` live; a
        #: change listener moves the row to the scalar lane (and back on
        #: recovery), so the sensor-less estimation path and frozen /
        #: replaced sensors always go through the real agent handler.
        self.sense_batchable = np.zeros(n, dtype=bool)
        self._built_sensors: list[Any] = [None] * n
        self._frac = np.zeros(n)
        self._min_cap = np.zeros(n)
        self._clamp = np.zeros(n)

        #: One block of pre-drawn noise per sensor stream.
        self._noise = PrefetchedNormals(n, PREFETCH_DRAWS)

        #: Successes served on the batched fast path since the endpoint
        #: last had its history materialized into breaker/health state.
        self.fast_successes = np.zeros(n, dtype=np.int64)

        rows: list[int] = []
        for agent in agents.values():
            server = agent.server
            row = stepper._server_index.get(id(server))
            if row is None:
                raise ConfigurationError(
                    f"server {server.server_id!r} is not bound to the "
                    "vectorized stepper"
                )
            rows.append(row)
            self._agents[row] = agent
            self._rapls[row] = server.rapl
            self._servers[row] = server
            self.server_ids[row] = server.server_id
            self.services[row] = server.service
            self.row_for_endpoint[agent_endpoint(server.server_id)] = row
            self.row_for_server_id[server.server_id] = row
            self._min_cap[row] = server.rapl._min_cap_w
            self._clamp[row] = server.platform.effective_min_cap_w()
            server._sensor_listener = self._sensor_listener
            sensor = server.sensor
            if sensor is None:
                continue
            frac = sensor._noise_fraction
            if frac > 0.0:
                raw = sensor._rng
                if not PrefetchedNormals.rewindable(raw):
                    continue  # reads stay on the agent's own handler
                sensor._rng = self._noise.attach(row, raw, frac)
            self._built_sensors[row] = sensor
            self.sense_batchable[row] = True
            self._frac[row] = frac
        bind_columns(
            list(agents.values()),
            [ArraySlot(self._arrays, row) for row in rows],
            DynamoAgent.SOA_FIELDS,
        )

    def _on_sensor_change(self, server: Any, sensor: Any) -> None:
        """Track live sensor swaps (chaos faults) per row."""
        row = self.row_for_server_id.get(server.server_id)
        if row is None:
            return
        self.sense_batchable[row] = (
            sensor is not None and sensor is self._built_sensors[row]
        )

    @property
    def healthy(self) -> np.ndarray:
        """Per-row agent health flags (the packed array itself)."""
        return self._arrays.agent_healthy

    def sync(self) -> None:
        """Flush every sensor prefetch block.

        After this, every sensor generator's raw state equals its
        logical draw position — required before RNG state is
        snapshotted externally.
        """
        self._noise.sync()

    # ------------------------------------------------------------------
    # Batched agent operations
    # ------------------------------------------------------------------

    def read_power(self, rows: np.ndarray) -> np.ndarray:
        """Serve ``read_power`` for a group of healthy, sensored rows.

        Returns the noisy sensed totals in row order, matching the
        scalar ``sensor.read_breakdown(server.power_w()).total_w`` bit
        for bit: same noise draw per sensor stream, same
        ``max(0.0, true * (1.0 + z))`` arithmetic.
        """
        self._arrays.agent_reads_served[rows] += 1
        out = self._power[rows].copy()
        noisy = self._frac[rows] > 0.0
        if noisy.any():
            sel = rows[noisy]
            z = self._noise.draw(sel)
            out[noisy] = np.maximum(0.0, out[noisy] * (1.0 + z))
        return out

    def set_cap(self, rows: np.ndarray, limits: np.ndarray | None) -> None:
        """Serve ``set_cap`` for a group of healthy rows.

        ``limits`` is an array of requested caps aligned with ``rows``,
        or ``None`` for a group uncap.  Requests below a row's platform
        minimum clamp to ``platform.effective_min_cap_w()`` exactly as
        the scalar agent's :class:`~repro.errors.CappingError` handler
        does.  Limits are written through the scalar RAPL setter per row
        so limit listeners (the fleet capped-server index) fire
        identically to per-server RPCs.
        """
        arrays = self._arrays
        if limits is None:
            for row in rows.tolist():
                self._rapls[row].clear_limit()
            arrays.agent_uncaps_applied[rows] += 1
            return
        limits = np.asarray(limits, dtype=float)
        effective = np.where(
            limits < self._min_cap[rows], self._clamp[rows], limits
        )
        for row, limit_w in zip(rows.tolist(), effective.tolist()):
            # set_limit re-validates against the row minimum, so a clamp
            # floor below the enforceable minimum raises exactly where
            # the scalar agent's fallback set_limit would.
            self._rapls[row].set_limit(limit_w)
        arrays.agent_caps_applied[rows] += 1

    # ------------------------------------------------------------------
    # Scalar-lane handoff
    # ------------------------------------------------------------------

    def materialize_pending(
        self, endpoint: str, transport: "ResilientTransport"
    ) -> None:
        """Flush an endpoint's fast-path history into breaker/health state.

        Called the moment an endpoint leaves the batched fast path (a
        chaos fault armed, the agent crashed, or a direct resilient call
        lands on it).  ``k`` pending fast successes become ``k``
        CLOSED-state breaker successes — ``consecutive_failures = 0``
        and ``min(k, window)`` ``True`` entries in the attempt window —
        plus ``k`` health attempts/successes, which is exactly what ``k``
        sequential scalar successes would have recorded.  (Health
        latency samples and last-success timestamps are diagnostics-only
        and are not backfilled.)
        """
        row = self.row_for_endpoint.get(endpoint)
        if row is None:
            return
        pending = int(self.fast_successes[row])
        if pending == 0:
            return
        self.fast_successes[row] = 0
        breaker = transport.breaker(endpoint)
        breaker.consecutive_failures = 0
        window = breaker._window
        window.extend([True] * min(pending, window.maxlen or pending))
        transport.health.backfill_successes(endpoint, pending)

    def pending_successes(self) -> dict[str, int]:
        """Fast-lane successes not yet materialized, by endpoint."""
        counts = self.fast_successes.tolist()
        return {
            endpoint: counts[row]
            for endpoint, row in self.row_for_endpoint.items()
        }

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable batch-only state (agent fields ride with agents)."""
        return {"fast_successes": self.fast_successes.tolist()}

    def restore_state(self, state: dict) -> None:
        """Restore pending fast-path success counts in place."""
        self.fast_successes[:] = np.asarray(
            state["fast_successes"], dtype=np.int64
        )

    def __repr__(self) -> str:
        return (
            f"AgentBatch(rows={self._n}, "
            f"sensored={int(np.count_nonzero(self.sense_batchable))})"
        )


__all__ = ["AgentArrays", "AgentBatch"]
