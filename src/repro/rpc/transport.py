"""Simulated RPC transport with latency accounting and failure injection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.errors import RpcError, RpcTimeoutError


@dataclass
class EndpointFaults:
    """Per-endpoint fault rates layered on top of the global ones.

    Attributes:
        failure_probability: extra chance a call to this endpoint raises
            :class:`RpcError`.
        timeout_probability: extra chance a call to this endpoint raises
            :class:`RpcTimeoutError`.
        extra_latency_mean_s: mean of an exponential extra-latency draw
            added to the call's accounted latency (a latency spike).
    """

    failure_probability: float = 0.0
    timeout_probability: float = 0.0
    extra_latency_mean_s: float = 0.0


@dataclass
class FailureInjector:
    """Controls which RPCs fail and how.

    Global probabilities apply to every call; per-endpoint rates
    (installed via :meth:`set_endpoint_faults`, typically by the chaos
    orchestrator) compose with them, so a flaky fabric and a targeted
    injection can coexist.

    Attributes:
        failure_probability: chance any call raises :class:`RpcError`.
        timeout_probability: chance any call raises
            :class:`RpcTimeoutError` instead of completing.
        down_endpoints: endpoints that always fail (crashed agents,
            partitioned hosts).
        endpoint_faults: per-endpoint failure/timeout/latency overrides.
    """

    failure_probability: float = 0.0
    timeout_probability: float = 0.0
    down_endpoints: set[str] = field(default_factory=set)
    endpoint_faults: dict[str, EndpointFaults] = field(default_factory=dict)

    def take_down(self, endpoint: str) -> None:
        """Mark an endpoint unreachable."""
        self.down_endpoints.add(endpoint)

    def restore(self, endpoint: str) -> None:
        """Mark an endpoint reachable again."""
        self.down_endpoints.discard(endpoint)

    def set_endpoint_faults(
        self,
        endpoint: str,
        *,
        failure_probability: float | None = None,
        timeout_probability: float | None = None,
        extra_latency_mean_s: float | None = None,
    ) -> EndpointFaults:
        """Install (or update) per-endpoint fault rates.

        Only the keyword arguments given are changed, so successive
        injections against the same endpoint compose.
        """
        faults = self.endpoint_faults.setdefault(endpoint, EndpointFaults())
        if failure_probability is not None:
            faults.failure_probability = float(failure_probability)
        if timeout_probability is not None:
            faults.timeout_probability = float(timeout_probability)
        if extra_latency_mean_s is not None:
            faults.extra_latency_mean_s = float(extra_latency_mean_s)
        return faults

    def clear_endpoint_faults(self, endpoint: str) -> None:
        """Remove all per-endpoint rates for ``endpoint``."""
        self.endpoint_faults.pop(endpoint, None)

    def check(self, endpoint: str, rng: np.random.Generator) -> None:
        """Raise if this call should fail."""
        if endpoint in self.down_endpoints:
            raise RpcError(f"endpoint {endpoint!r} is down")
        faults = self.endpoint_faults.get(endpoint)
        timeout_p = self.timeout_probability
        failure_p = self.failure_probability
        if faults is not None:
            # Independent hazards compose: surviving the call means
            # surviving both the global and the endpoint-specific risk.
            timeout_p = 1.0 - (1.0 - timeout_p) * (1.0 - faults.timeout_probability)
            failure_p = 1.0 - (1.0 - failure_p) * (1.0 - faults.failure_probability)
        # Layered chaos injections may push an individual rate outside
        # [0, 1] (e.g. two faults both writing 0.8); the composed hazard
        # handed to the RNG must stay a probability.
        timeout_p = min(1.0, max(0.0, timeout_p))
        failure_p = min(1.0, max(0.0, failure_p))
        if timeout_p > 0.0 and rng.random() < timeout_p:
            raise RpcTimeoutError(f"call to {endpoint!r} timed out")
        if failure_p > 0.0 and rng.random() < failure_p:
            raise RpcError(f"call to {endpoint!r} failed")

    def extra_latency_s(self, endpoint: str, rng: np.random.Generator) -> float:
        """Injected extra latency for one call to ``endpoint``."""
        faults = self.endpoint_faults.get(endpoint)
        if faults is None or faults.extra_latency_mean_s <= 0.0:
            return 0.0
        return float(rng.exponential(faults.extra_latency_mean_s))


Handler = Callable[[str, Any], Any]


class GroupReadResult:
    """Outcome of one batched ``read_power`` broadcast.

    Fast-lane endpoints have their sensed power in ``powers`` at their
    broadcast position, flagged in ``fast_mask``.  Scalar-lane endpoints
    land in ``results`` / ``failures`` exactly as a plain
    :meth:`RpcTransport.broadcast` would record them, in broadcast order.
    """

    __slots__ = (
        "endpoints",
        "rows",
        "fast_mask",
        "powers",
        "results",
        "failures",
    )

    def __init__(
        self,
        endpoints: list[str],
        rows: np.ndarray,
        fast_mask: np.ndarray,
        powers: np.ndarray,
        results: dict[str, Any],
        failures: dict[str, Exception],
    ) -> None:
        self.endpoints = endpoints
        self.rows = rows
        self.fast_mask = fast_mask
        self.powers = powers
        self.results = results
        self.failures = failures


class GroupCapResult:
    """Outcome of one batched ``set_cap`` fan-out.

    ``status`` holds one entry per item, in item order:

    * ``"ok"`` — the cap/uncap was applied (including the
      clamped-to-platform-minimum case, which the scalar controller also
      records as applied);
    * ``"error"`` — the call raised :class:`~repro.errors.RpcError`;
    * ``"noop"`` — the call returned without success or message (cannot
      happen with agent handlers; kept for parity with the scalar loop,
      which records neither a success nor a failure).
    """

    __slots__ = ("rows", "fast_mask", "status")

    def __init__(
        self,
        rows: np.ndarray,
        fast_mask: np.ndarray,
        status: list[str],
    ) -> None:
        self.rows = rows
        self.fast_mask = fast_mask
        self.status = status


class _GroupPlan:
    """Cached static eligibility for one broadcast endpoint list.

    Keyed on the identity of the caller's endpoint list (controllers
    cache theirs) plus the transport's registration generation, so a
    registry change invalidates the plan.
    """

    __slots__ = ("endpoints", "generation", "rows", "sense_ok", "cap_ok", "pos")

    def __init__(
        self,
        endpoints: list[str],
        generation: int,
        rows: np.ndarray,
        sense_ok: np.ndarray,
        cap_ok: np.ndarray,
        pos: dict[str, int],
    ) -> None:
        self.endpoints = endpoints
        self.generation = generation
        self.rows = rows
        self.sense_ok = sense_ok
        self.cap_ok = cap_ok
        self.pos = pos


@runtime_checkable
class Transport(Protocol):
    """Structural surface shared by the raw and resilient transports.

    Controllers, agents, and RPC services program against this so a
    deployment can interpose :class:`~repro.rpc.resilient.ResilientTransport`
    (retries, circuit breakers, health tracking) without any of them
    changing.
    """

    injector: FailureInjector

    @property
    def endpoints(self) -> list[str]:
        """All registered endpoint names."""
        ...

    def register(self, endpoint: str, handler: Handler) -> None:
        """Register (or replace) the handler for ``endpoint``."""
        ...

    def unregister(self, endpoint: str) -> None:
        """Remove an endpoint."""
        ...

    def call(self, endpoint: str, method: str, payload: Any = None) -> Any:
        """Invoke ``method`` on ``endpoint``; may raise RpcError."""
        ...

    def broadcast(
        self, endpoints: list[str], method: str, payload: Any = None
    ) -> tuple[dict[str, Any], dict[str, Exception]]:
        """Call every endpoint; collect successes and failures."""
        ...


class RpcTransport:
    """Name-addressed request/response fabric.

    Endpoints register a handler ``(method, payload) -> response``.
    Callers invoke :meth:`call`.  Latency is drawn per call and summed
    into counters for diagnostics, but simulation time is not advanced:
    RPC latency (sub-millisecond in production) is far below the 3 s
    control cycle, so modelling it as instantaneous preserves control
    behaviour while keeping controllers synchronous and simple.
    """

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        *,
        injector: FailureInjector | None = None,
        mean_latency_s: float = 0.002,
    ) -> None:
        self._handlers: dict[str, Handler] = {}
        self._rng = rng or np.random.default_rng(0)
        self.injector = injector or FailureInjector()
        self._mean_latency_s = mean_latency_s
        self.calls_made = 0
        self.calls_failed = 0
        self.total_latency_s = 0.0
        #: Latency drawn for the most recent call — the resilience
        #: layer's deadline check reads this, since calls are
        #: synchronous and simulation time does not advance.
        self.last_call_latency_s = 0.0
        #: The :class:`~repro.core.agent_batch.AgentBatch` that
        #: ``Dynamo.start`` attaches; None when unattached.
        self._batch: Any = None
        self._registry_generation = 0
        self._group_plans: dict[int, _GroupPlan] = {}
        #: Diagnostics: endpoint calls served on the batched fast lane,
        #: endpoint calls dropped to the per-endpoint scalar lane, and
        #: whole-group fallbacks (global fault rates armed).
        self.group_fast_endpoint_calls = 0
        self.group_fallback_endpoint_calls = 0
        self.group_full_fallbacks = 0
        #: Group dispatches executed (one sense or cap round per leaf).
        self.group_rounds = 0

    def attach_batch(self, batch: Any) -> None:
        """Attach the agent batch enabling the group fast path."""
        self._batch = batch
        self._group_plans.clear()

    def register(self, endpoint: str, handler: Handler) -> None:
        """Register (or replace) the handler for ``endpoint``."""
        self._handlers[endpoint] = handler
        self._registry_generation += 1

    def unregister(self, endpoint: str) -> None:
        """Remove an endpoint (server decommissioned)."""
        self._handlers.pop(endpoint, None)
        self._registry_generation += 1

    @property
    def endpoints(self) -> list[str]:
        """All registered endpoint names."""
        return list(self._handlers)

    def call(self, endpoint: str, method: str, payload: Any = None) -> Any:
        """Invoke ``method`` on ``endpoint``; may raise RpcError.

        Raises:
            RpcError: endpoint unknown, down, or injected failure.
            RpcTimeoutError: injected timeout.
        """
        self.calls_made += 1
        latency = self._rng.exponential(self._mean_latency_s)
        latency += self.injector.extra_latency_s(endpoint, self._rng)
        self.last_call_latency_s = float(latency)
        self.total_latency_s += latency
        try:
            self.injector.check(endpoint, self._rng)
            handler = self._handlers.get(endpoint)
            if handler is None:
                raise RpcError(f"no endpoint registered as {endpoint!r}")
            return handler(method, payload)
        except RpcError:
            self.calls_failed += 1
            raise

    def broadcast(
        self, endpoints: list[str], method: str, payload: Any = None
    ) -> tuple[dict[str, Any], dict[str, Exception]]:
        """Call every endpoint; collect successes and failures separately.

        This is the leaf controller's "broadcast power pull": one logical
        fan-out whose partial failures the caller must handle.
        """
        results: dict[str, Any] = {}
        failures: dict[str, Exception] = {}
        for endpoint in endpoints:
            try:
                results[endpoint] = self.call(endpoint, method, payload)
            except RpcError as exc:
                failures[endpoint] = exc
        return results, failures

    def mean_latency_s(self) -> float:
        """Average per-call latency drawn so far."""
        if self.calls_made == 0:
            return 0.0
        return self.total_latency_s / self.calls_made

    # ------------------------------------------------------------------
    # Batched broadcast fast path (a batch attached)
    # ------------------------------------------------------------------
    #
    # RNG usage contract: a fast-lane run of k endpoints draws its
    # latencies as one `rng.exponential(mean, size=k)`, which yields the
    # same sequence as k scalar per-call draws; fast-lane endpoints have
    # no armed faults, so `injector.check` would consume zero draws for
    # them (composed probability 0) and `extra_latency_s` none either.
    # Scalar-lane endpoints are dispatched through `call()` at their
    # original broadcast positions.  Net effect: the transport RNG
    # consumes draws in exactly the per-endpoint order of the
    # sequential broadcast.

    def _group_allowed(self) -> bool:
        """Whether any group fast path may run under the global injector.

        Global fault rates make `injector.check` draw for *every* call,
        so batching anything would shift the draw sequence; the whole
        group falls back to the sequential scalar broadcast instead.
        """
        injector = self.injector
        return (
            injector.failure_probability == 0.0
            and injector.timeout_probability == 0.0
        )

    def _group_plan(self, endpoints: list[str]) -> _GroupPlan | None:
        batch = self._batch
        if batch is None:
            return None
        key = id(endpoints)
        plan = self._group_plans.get(key)
        if (
            plan is not None
            and plan.endpoints is endpoints
            and plan.generation == self._registry_generation
        ):
            return plan
        n = len(endpoints)
        rows = np.full(n, -1, dtype=np.intp)
        sense_ok = np.zeros(n, dtype=bool)
        cap_ok = np.zeros(n, dtype=bool)
        pos: dict[str, int] = {}
        for p, endpoint in enumerate(endpoints):
            pos[endpoint] = p
            row = batch.row_for_endpoint.get(endpoint)
            if row is None or endpoint not in self._handlers:
                continue
            rows[p] = row
            cap_ok[p] = True
            sense_ok[p] = True
        plan = _GroupPlan(
            endpoints, self._registry_generation, rows, sense_ok, cap_ok, pos
        )
        self._group_plans[key] = plan
        return plan

    def _group_fast_mask(
        self, plan: _GroupPlan, static_ok: np.ndarray
    ) -> np.ndarray:
        """Static eligibility refined by per-call endpoint state.

        Crashed agents and endpoints with *any* armed per-endpoint fault
        (down, failure/timeout rate, or latency spike) drop to the
        scalar lane so their draws and exceptions happen exactly where
        the sequential broadcast would put them.  So do rows whose
        on-board sensor is currently missing or replaced (chaos sensor
        faults swap ``server.sensor`` live): ``sense_batchable`` is
        re-read on every call, not baked into the plan.
        """
        fast = static_ok.copy()
        fast &= self._batch.healthy[plan.rows]
        fast &= self._batch.sense_batchable[plan.rows]
        injector = self.injector
        for endpoint in injector.down_endpoints:
            p = plan.pos.get(endpoint)
            if p is not None:
                fast[p] = False
        for endpoint in injector.endpoint_faults:
            p = plan.pos.get(endpoint)
            if p is not None:
                fast[p] = False
        return fast

    def _draw_group_latencies(self, count: int) -> None:
        """`count` per-call latency draws with scalar-identical accounting."""
        self.calls_made += count
        latencies = self._rng.exponential(self._mean_latency_s, size=count)
        # Left-to-right accumulation (cumsum seeded with the running
        # total) is bitwise-identical to `total += float(l)` per call.
        self.total_latency_s = float(
            np.cumsum(np.concatenate(([self.total_latency_s], latencies)))[-1]
        )
        self.last_call_latency_s = float(latencies[-1])

    def _execute_group_read(
        self,
        endpoints: list[str],
        rows: np.ndarray,
        fast: np.ndarray,
        scalar_call: Callable[[str], Any],
    ) -> GroupReadResult:
        self.group_rounds += 1
        n = len(endpoints)
        powers = np.zeros(n)
        results: dict[str, Any] = {}
        failures: dict[str, Exception] = {}
        batch = self._batch
        flips = np.flatnonzero(np.diff(fast)) + 1
        bounds = [0, *flips.tolist(), n]
        for k in range(len(bounds) - 1):
            i, j = bounds[k], bounds[k + 1]
            if i == j:
                continue
            if fast[i]:
                self._draw_group_latencies(j - i)
                powers[i:j] = batch.read_power(rows[i:j])
                self.group_fast_endpoint_calls += j - i
            else:
                for p in range(i, j):
                    endpoint = endpoints[p]
                    self.group_fallback_endpoint_calls += 1
                    try:
                        results[endpoint] = scalar_call(endpoint)
                    except RpcError as exc:
                        failures[endpoint] = exc
        return GroupReadResult(
            endpoints, rows, fast, powers, results, failures
        )

    def _execute_group_cap(
        self,
        items: list[tuple[str, str, float | None]],
        blocked: set[str] | None,
        scalar_call: Callable[..., Any],
    ) -> GroupCapResult:
        from repro.core.messages import CapRequest

        self.group_rounds += 1
        batch = self._batch
        injector = self.injector
        n = len(items)
        rows = np.full(n, -1, dtype=np.intp)
        fast = np.zeros(n, dtype=bool)
        is_uncap = np.zeros(n, dtype=bool)
        healthy = batch.healthy
        for p, (endpoint, _server_id, limit_w) in enumerate(items):
            is_uncap[p] = limit_w is None
            row = batch.row_for_endpoint.get(endpoint)
            if row is None or endpoint not in self._handlers:
                continue
            if (
                endpoint in injector.down_endpoints
                or endpoint in injector.endpoint_faults
            ):
                continue
            if blocked is not None and endpoint in blocked:
                continue
            if not healthy[row]:
                continue
            rows[p] = row
            fast[p] = True
        status: list[str] = ["noop"] * n
        # Segment on both lane and cap/uncap so each fast run issues one
        # homogeneous batch.set_cap.
        key = fast.astype(np.int8) * 2 + is_uncap.astype(np.int8)
        flips = np.flatnonzero(np.diff(key)) + 1
        bounds = [0, *flips.tolist(), n]
        for k in range(len(bounds) - 1):
            i, j = bounds[k], bounds[k + 1]
            if i == j:
                continue
            if fast[i]:
                self._draw_group_latencies(j - i)
                if is_uncap[i]:
                    batch.set_cap(rows[i:j], None)
                else:
                    limits = np.array(
                        [items[p][2] for p in range(i, j)], dtype=float
                    )
                    batch.set_cap(rows[i:j], limits)
                status[i:j] = ["ok"] * (j - i)
                self.group_fast_endpoint_calls += j - i
            else:
                for p in range(i, j):
                    endpoint, server_id, limit_w = items[p]
                    self.group_fallback_endpoint_calls += 1
                    request = CapRequest(server_id=server_id, limit_w=limit_w)
                    try:
                        response = scalar_call(endpoint, "set_cap", request)
                    except RpcError:
                        status[p] = "error"
                    else:
                        if limit_w is None or (
                            response.success or response.message
                        ):
                            status[p] = "ok"
        return GroupCapResult(rows, fast, status)

    def group_read_power(
        self, endpoints: list[str]
    ) -> GroupReadResult | None:
        """Batched ``read_power`` broadcast, or None to use the scalar path.

        Requires an attached agent batch and no armed global fault
        rates; per-endpoint faults, crashed agents, and sensor-less
        servers drop individually to the scalar lane inside the group.
        """
        plan = self._group_plan(endpoints)
        if plan is None:
            return None
        if not self._group_allowed():
            self.group_full_fallbacks += 1
            return None
        fast = self._group_fast_mask(plan, plan.sense_ok)
        return self._execute_group_read(
            endpoints,
            plan.rows,
            fast,
            lambda endpoint: self.call(endpoint, "read_power", None),
        )

    def group_set_cap(
        self, items: list[tuple[str, str, float | None]]
    ) -> GroupCapResult | None:
        """Batched ``set_cap`` fan-out, or None to use the scalar path.

        ``items`` is ``(endpoint, server_id, limit_w-or-None)`` in the
        caller's actuation order, which the fast lane preserves.
        """
        if self._batch is None:
            return None
        if not self._group_allowed():
            self.group_full_fallbacks += 1
            return None
        return self._execute_group_cap(items, None, self.call)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable transport state.

        Captures the latency RNG in place (this generator is forked off
        the world's internal stream family and is not reachable through
        the root :class:`~repro.simulation.rng.RngStreams`), the call
        counters, and the failure injector's live fault tables.  The
        handler registry is wiring, rebuilt by the world recipe.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "calls_made": self.calls_made,
            "calls_failed": self.calls_failed,
            "total_latency_s": self.total_latency_s,
            "last_call_latency_s": self.last_call_latency_s,
            "injector": {
                "failure_probability": self.injector.failure_probability,
                "timeout_probability": self.injector.timeout_probability,
                "down_endpoints": sorted(self.injector.down_endpoints),
                "endpoint_faults": {
                    endpoint: {
                        "failure_probability": faults.failure_probability,
                        "timeout_probability": faults.timeout_probability,
                        "extra_latency_mean_s": faults.extra_latency_mean_s,
                    }
                    for endpoint, faults in sorted(
                        self.injector.endpoint_faults.items()
                    )
                },
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore transport counters, RNG state, and fault tables."""
        self._rng.bit_generator.state = state["rng"]
        self.calls_made = int(state["calls_made"])
        self.calls_failed = int(state["calls_failed"])
        self.total_latency_s = float(state["total_latency_s"])
        self.last_call_latency_s = float(state["last_call_latency_s"])
        injector = state["injector"]
        self.injector.failure_probability = float(
            injector["failure_probability"]
        )
        self.injector.timeout_probability = float(
            injector["timeout_probability"]
        )
        self.injector.down_endpoints = set(injector["down_endpoints"])
        self.injector.endpoint_faults = {
            endpoint: EndpointFaults(
                failure_probability=float(faults["failure_probability"]),
                timeout_probability=float(faults["timeout_probability"]),
                extra_latency_mean_s=float(faults["extra_latency_mean_s"]),
            )
            for endpoint, faults in injector["endpoint_faults"].items()
        }
