"""Workload building blocks: noise processes and the stochastic base class.

A workload's job is to answer ``utilization(now_s) -> [0, 1]``.  The
stochastic pieces are sampled lazily and *monotonically*: simulation
components only ever ask about the present, so each noise process advances
its internal state from the last query time to the new one.  Queries at
the same instant return the cached value, keeping workloads safe to share
between a server and a telemetry sampler.
"""

from __future__ import annotations

import math
from typing import Callable, Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation.soa import ArraySlot, array_backed


class WorkloadModifier(Protocol):
    """Transforms a workload's base utilization (surges, load tests)."""

    def apply(self, now_s: float, utilization: float) -> float:
        """Return the modified utilization at ``now_s``."""
        ...


class OrnsteinUhlenbeckNoise:
    """Mean-reverting Gaussian noise, sampled lazily in time order.

    The OU process is the standard model for load fluctuation around a
    trend: excursions decay with time constant ``tau_s`` and the
    stationary standard deviation is ``sigma``.
    """

    _soa: ArraySlot | None = None
    _value = array_backed("ou_value")
    _last_time = array_backed("ou_last", kind="nan_none")

    def __init__(
        self,
        sigma: float,
        tau_s: float,
        rng: np.random.Generator,
        *,
        initial: float = 0.0,
    ) -> None:
        if sigma < 0:
            raise ConfigurationError("sigma cannot be negative")
        if tau_s <= 0:
            raise ConfigurationError("tau must be positive")
        self._sigma = sigma
        self._tau_s = tau_s
        self._rng = rng
        self._value = float(initial)
        self._last_time: float | None = None

    def sample(self, now_s: float) -> float:
        """The noise value at ``now_s`` (monotone queries only)."""
        if self._last_time is None:
            self._last_time = now_s
            return self._value
        dt = now_s - self._last_time
        if dt < 0:
            # Tolerate tiny backwards queries (same-tick reorderings) by
            # returning the cached value; large rewinds are a caller bug.
            return self._value
        if dt > 0:
            decay = math.exp(-dt / self._tau_s)
            diffusion = self._sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
            self._value = self._value * decay + diffusion * self._rng.normal()
            self._last_time = now_s
        return self._value

    def snapshot_state(self) -> dict:
        """Serializable process state (the generator is captured by its
        owning :class:`~repro.simulation.rng.RngStreams` / sensor)."""
        return {"value": self._value, "last_time": self._last_time}

    def restore_state(self, state: dict) -> None:
        """Restore the OU excursion and query clock in place."""
        self._value = float(state["value"])
        last = state["last_time"]
        self._last_time = None if last is None else float(last)


class PoissonBursts:
    """Occasional rectangular bursts with exponential inter-arrival times.

    Models compaction runs, query storms, and similar episodic demand.
    Burst arrivals, magnitudes, and durations are pre-drawn lazily so the
    process stays deterministic for a given generator.
    """

    _soa: ArraySlot | None = None
    _next_start = array_backed("burst_next", kind="nan_none")
    _active_until = array_backed("burst_until")
    _active_magnitude = array_backed("burst_mag")

    def __init__(
        self,
        rate_per_s: float,
        magnitude: float,
        duration_s: float,
        rng: np.random.Generator,
        *,
        magnitude_jitter: float = 0.25,
    ) -> None:
        if rate_per_s < 0:
            raise ConfigurationError("burst rate cannot be negative")
        if duration_s <= 0:
            raise ConfigurationError("burst duration must be positive")
        self._rate = rate_per_s
        self._magnitude = magnitude
        self._duration_s = duration_s
        self._jitter = magnitude_jitter
        self._rng = rng
        self._next_start: float | None = None
        self._active_until = -math.inf
        self._active_magnitude = 0.0

    def sample(self, now_s: float) -> float:
        """Burst contribution at ``now_s`` (monotone queries only)."""
        if self._rate == 0.0:
            return 0.0
        if self._next_start is None:
            self._next_start = now_s + self._rng.exponential(1.0 / self._rate)
        while now_s >= self._next_start:
            self._active_until = self._next_start + self._duration_s
            jitter = 1.0 + self._jitter * self._rng.standard_normal()
            self._active_magnitude = max(0.0, self._magnitude * jitter)
            self._next_start += self._rng.exponential(1.0 / self._rate)
        if now_s < self._active_until:
            return self._active_magnitude
        return 0.0

    def snapshot_state(self) -> dict:
        """Serializable burst schedule state (``-inf`` maps to None)."""
        return {
            "next_start": self._next_start,
            "active_until": (
                None if self._active_until == -math.inf else self._active_until
            ),
            "active_magnitude": self._active_magnitude,
        }

    def restore_state(self, state: dict) -> None:
        """Restore the pre-drawn burst schedule in place."""
        nxt = state["next_start"]
        self._next_start = None if nxt is None else float(nxt)
        until = state["active_until"]
        self._active_until = -math.inf if until is None else float(until)
        self._active_magnitude = float(state["active_magnitude"])


class StochasticWorkload:
    """Base class for the six service workload models.

    Utilization = clamp(base(now) + noise(now) + bursts(now)), then passed
    through any registered modifiers (load tests, outage traces).
    Subclasses provide ``base_utilization`` and configure the stochastic
    terms through the constructor.
    """

    #: Set by the vectorized backend: called with this workload whenever
    #: the modifier list changes, so the stepper can move it between its
    #: vector lane and the scalar modifier post-pass.
    _modifier_hook: Callable[["StochasticWorkload"], None] | None = None

    def __init__(
        self,
        service: str,
        rng: np.random.Generator,
        *,
        noise_sigma: float = 0.0,
        noise_tau_s: float = 60.0,
        burst_rate_per_s: float = 0.0,
        burst_magnitude: float = 0.0,
        burst_duration_s: float = 30.0,
    ) -> None:
        self.service = service
        self._noise = OrnsteinUhlenbeckNoise(noise_sigma, noise_tau_s, rng)
        self._bursts = PoissonBursts(
            burst_rate_per_s, burst_magnitude, burst_duration_s, rng
        )
        self._modifiers: list[WorkloadModifier] = []

    def base_utilization(self, now_s: float) -> float:
        """Deterministic trend component; subclasses override."""
        raise NotImplementedError

    def add_modifier(self, modifier: WorkloadModifier) -> None:
        """Attach a traffic event (load test, surge, outage trace)."""
        self._modifiers.append(modifier)
        if self._modifier_hook is not None:
            self._modifier_hook(self)

    def remove_modifier(self, modifier: WorkloadModifier) -> None:
        """Detach a previously added modifier."""
        self._modifiers.remove(modifier)
        if self._modifier_hook is not None:
            self._modifier_hook(self)

    def utilization(self, now_s: float) -> float:
        """Demanded CPU utilization in [0, 1] at ``now_s``."""
        value = self.base_utilization(now_s)
        value += self._noise.sample(now_s)
        value += self._bursts.sample(now_s)
        for modifier in self._modifiers:
            value = modifier.apply(now_s, value)
        return min(1.0, max(0.0, value))

    def extra_state(self) -> dict:
        """Subclass-specific mutable state beyond noise/bursts.

        Subclasses whose ``base_utilization`` carries lazily-advanced
        state (e.g. hadoop's job phases) override this pair so snapshots
        capture it.  The default is empty, and an empty dict is omitted
        from the snapshot entirely — workloads without extra state keep
        the exact historical snapshot shape.
        """
        return {}

    def restore_extra_state(self, state: dict) -> None:
        """Restore :meth:`extra_state` output in place."""

    def snapshot_state(self) -> dict:
        """Serializable workload phase: noise, bursts, and modifiers.

        Modifiers are serialized by value through the codec in
        :mod:`repro.workloads.events`; an unknown modifier type raises so
        a snapshot never silently drops part of the workload stimulus.
        """
        from repro.workloads.events import encode_modifier

        state = {
            "noise": self._noise.snapshot_state(),
            "bursts": self._bursts.snapshot_state(),
            "modifiers": [encode_modifier(m) for m in self._modifiers],
        }
        extra = self.extra_state()
        if extra:
            state["extra"] = extra
        return state

    def restore_state(self, state: dict) -> None:
        """Restore workload phase in place, rebuilding modifiers by value."""
        from repro.workloads.events import decode_modifier

        self._noise.restore_state(state["noise"])
        self._bursts.restore_state(state["bursts"])
        self._modifiers = [decode_modifier(m) for m in state["modifiers"]]
        self.restore_extra_state(state.get("extra", {}))
        if self._modifier_hook is not None:
            self._modifier_hook(self)
