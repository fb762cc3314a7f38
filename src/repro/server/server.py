"""The server: workload + power model + RAPL + sensor, stepped over time.

A :class:`Server` is the unit everything else composes around.  Each
simulation step it:

1. asks its workload for the demanded CPU utilization,
2. converts demand to a power draw through the platform's power model
   (including Turbo Boost if engaged),
3. lets the RAPL module clamp that draw toward ``min(demand, limit)``
   with its ~2 s settling lag,
4. accounts delivered vs demanded work so experiments can measure the
   performance cost of capping (Figure 13).

The server exposes ``power_w()`` as a zero-argument callable so it can be
attached directly to a :class:`~repro.power.device.PowerDevice` load slot.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.server.estimator import PowerEstimator, calibrate_from_model
from repro.server.platform import ServerPlatform
from repro.server.power_model import PowerModel
from repro.server.rapl import RaplModule
from repro.server.sensor import PowerSensor
from repro.server.turbo import TurboBoost
from repro.simulation.soa import ArraySlot, array_backed


class Workload(Protocol):
    """What a server needs from its workload."""

    service: str

    def utilization(self, now_s: float) -> float:
        """Demanded CPU utilization in [0, 1] at simulation time ``now_s``."""
        ...


class ConstantWorkload:
    """Trivial workload pinned at a fixed utilization (tests, calibration)."""

    def __init__(self, utilization: float, service: str = "synthetic") -> None:
        self._utilization = float(utilization)
        self.service = service

    def utilization(self, now_s: float) -> float:
        """The fixed demand, independent of time."""
        return self._utilization

    def set_utilization(self, utilization: float) -> None:
        """Change the fixed demand level."""
        self._utilization = float(utilization)

    def snapshot_state(self) -> dict:
        """Serializable state (the fixed level can change via setter)."""
        return {"utilization": self._utilization}

    def restore_state(self, state: dict) -> None:
        """Restore the fixed demand level."""
        self._utilization = float(state["utilization"])


class PlatformTemplate:
    """What every server of one hardware generation shares.

    The paper calibrates its utilization-to-power model once per server
    *generation* (Figure 1's Westmere and Haswell curves, the offline
    Yokogawa sweep), not once per machine.  A template holds the parts
    of a :class:`Server` that are a pure function of the frozen
    :class:`ServerPlatform` — the power model and the estimator
    calibrated from it — so a fleet builder makes them once and stamps
    any number of servers from them.

    Sharing rule: both members are immutable and nothing may mutate
    them in place.  Tuning one server's estimator means *replacing* it
    on that server (``server.estimator = server.estimator.recalibrate(
    scale)`` — :meth:`PowerEstimator.recalibrate` returns a copy), which
    leaves its platform siblings on the shared original.
    """

    __slots__ = ("platform", "power_model", "estimator")

    def __init__(self, platform: ServerPlatform) -> None:
        self.platform = platform
        self.power_model = PowerModel(platform)
        #: Estimator used when no sensor exists (calibrated offline).
        self.estimator: PowerEstimator = calibrate_from_model(
            self.power_model.power_w
        )


class Server:
    """One server in the fleet.

    ``platform`` is either a bare :class:`ServerPlatform` (the server
    gets a template of its own) or a :class:`PlatformTemplate` shared
    with the other servers of that generation.
    """

    #: Structure-of-arrays slot when bound by the vectorized backend.
    #: Bound or not, reads and writes go through these properties, so
    #: agents, chaos faults, and snapshots see one source of truth.
    _soa: ArraySlot | None = None
    _current_power_w = array_backed("power")
    _current_utilization = array_backed("util")
    _demanded_work = array_backed("demanded")
    _delivered_work = array_backed("delivered")
    _energy_j = array_backed("energy")
    _online = array_backed("online", kind="bool")
    _last_step_s = array_backed("last_step", kind="nan_none")

    def __init__(
        self,
        server_id: str,
        platform: ServerPlatform | PlatformTemplate,
        workload: Workload,
        *,
        rng: np.random.Generator | None = None,
        turbo_enabled: bool = False,
    ) -> None:
        template = (
            platform
            if isinstance(platform, PlatformTemplate)
            else PlatformTemplate(platform)
        )
        platform = template.platform
        self.server_id = server_id
        self.platform = platform
        self.workload = workload
        self.power_model = template.power_model
        self.turbo = TurboBoost(platform, enabled=turbo_enabled)
        self.rapl = RaplModule(
            min_cap_w=platform.effective_min_cap_w(),
            initial_power_w=platform.idle_power_w,
        )
        self._sensor_listener = None
        self._sensor: PowerSensor | None = None
        if platform.has_power_sensor:
            self._sensor = PowerSensor(rng=rng)
        #: Shared with the template until something recalibrates it.
        self.estimator: PowerEstimator = template.estimator
        self._current_power_w = platform.idle_power_w
        self._current_utilization = 0.0
        self._demanded_work = 0.0
        self._delivered_work = 0.0
        self._energy_j = 0.0
        self._online = True
        self._last_step_s: float | None = None

    #: Called with ``(server, new_sensor)`` whenever :attr:`sensor` is
    #: reassigned (chaos sensor faults swap it live); the batched
    #: control plane uses this to move the row between lanes.
    _sensor_listener: Callable[["Server", PowerSensor | None], None] | None = None

    @property
    def sensor(self) -> PowerSensor | None:
        """The on-board power sensor currently installed, if any."""
        return self._sensor

    @sensor.setter
    def sensor(self, value: PowerSensor | None) -> None:
        self._sensor = value
        hook = self._sensor_listener
        if hook is not None:
            hook(self, value)

    # ------------------------------------------------------------------
    # Simulation stepping
    # ------------------------------------------------------------------

    def step(self, now_s: float, dt_s: float) -> float:
        """Advance the server by ``dt_s`` seconds ending at ``now_s``.

        Returns the enforced power draw at the end of the step.
        """
        if not self._online:
            self._current_power_w = 0.0
            self._current_utilization = 0.0
            return 0.0
        demand_util = min(1.0, max(0.0, self.workload.utilization(now_s)))
        turbo_on = self.turbo.enabled
        demand_power = self.power_model.power_w(demand_util, turbo=turbo_on)
        enforced = self.rapl.step(demand_power, dt_s)
        self._current_power_w = enforced
        self._current_utilization = demand_util
        factor = self.power_model.performance_factor(
            demand_util, self.rapl.limit_w, turbo=turbo_on
        )
        self._demanded_work += demand_util * dt_s
        self._delivered_work += (
            demand_util * factor * self.turbo.performance_multiplier * dt_s
        )
        self._energy_j += enforced * dt_s
        self._last_step_s = now_s
        return enforced

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    def power_w(self) -> float:
        """Instantaneous enforced power draw (load-source callable)."""
        return self._current_power_w

    @property
    def utilization(self) -> float:
        """Most recent demanded CPU utilization."""
        return self._current_utilization

    @property
    def service(self) -> str:
        """Service this server belongs to."""
        return self.workload.service

    @property
    def online(self) -> bool:
        """Whether the server is powered and running."""
        return self._online

    def set_online(self, online: bool) -> None:
        """Power the server on or off (outages, decommissions)."""
        self._online = bool(online)
        if not online:
            self._current_power_w = 0.0
            self._current_utilization = 0.0

    # ------------------------------------------------------------------
    # Performance accounting
    # ------------------------------------------------------------------

    @property
    def demanded_work(self) -> float:
        """Integral of demanded utilization over time (core-seconds)."""
        return self._demanded_work

    @property
    def delivered_work(self) -> float:
        """Integral of delivered work over time, including Turbo gains."""
        return self._delivered_work

    def performance_ratio(self) -> float:
        """Delivered / demanded work since construction (1.0 = no loss)."""
        if self._demanded_work == 0.0:
            return 1.0
        return self._delivered_work / self._demanded_work

    @property
    def energy_j(self) -> float:
        """Energy consumed since construction, in joules."""
        return self._energy_j

    def energy_efficiency(self) -> float:
        """Delivered work per megajoule (0 when no energy consumed)."""
        if self._energy_j == 0.0:
            return 0.0
        return self._delivered_work / (self._energy_j / 1e6)

    def reset_work_counters(self) -> None:
        """Zero the work and energy integrals."""
        self._demanded_work = 0.0
        self._delivered_work = 0.0
        self._energy_j = 0.0

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable mutable state, including sub-modules.

        The sensor entry covers only a directly attached
        :class:`PowerSensor`; a sensor swapped out by a chaos fault is
        captured (and re-swapped) by the fault's own snapshot state.
        """
        workload = self.workload
        return {
            "current_power_w": self._current_power_w,
            "current_utilization": self._current_utilization,
            "demanded_work": self._demanded_work,
            "delivered_work": self._delivered_work,
            "energy_j": self._energy_j,
            "online": self._online,
            "last_step_s": self._last_step_s,
            "turbo_enabled": self.turbo.enabled,
            "rapl": self.rapl.snapshot_state(),
            "estimator": self.estimator.snapshot_state(),
            "sensor": (
                self.sensor.snapshot_state()
                if isinstance(self.sensor, PowerSensor)
                else None
            ),
            "workload": (
                workload.snapshot_state()
                if hasattr(workload, "snapshot_state")
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore mutable state in place on a freshly built server."""
        self._current_power_w = float(state["current_power_w"])
        self._current_utilization = float(state["current_utilization"])
        self._demanded_work = float(state["demanded_work"])
        self._delivered_work = float(state["delivered_work"])
        self._energy_j = float(state["energy_j"])
        self._online = bool(state["online"])
        last = state["last_step_s"]
        self._last_step_s = None if last is None else float(last)
        if state["turbo_enabled"]:
            self.turbo.enable()
        else:
            self.turbo.disable()
        self.rapl.restore_state(state["rapl"])
        if state["estimator"] != self.estimator.snapshot_state():
            # Recalibrated since the build: this server gets its own.
            self.estimator = PowerEstimator.from_snapshot(state["estimator"])
        if state["sensor"] is not None and isinstance(
            self.sensor, PowerSensor
        ):
            self.sensor.restore_state(state["sensor"])
        if state["workload"] is not None and hasattr(
            self.workload, "restore_state"
        ):
            self.workload.restore_state(state["workload"])

    def __repr__(self) -> str:
        cap = (
            f"cap={self.rapl.limit_w:.0f}W" if self.rapl.capped else "uncapped"
        )
        return (
            f"Server({self.server_id!r}, {self.platform.name}, "
            f"{self.service}, {self._current_power_w:.0f}W, {cap})"
        )
