"""Vectorized fleet physics: structure-of-arrays server stepping.

Worlds step their fleets here.  This module packs per-server mutable
state into numpy arrays (the binding machinery lives in
:mod:`repro.simulation.soa`) and advances the whole fleet per tick with
array ops.  The per-object path, :meth:`Server.step
<repro.server.server.Server.step>`, is now two things only: the
fallback for rows an event knocks off the arrays this tick, and the
reference the tests compare against
(``FleetDriver(physics_backend="scalar")``).

The stepper is **bit-identical to that reference by contract**, which
constrains the implementation in ways worth spelling out:

* Transcendentals differ by 1 ulp between numpy ufuncs and the C library
  ``math`` module on a few percent of inputs, so any ``exp``/``cos``/
  ``pow`` the scalar path computes per server is computed here with the
  same ``math`` call per *unique argument* (diurnal shapes, OU decay
  factors, RAPL alphas are shared by construction) and broadcast — or,
  for the per-server power curve, with a python ``**`` per element.
* Reductions use ``np.cumsum(...)[-1]`` (strictly sequential, the
  association of :func:`~repro.simulation.soa.seq_sum`, which the
  scalar path uses), never ``np.sum`` (pairwise) and never the builtin
  ``sum()`` (compensated from Python 3.12).
* Per-row updates are masked ufuncs (``out=``, ``where=online``) over
  the whole arrays, not gather/scatter through an index of the online
  rows: one code path whether every row is online or some are
  offline — and rows outside the mask are untouched.
* RNG draw order is preserved per stream.  Each server's workload
  normals are prefetched in blocks
  (:class:`~repro.simulation.rng.PrefetchedNormals`); any *other* draw
  on that stream — burst arrivals, hadoop phase lengths, snapshot-time
  state capture — goes through the guard it installs and so sees the
  generator at its logical position.  Ticks where a server crosses a
  burst arrival or hadoop phase boundary fall back to the scalar
  ``utilization()`` call for just that server, so variable-count draws
  happen in scalar order.

State is shared, not copied: the scalar objects stay alive as views
onto the arrays (agents, chaos faults, and snapshots read and write
through the same properties on either lane).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.server.power_model import PowerModel
from repro.server.server import Server
from repro.simulation.bulk import collector_held_off
from repro.simulation.rng import PrefetchedNormals
from repro.simulation.soa import ArraySlot, bind_columns
from repro.units import SECONDS_PER_DAY
from repro.workloads.base import StochasticWorkload
from repro.workloads.cache import CacheWorkload
from repro.workloads.database import DatabaseWorkload
from repro.workloads.hadoop import HadoopWorkload
from repro.workloads.newsfeed import NewsfeedWorkload
from repro.workloads.storage import StorageWorkload
from repro.workloads.web import WebWorkload

_ENGAGE_SPAN = 1.0 - PowerModel.TURBO_ENGAGE_UTIL
#: ``PowerModel.performance_factor``'s constants, computed the same way.
_MIN_DVFS_RATIO = PowerModel.MIN_FREQUENCY_FRACTION**PowerModel.DVFS_EXPONENT
_INV_DVFS_EXPONENT = 1.0 / PowerModel.DVFS_EXPONENT

_SERVER_FIELDS = (
    "_current_power_w",
    "_current_utilization",
    "_demanded_work",
    "_delivered_work",
    "_energy_j",
    "_online",
    "_last_step_s",
)

#: Workload classes whose diurnal base trend is held in ``_shape``.
_DIURNAL_TYPES = (WebWorkload, CacheWorkload, DatabaseWorkload, NewsfeedWorkload)


class FleetArrays:
    """The packed per-server state arrays (one row per server).

    Attribute names here are the contract with the ``array_backed``
    declarations on ``Server``, ``RaplModule``, ``TurboBoost``, the
    noise processes, and ``HadoopWorkload``.
    """

    def __init__(self, n: int) -> None:
        self.power = np.zeros(n)
        self.util = np.zeros(n)
        self.demanded = np.zeros(n)
        self.delivered = np.zeros(n)
        self.energy = np.zeros(n)
        self.online = np.ones(n, dtype=bool)
        self.last_step = np.full(n, math.nan)
        self.rapl_limit = np.full(n, math.inf)
        self.rapl_enforced = np.zeros(n)
        self.turbo_enabled = np.zeros(n, dtype=bool)
        self.ou_value = np.zeros(n)
        self.ou_last = np.full(n, math.nan)
        self.burst_next = np.full(n, math.nan)
        self.burst_until = np.full(n, -math.inf)
        self.burst_mag = np.zeros(n)
        self.hadoop_compute = np.zeros(n, dtype=bool)
        self.hadoop_end = np.zeros(n)


class VectorizedFleetStepper:
    """Advances every server in a fleet per tick with array operations."""

    @collector_held_off()
    def __init__(self, fleet: Any, *, prefetch_draws: int = 64) -> None:
        servers = list(fleet.servers.values())
        n = len(servers)
        self._fleet = fleet
        self._n = n
        a = FleetArrays(n)
        self._arrays = a

        self._servers = servers
        self._workloads = [s.workload for s in servers]
        self._server_index = {id(s): i for i, s in enumerate(servers)}

        # Static per-server parameters.
        self._idle_w = np.array([s.platform.idle_power_w for s in servers])
        self._dyn_range = np.array([s.platform.dynamic_range_w for s in servers])
        self._turbo_power_gain = np.array(
            [s.platform.turbo_power_gain for s in servers]
        )
        # Matches TurboBoost.performance_multiplier's python-float add.
        self._turbo_mult = np.array(
            [1.0 + s.platform.turbo_perf_gain for s in servers]
        )
        self._burst_rate = np.zeros(n)
        self._hadoop_hi = np.zeros(n)
        self._hadoop_lo = np.zeros(n)

        # Lane classification.
        self._always_fallback = np.zeros(n, dtype=bool)
        self._ou_mask = np.zeros(n, dtype=bool)
        self._hadoop_mask = np.zeros(n, dtype=bool)
        self._modified: set[int] = set()

        #: Diagnostics: physics ticks run, and server-steps taken on the
        #: scalar fallback lane across them (``repro profile`` reports
        #: the per-tick average so de-vectorization regressions show up).
        self.step_count = 0
        self.fallback_server_steps = 0

        #: One block of pre-drawn normals per workload stream.
        self._normals = PrefetchedNormals(n, prefetch_draws)
        #: One bound method serves every workload's modifier hook.
        self._modifier_hook = self._on_modifiers

        # Group indices and coefficient caches.
        diurnal: dict[Any, list[int]] = {}
        const: dict[float, list[int]] = {}
        exps: dict[float, list[int]] = {}
        ou: dict[tuple[float, float], list[int]] = {}
        rapl: dict[float, list[int]] = {}
        self._ou_coeff_cache: dict[tuple[float, float, float], tuple[float, float]] = {}
        self._rapl_alpha_cache: dict[tuple[float, float], float] = {}

        # Seed the arrays a column at a time, then point the scalar
        # objects at their rows.
        slots = [ArraySlot(a, i) for i in range(n)]
        bind_columns(servers, slots, _SERVER_FIELDS)
        rapls = [s.rapl for s in servers]
        limits = [r.limit_w for r in rapls]
        a.rapl_limit[:] = [math.inf if v is None else v for v in limits]
        bind_columns(rapls, slots, ("_enforced_power_w",))
        bind_columns([s.turbo for s in servers], slots, ("_enabled",))
        for i, srv in enumerate(servers):
            exps.setdefault(srv.platform.curve_exponent, []).append(i)
            rapl.setdefault(srv.rapl._tau_s, []).append(i)
            self._classify_workload(i, srv.workload, diurnal, const, ou)
        packed = [
            i
            for i, w in enumerate(self._workloads)
            if isinstance(w, StochasticWorkload)
        ]
        packed_slots = [slots[i] for i in packed]
        bind_columns(
            [self._workloads[i]._noise for i in packed],
            packed_slots,
            ("_value", "_last_time"),
        )
        bind_columns(
            [self._workloads[i]._bursts for i in packed],
            packed_slots,
            ("_next_start", "_active_until", "_active_magnitude"),
        )
        hadoop = np.flatnonzero(self._hadoop_mask).tolist()
        bind_columns(
            [self._workloads[i] for i in hadoop],
            [slots[i] for i in hadoop],
            ("_phase_is_compute", "_phase_end_s"),
        )

        def _groups(mapping: dict) -> list[tuple[Any, np.ndarray]]:
            return [
                (key, np.array(idx, dtype=np.intp))
                for key, idx in mapping.items()
            ]

        self._diurnal_groups = _groups(diurnal)
        self._const_groups = _groups(const)
        self._exp_groups = _groups(exps)
        self._ou_groups = _groups(ou)
        self._rapl_groups = _groups(rapl)
        self._hadoop_idx = np.nonzero(self._hadoop_mask)[0]
        self._burst_pos = self._burst_rate > 0.0

        # Scratch buffers reused every tick.
        self._scratch_u = np.zeros(n)
        self._scratch_dyn = np.zeros(n)
        self._scratch_factor = np.ones(n)
        self._scratch_work = np.zeros(n)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def _classify_workload(
        self,
        i: int,
        workload: Any,
        diurnal: dict,
        const: dict,
        ou: dict,
    ) -> None:
        """Pick row ``i``'s lane and parameter groups; hook its streams."""
        if not isinstance(workload, StochasticWorkload):
            # ConstantWorkload and anything unknown: correct via the
            # scalar path every tick (no stochastic state to pack).
            self._always_fallback[i] = True
            return

        noise = workload._noise
        bursts = workload._bursts
        self._burst_rate[i] = bursts._rate
        raw = noise._rng
        if bursts._rng is not raw or not PrefetchedNormals.rewindable(raw):
            # The vector lane takes every draw of a row from one
            # rewindable stream; anything else steps on the scalar path.
            self._always_fallback[i] = True
            return

        # Foreign draws on the stream go through the guard, which
        # rewinds the prefetched block first.
        guard = self._normals.attach(i, raw)
        noise._rng = guard
        bursts._rng = guard

        workload._modifier_hook = self._modifier_hook
        if workload._modifiers:
            self._modified.add(i)

        kind = type(workload)
        if kind in _DIURNAL_TYPES:
            diurnal.setdefault(workload._shape, []).append(i)
        elif kind is StorageWorkload:
            const.setdefault(workload._base_level, []).append(i)
        elif kind is HadoopWorkload:
            self._hadoop_hi[i] = workload._compute_level
            self._hadoop_lo[i] = workload._io_level
            self._hadoop_mask[i] = True
            if workload._rng is raw:
                workload._rng = guard
        elif self._is_flat(kind):
            const.setdefault(workload._level, []).append(i)
        else:
            # Unknown base trend: scalar path, but state stays packed so
            # snapshots and telemetry see one source of truth.
            self._always_fallback[i] = True
            return
        self._ou_mask[i] = True
        ou.setdefault((noise._tau_s, noise._sigma), []).append(i)

    @staticmethod
    def _is_flat(kind: type) -> bool:
        try:
            from repro.analysis.worlds import FlatWorkload
        except ImportError:  # pragma: no cover - analysis extras absent
            return False
        return kind is FlatWorkload

    def _on_modifiers(self, workload: StochasticWorkload) -> None:
        i = workload._noise._soa.index
        if workload._modifiers:
            self._modified.add(i)
        else:
            self._modified.discard(i)

    def sync(self) -> None:
        """Flush every prefetch block (before RNG state is read externally)."""
        self._normals.sync()

    # ------------------------------------------------------------------
    # Coefficients (scalar math per unique argument, matching the
    # per-server scalar computations bit for bit)
    # ------------------------------------------------------------------

    def _ou_coeffs(self, tau_s: float, sigma: float, dt: float) -> tuple[float, float]:
        key = (tau_s, sigma, dt)
        hit = self._ou_coeff_cache.get(key)
        if hit is None:
            decay = math.exp(-dt / tau_s)
            diffusion = sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
            hit = (decay, diffusion)
            self._ou_coeff_cache[key] = hit
        return hit

    def _rapl_alpha(self, tau_s: float, dt_s: float) -> float:
        key = (tau_s, dt_s)
        alpha = self._rapl_alpha_cache.get(key)
        if alpha is None:
            alpha = 1.0 - math.exp(-dt_s / tau_s)
            self._rapl_alpha_cache[key] = alpha
        return alpha

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------

    def step(self, now_s: float, dt_s: float) -> None:
        """Advance every server by ``dt_s`` seconds ending at ``now_s``."""
        n = self._n
        if len(self._fleet.servers) != n:
            raise RuntimeError(
                "fleet membership changed after the vectorized stepper was "
                "bound; rebuild the driver"
            )
        if n == 0:
            return
        a = self._arrays
        online = a.online
        u = self._scratch_u

        # Lane selection: servers whose stream would see a variable
        # number of draws this tick (burst arrival, hadoop phase cross)
        # or whose workload we cannot vectorize run the scalar path.
        fallback = self._always_fallback.copy()
        if self._hadoop_idx.size:
            fallback |= self._hadoop_mask & (now_s >= a.hadoop_end)
        # A row sampled for the first time has no arrival drawn yet.
        # Its noise makes no draw on that sample, so the exponential is
        # the stream's next draw on the scalar path too: take it here
        # rather than send the whole fleet down the scalar lane at t=0.
        undrawn = self._burst_pos & online & ~fallback
        undrawn &= np.isnan(a.burst_next) & np.isnan(a.ou_last)
        first = np.flatnonzero(undrawn)
        if first.size:
            generator = self._normals.generator
            scales = (1.0 / self._burst_rate[first]).tolist()
            a.burst_next[first] = now_s + np.array(
                [
                    generator(i).exponential(scale)
                    for i, scale in zip(first.tolist(), scales)
                ]
            )
        fallback |= self._burst_pos & (
            np.isnan(a.burst_next) | (now_s >= a.burst_next)
        )
        fallback &= online
        vec = online & ~fallback
        self.step_count += 1
        self.fallback_server_steps += int(np.count_nonzero(fallback))

        # Base trend, one scalar math call per group broadcast.
        for shape, idx in self._diurnal_groups:
            phase = 2.0 * math.pi * (now_s - shape.peak_time_s) / SECONDS_PER_DAY
            blend = (1.0 + math.cos(phase)) / 2.0
            u[idx] = shape.trough + (shape.peak - shape.trough) * blend
        for level, idx in self._const_groups:
            u[idx] = level
        hidx = self._hadoop_idx
        if hidx.size:
            u[hidx] = np.where(
                a.hadoop_compute[hidx], self._hadoop_hi[hidx], self._hadoop_lo[hidx]
            )

        # OU noise: exactly one buffered draw per advancing server.
        ou_elig = self._ou_mask & vec
        if ou_elig.any():
            first = ou_elig & np.isnan(a.ou_last)
            if first.any():
                a.ou_last[first] = now_s
            adv = ou_elig & (now_s > a.ou_last)
            if adv.any():
                for (tau_s, sigma), gidx in self._ou_groups:
                    sel = gidx[adv[gidx]]
                    if sel.size == 0:
                        continue
                    dts = now_s - a.ou_last[sel]
                    if sel.size == 1 or (dts == dts[0]).all():
                        subsets = [(float(dts[0]), sel)]
                    else:
                        subsets = [
                            (float(dt), sel[dts == dt]) for dt in np.unique(dts)
                        ]
                    for dt, rows in subsets:
                        decay, diffusion = self._ou_coeffs(tau_s, sigma, dt)
                        z = self._normals.draw(rows)
                        a.ou_value[rows] = a.ou_value[rows] * decay + diffusion * z
                    a.ou_last[sel] = now_s
            np.add(u, a.ou_value, out=u, where=ou_elig)
            # Bursts: the vec lane never crosses an arrival, so the
            # contribution is pure state readout.
            bursting = ou_elig & self._burst_pos
            bursting &= now_s < a.burst_until
            np.add(u, a.burst_mag, out=u, where=bursting)

        # Modifiers are pure (no draws): scalar post-pass, pre-clamp.
        if self._modified:
            for i in sorted(self._modified):
                if vec[i]:
                    val = float(u[i])
                    for modifier in self._workloads[i]._modifiers:
                        val = modifier.apply(now_s, val)
                    u[i] = val

        np.maximum(u, 0.0, out=u, where=vec)
        np.minimum(u, 1.0, out=u, where=vec)

        # Scalar lane: the guard rewinds each stream before its draws.
        for i in np.nonzero(fallback)[0]:
            u[i] = min(1.0, max(0.0, self._workloads[i].utilization(now_s)))

        off_idx = np.nonzero(~online)[0]
        if off_idx.size:
            u[off_idx] = 0.0

        # Power model: python ** per element (numpy's pow differs by
        # 1 ulp on a few percent of inputs), group-batched by exponent.
        dyn = self._scratch_dyn
        for exp_e, gidx in self._exp_groups:
            dyn[gidx] = [v**exp_e for v in u[gidx].tolist()]
        dyn *= self._dyn_range
        tsel = a.turbo_enabled & online & (u > PowerModel.TURBO_ENGAGE_UTIL)
        if tsel.any():
            tidx = np.nonzero(tsel)[0]
            engagement = (u[tidx] - PowerModel.TURBO_ENGAGE_UTIL) / _ENGAGE_SPAN
            dyn[tidx] *= 1.0 + self._turbo_power_gain[tidx] * engagement
        demand = dyn
        demand += self._idle_w

        # RAPL first-order settle toward min(demand, limit).
        if dt_s > 0:
            target = np.minimum(demand, a.rapl_limit)
            for tau_s, gidx in self._rapl_groups:
                sel = gidx[online[gidx]]
                if sel.size == 0:
                    continue
                alpha = self._rapl_alpha(tau_s, dt_s)
                a.rapl_enforced[sel] += (target[sel] - a.rapl_enforced[sel]) * alpha

        # Performance factor (``PowerModel.performance_factor`` on the
        # ``demand`` this tick already holds): non-unity only where a
        # finite cap binds, and a python ``**`` only in the DVFS regime.
        factor = self._scratch_factor
        factor.fill(1.0)
        capped = online & (u > 0.0)
        capped &= a.rapl_limit < demand
        cidx = np.flatnonzero(capped)
        if cidx.size:
            idle = self._idle_w[cidx]
            demand_dynamic = demand[cidx] - idle
            cap_dynamic = np.maximum(0.0, a.rapl_limit[cidx] - idle)
            binds = demand_dynamic > 0.0
            ratio = np.divide(
                cap_dynamic, demand_dynamic, out=np.ones(cidx.size), where=binds
            )
            dvfs = ratio >= _MIN_DVFS_RATIO
            slowed = PowerModel.MIN_FREQUENCY_FRACTION * (ratio / _MIN_DVFS_RATIO)
            slowed[dvfs] = [r**_INV_DVFS_EXPONENT for r in ratio[dvfs].tolist()]
            np.maximum(slowed, 0.01, out=slowed)
            factor[cidx] = np.where(binds, slowed, 1.0)

        # Accounting, preserving the scalar path's association order.
        work = self._scratch_work
        np.multiply(u, dt_s, out=work)
        np.add(a.demanded, work, out=a.demanded, where=online)
        np.multiply(u, factor, out=work)
        np.multiply(work, self._turbo_mult, out=work, where=a.turbo_enabled)
        work *= dt_s
        np.add(a.delivered, work, out=a.delivered, where=online)
        np.multiply(a.rapl_enforced, dt_s, out=work)
        np.add(a.energy, work, out=a.energy, where=online)
        np.copyto(a.power, a.rapl_enforced, where=online)
        np.copyto(a.util, u, where=online)
        np.copyto(a.last_step, now_s, where=online)
        if off_idx.size:
            a.power[off_idx] = 0.0
            a.util[off_idx] = 0.0

    # ------------------------------------------------------------------
    # Batched aggregation
    # ------------------------------------------------------------------

    def total_power(self) -> float:
        """Fleet-wide power, identical to summing ``power_w()`` in order.

        ``cumsum`` accumulates strictly left to right, matching the
        scalar path's ``seq_sum``.
        """
        if self._n == 0:
            return 0.0
        return float(np.cumsum(self._arrays.power)[-1])

    def bind_device_loads(self, topology: Any) -> None:
        """Let the topology's breaker pass read loads from the packed array.

        A device load that is a plain ``Server.power_w`` bound method of
        a bound server is gathered from its row of the power array; any
        other load callable (a switch, a test stub) is called.
        """
        topology.bind_packed_loads(self._arrays.power, self._load_row)

    def _load_row(self, source: Any) -> int | None:
        if getattr(source, "__func__", None) is not Server.power_w:
            return None
        return self._server_index.get(id(source.__self__))


__all__ = [
    "FleetArrays",
    "VectorizedFleetStepper",
]
