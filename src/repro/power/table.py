"""The power tree compiled into arrays: one bottom-up pass per step.

:meth:`PowerDevice.power_w` defines a device's draw recursively, which
is the right way to read it and the wrong way to evaluate every device
of a forest each physics step: asking each device in turn re-walks
every ancestor's whole subtree.  A :class:`DeviceTable` flattens the
forest once (devices in pre-order, so anything listed by index is
listed the way ``iter_devices`` yields it) and evaluates every draw in
a single pass from the leaves up, then integrates every breaker's
thermal stress as array arithmetic.

The pass is **bit-identical** to the recursive definition.  A device's
draw is ``(fixed + direct) + children`` where ``direct`` and
``children`` are strict left-to-right sums starting from zero
(:func:`~repro.simulation.soa.seq_sum`).  Both are computed here by
*column accumulation*: the devices of one group are ordered by
descending operand count, column ``j`` holds every device's ``j``-th
operand, and ``acc[:len(column)] += column`` adds it — so each device
sees its own operands one at a time, in order, which is the same
sequence of IEEE additions the scalar loop performs.  Loss models and
breaker ratios are elementwise ``/`` and ``+`` (exact either way), and
the only transcendentals — the cooling ``exp`` (one scalar per step)
and the trip curve's ``**`` (only for devices actually above rating) —
stay on the ``math``/python path the scalar breaker uses.

Mutable per-device state the pass reads or writes — fixed overhead,
breaker rating, stress, trip latch, trip time — lives in this table's
arrays; the :class:`PowerDevice` and :class:`CircuitBreaker` objects
are bound to their row with :func:`~repro.simulation.soa.array_backed`
descriptors and stay the way to read or change any of it.  Structure
(children, loads, loss models) is baked in: the owning topology drops
the table when any of it changes and compiles a new one on next use.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.power.breaker import CircuitBreaker
from repro.simulation.soa import ArraySlot, bind_columns, seq_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.power.device import LoadSource, PowerDevice

#: Maps a load callable to the row of the packed power array it reads,
#: or ``None`` when it has to be called.
RowOf = Callable[["LoadSource"], "int | None"]

_DEVICE_FIELDS = ("fixed_overhead_w",)
_BREAKER_FIELDS = ("rated_power_w", "_stress", "_tripped", "_trip_time")


def _column_major(operands: dict[int, list]) -> tuple[list[int], list, list[int]]:
    """Lay ragged operand lists out for column accumulation.

    Returns ``(owners, items, bounds)``: the owners ordered by
    descending operand count, every operand column-major (column ``j``
    is ``items[bounds[j]:bounds[j + 1]]`` and belongs to the first
    ``bounds[j + 1] - bounds[j]`` owners).
    """
    owners = sorted(operands, key=lambda o: -len(operands[o]))
    width = len(operands[owners[0]]) if owners else 0
    items: list = []
    bounds = [0]
    for j in range(width):
        items += [operands[o][j] for o in owners if len(operands[o]) > j]
        bounds.append(len(items))
    return owners, items, bounds


class _Columns:
    """Accumulates column-major values into per-owner running sums."""

    __slots__ = ("owners", "bounds", "acc")

    def __init__(self, owners: list[int], bounds: list[int]) -> None:
        self.owners = np.array(owners, dtype=np.intp)
        self.bounds = bounds
        self.acc = np.zeros(len(owners))

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Per-owner left-to-right sums of ``values`` (column-major)."""
        acc = self.acc
        acc.fill(0.0)
        start = 0
        for stop in self.bounds[1:]:
            head = acc[: stop - start]
            head += values[start:stop]
            start = stop
        return acc


class _Level:
    """Devices of one height: what to add up, then what to correct."""

    __slots__ = (
        "index", "children", "child_index", "lossy", "efficiency", "overhead"
    )

    def __init__(
        self,
        index: list[int],
        children: dict[int, list[int]],
        devices: list["PowerDevice"],
    ) -> None:
        self.index = np.array(index, dtype=np.intp)
        owners, items, bounds = _column_major(children)
        self.children = _Columns(owners, bounds)
        self.child_index = np.array(items, dtype=np.intp)
        models = [(i, devices[i].loss_model) for i in index]
        lossy = [(i, m) for i, m in models if m is not None]
        self.lossy = np.array([i for i, _ in lossy], dtype=np.intp)
        self.efficiency = np.array([m.efficiency for _, m in lossy])
        self.overhead = np.array([m.overhead_w for _, m in lossy])


class DeviceTable:
    """Every device of a forest, packed for the per-step physics pass."""

    def __init__(
        self,
        devices: Iterable["PowerDevice"],
        power: np.ndarray | None = None,
        row_of: RowOf | None = None,
    ) -> None:
        self.devices = list(devices)
        n = len(self.devices)
        position = {id(d): i for i, d in enumerate(self.devices)}

        # Array-backed state (names are the ``array_backed`` contract).
        self.fixed_overhead = np.zeros(n)
        self.breaker_rating = np.ones(n)
        self.breaker_stress = np.zeros(n)
        self.breaker_tripped = np.zeros(n, dtype=bool)
        self.breaker_trip_time = np.full(n, math.nan)
        slots = [ArraySlot(self, i) for i in range(n)]
        bind_columns(self.devices, slots, _DEVICE_FIELDS)
        bind_columns(
            [device.breaker for device in self.devices], slots, _BREAKER_FIELDS
        )

        # Direct loads.  A device with at least one load in the packed
        # power array is summed by gather + column accumulation (loads
        # that have to be called are patched into the gathered vector);
        # any other load-bearing device is summed by calling its loads.
        self._power = power if power is not None else np.zeros(0)
        gathered: dict[int, list[tuple[int | None, "LoadSource"]]] = {}
        self._called: list[tuple[int, Iterable["LoadSource"]]] = []
        for i, device in enumerate(self.devices):
            sources = device._loads.values()
            rows = (
                [row_of(source) for source in sources]
                if row_of is not None
                else []
            )
            if any(row is not None for row in rows):
                gathered[i] = list(zip(rows, sources))
            elif sources:
                self._called.append((i, sources))
        owners, items, bounds = _column_major(gathered)
        self._loads = _Columns(owners, bounds)
        self._load_rows = np.array(
            [0 if row is None else row for row, _ in items], dtype=np.intp
        )
        self._patch_at = np.array(
            [k for k, (row, _) in enumerate(items) if row is None],
            dtype=np.intp,
        )
        self._patch_sources = [src for row, src in items if row is None]
        self._gathered = np.zeros(len(items))

        # Levels by height (leaf devices first).
        height = [0] * n
        for i in range(n - 1, -1, -1):  # reverse pre-order: children first
            kids = self.devices[i].children
            if kids:
                height[i] = 1 + max(height[position[id(c)]] for c in kids)
        self._levels: list[_Level] = []
        for h in range(max(height, default=-1) + 1):
            index = [i for i in range(n) if height[i] == h]
            children = {
                i: [position[id(c)] for c in self.devices[i].children]
                for i in index
                if self.devices[i].children
            }
            self._levels.append(_Level(index, children, self.devices))

        # Scratch reused every pass.
        self._direct = np.zeros(n)
        self._draw = np.zeros(n)
        self._ratio = np.zeros(n)
        self._live = np.zeros(n, dtype=bool)
        self._over = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------

    def draws(self) -> np.ndarray:
        """Every device's ``power_w()``, in table order (a scratch view)."""
        direct = self._direct
        loads = self._loads
        if self._load_rows.size:
            gathered = self._gathered
            np.take(self._power, self._load_rows, out=gathered)
            if self._patch_sources:
                gathered[self._patch_at] = [s() for s in self._patch_sources]
            direct[loads.owners] = loads.accumulate(gathered)
        for i, sources in self._called:
            direct[i] = seq_sum([source() for source in sources])

        draw = self._draw
        np.add(self.fixed_overhead, direct, out=draw)
        tripped = self.breaker_tripped
        any_tripped = bool(tripped.any())
        for level in self._levels:
            columns = level.children
            if level.child_index.size:
                draw[columns.owners] += columns.accumulate(
                    draw[level.child_index]
                )
            lossy = level.lossy
            if lossy.size:
                below = draw[lossy]
                draw[lossy] = np.where(
                    below <= 0.0,
                    np.maximum(0.0, level.overhead),
                    below / level.efficiency + level.overhead,
                )
            if any_tripped:
                index = level.index
                draw[index[tripped[index]]] = 0.0
        return draw

    # ------------------------------------------------------------------
    # Breakers
    # ------------------------------------------------------------------

    def observe(self, dt_s: float, now_s: float) -> list["PowerDevice"]:
        """Integrate ``dt_s`` seconds of every breaker's thermal stress.

        Returns the devices that tripped in this step, in table order.
        Draws are evaluated before any new trip is applied, so a parent
        sees its children's draw of the same instant.
        """
        if dt_s < 0:
            raise ConfigurationError("dt must be non-negative")
        draw = self.draws()
        stress = self.breaker_stress
        tripped = self.breaker_tripped
        live = np.logical_not(tripped, out=self._live)
        ratio = np.divide(draw, self.breaker_rating, out=self._ratio)
        over = np.greater(ratio, 1.0, out=self._over)
        over &= live
        # At or below rating: shed stress (one scalar exp, broadcast).
        decay = math.exp(-CircuitBreaker.COOLING_RATE_PER_S * dt_s)
        np.multiply(stress, decay, out=stress, where=live & ~over)
        # Above rating: the trip curve's ``**`` per device, scalar.
        if over.any():
            for i in np.flatnonzero(over).tolist():
                curve = self.devices[i].breaker.curve
                horizon = curve.trip_time(float(ratio[i]))
                if horizon <= 0.0:
                    stress[i] = 1.0
                else:
                    stress[i] = float(stress[i]) + dt_s / horizon
        live &= stress >= 1.0
        if not live.any():
            return []
        newly = np.flatnonzero(live)
        stress[newly] = 1.0
        tripped[newly] = True
        self.breaker_trip_time[newly] = now_s
        return [self.devices[i] for i in newly.tolist()]
