"""Structure-of-arrays binding for scalar state holders.

The vectorized fleet backend (:mod:`repro.server.vectorized`) packs
per-server mutable state into numpy arrays and advances the whole fleet
with array ops.  The scalar objects (``Server``, ``RaplModule``, the
noise processes) stay alive as *views*: every read or write of a bound
field is redirected into the packed array slot, so external code —
agents pulling power, chaos faults flipping servers offline, snapshot
capture/restore — behaves identically on either backend.

A class opts in per field with :func:`array_backed`::

    class Server:
        _soa: ArraySlot | None = None
        _current_power_w = array_backed("power")

Unbound instances (``_soa is None``) store the value in a shadow
attribute, so the scalar backend pays only a property indirection.
Binding an instance means copying its shadow values into the arrays and
assigning ``_soa``; the shadow copies are never read again until the
slot is released.
"""

from __future__ import annotations

import math
from typing import Any, Iterable


class ArraySlot:
    """One object's slot (row index) in a stepper's packed arrays.

    ``arrays`` is any object exposing the named numpy arrays as
    attributes; ``index`` is the row this instance owns.
    """

    __slots__ = ("arrays", "index")

    def __init__(self, arrays: Any, index: int) -> None:
        self.arrays = arrays
        self.index = index


def seq_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right, starting from ``0.0``.

    The scalar and array implementations are bit-identical by contract,
    and the array side accumulates sequentially (``np.cumsum(x)[-1]``,
    column accumulation in :mod:`repro.power.table`).  The builtin
    ``sum()`` is not that: from Python 3.12 it compensates float sums
    (Neumaier), so it rounds differently from a running total.  Every
    scalar sum the contract covers goes through this loop instead.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _shadow(array_name: str) -> str:
    return "_soa_shadow_" + array_name


def array_backed(array_name: str, *, kind: str = "float") -> property:
    """A property redirecting a scalar field into a packed-array slot.

    ``kind`` selects the value mapping:

    * ``"float"`` — plain float.
    * ``"bool"`` — stored in a bool array.
    * ``"int"`` — stored in an integer array.
    * ``"nan_none"`` — float-or-None; ``None`` is encoded as NaN.
    """
    shadow = _shadow(array_name)

    if kind == "float":

        def fget(self: Any) -> float:
            slot = self._soa
            if slot is None:
                return getattr(self, shadow)
            return float(getattr(slot.arrays, array_name)[slot.index])

        def fset(self: Any, value: float) -> None:
            slot = self._soa
            if slot is None:
                setattr(self, shadow, value)
            else:
                getattr(slot.arrays, array_name)[slot.index] = value

    elif kind == "bool":

        def fget(self: Any) -> bool:  # type: ignore[misc]
            slot = self._soa
            if slot is None:
                return getattr(self, shadow)
            return bool(getattr(slot.arrays, array_name)[slot.index])

        def fset(self: Any, value: bool) -> None:
            slot = self._soa
            if slot is None:
                setattr(self, shadow, value)
            else:
                getattr(slot.arrays, array_name)[slot.index] = bool(value)

    elif kind == "int":

        def fget(self: Any) -> int:  # type: ignore[misc]
            slot = self._soa
            if slot is None:
                return getattr(self, shadow)
            return int(getattr(slot.arrays, array_name)[slot.index])

        def fset(self: Any, value: int) -> None:
            slot = self._soa
            if slot is None:
                setattr(self, shadow, value)
            else:
                getattr(slot.arrays, array_name)[slot.index] = int(value)

    elif kind == "nan_none":

        def fget(self: Any) -> float | None:  # type: ignore[misc]
            slot = self._soa
            if slot is None:
                return getattr(self, shadow)
            value = float(getattr(slot.arrays, array_name)[slot.index])
            return None if math.isnan(value) else value

        def fset(self: Any, value: float | None) -> None:
            slot = self._soa
            if slot is None:
                setattr(self, shadow, value)
            else:
                getattr(slot.arrays, array_name)[slot.index] = (
                    math.nan if value is None else value
                )

    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown array_backed kind {kind!r}")

    return property(fget, fset)


def bind_fields(obj: Any, slot: ArraySlot, fields: tuple[str, ...]) -> None:
    """Bind ``obj`` to ``slot``, seeding arrays from its shadow values.

    ``fields`` lists the array-backed attribute names.  The current
    (shadow) value of each is written through the property *after*
    ``_soa`` is assigned, so it lands in the array with the right value
    mapping applied.
    """
    values = {attr: getattr(obj, attr) for attr in fields}
    obj._soa = slot
    for attr, value in values.items():
        setattr(obj, attr, value)
