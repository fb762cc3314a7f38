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
Binding is by column (:func:`bind_columns`): each field's current values
are written into the packed array in one assignment, then every object
is pointed at its slot; the shadow copies are never read again until the
slot is released.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence


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


class ArrayBackedProperty(property):
    """An :func:`array_backed` property, remembering where it points."""

    array_name: str
    kind: str


def array_backed(
    array_name: str, *, kind: str = "float"
) -> ArrayBackedProperty:
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

    prop = ArrayBackedProperty(fget, fset)
    prop.array_name = array_name
    prop.kind = kind
    return prop


def bind_columns(
    objs: Sequence[Any], slots: Sequence[ArraySlot], fields: tuple[str, ...]
) -> None:
    """Bind ``objs[k]`` to ``slots[k]``, seeding the arrays by column.

    ``objs`` are instances of one class, ``slots`` rows of one arrays
    object and ``fields`` the class's :func:`array_backed` attribute
    names.  Each field's current values (read through the property, so
    a value living in a previous binding's arrays carries over) are
    written with one fancy-indexed assignment — the array's dtype and
    the ``None`` -> NaN encoding do what the property setter does per
    value — and only then is every object pointed at its slot.
    """
    if not objs:
        return
    cls = type(objs[0])
    arrays = slots[0].arrays
    rows = [slot.index for slot in slots]
    for attr in fields:
        prop: ArrayBackedProperty = getattr(cls, attr)
        column = [getattr(obj, attr) for obj in objs]
        if prop.kind == "nan_none":
            column = [math.nan if v is None else v for v in column]
        getattr(arrays, prop.array_name)[rows] = column
    for obj, slot in zip(objs, slots):
        obj._soa = slot
