"""Topology container and validation for the power delivery tree."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import TopologyError
from repro.power.device import DeviceLevel, PowerDevice
from repro.power.table import DeviceTable, RowOf
from repro.simulation.soa import seq_sum


class PowerTopology:
    """A validated forest of power devices rooted at MSBs.

    A datacenter has several MSB roots (the utility feed itself is not a
    protected device in our model).  The topology offers name lookup,
    level filtering, and structural validation.
    """

    def __init__(self, name: str, roots: list[PowerDevice]) -> None:
        self.name = name
        self.roots = list(roots)
        self._by_name: dict[str, PowerDevice] = {}
        #: The forest compiled for the per-step pass; ``None`` until
        #: first needed and again after any structural change.
        self._table: DeviceTable | None = None
        self._packed_power: np.ndarray | None = None
        self._packed_row_of: RowOf | None = None
        self._index()
        self.validate()

    def _index(self) -> None:
        self._by_name.clear()
        for root in self.roots:
            for device in root.iter_subtree():
                if device.name in self._by_name:
                    raise TopologyError(f"duplicate device name {device.name!r}")
                self._by_name[device.name] = device

    def reindex(self) -> None:
        """Rebuild the name index after device renames."""
        self._index()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def device(self, name: str) -> PowerDevice:
        """Look up a device by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise TopologyError(f"no device named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def iter_devices(self) -> Iterator[PowerDevice]:
        """Yield every device in the forest, pre-order per root."""
        for root in self.roots:
            yield from root.iter_subtree()

    def devices_at_level(self, level: DeviceLevel) -> list[PowerDevice]:
        """All devices at one hierarchy level."""
        return [d for d in self.iter_devices() if d.level is level]

    def iter_load_ids(self) -> Iterator[str]:
        """All load (server/switch) identifiers in the datacenter."""
        for root in self.roots:
            yield from root.iter_load_ids()

    @property
    def device_count(self) -> int:
        """Total number of power devices."""
        return len(self._by_name)

    # ------------------------------------------------------------------
    # Validation and health
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise TopologyError on violation."""
        for root in self.roots:
            if root.parent is not None:
                raise TopologyError(f"root {root.name!r} has a parent")
            if root.level is not DeviceLevel.MSB:
                raise TopologyError(
                    f"root {root.name!r} must be an MSB, got {root.level.value}"
                )
        for device in self.iter_devices():
            for child in device.children:
                if child.parent is not device:
                    raise TopologyError(
                        f"child {child.name!r} does not point back to "
                        f"{device.name!r}"
                    )

    def total_power_w(self) -> float:
        """Instantaneous datacenter power draw."""
        return seq_sum(root.power_w() for root in self.roots)

    def tripped_devices(self) -> list[PowerDevice]:
        """Devices whose breakers have tripped."""
        return [d for d in self.iter_devices() if d.breaker.tripped]

    def observe_breakers(self, dt_s: float, now_s: float) -> list[PowerDevice]:
        """Advance every breaker's thermal integration by ``dt_s``.

        Returns the devices that tripped during this step, pre-order.
        Power is evaluated bottom-up *before* any new trips are applied
        so that a parent sees its children's draw in the same instant.
        """
        return self.device_table().observe(dt_s, now_s)

    # ------------------------------------------------------------------
    # The compiled forest
    # ------------------------------------------------------------------

    def device_table(self) -> DeviceTable:
        """The forest compiled into arrays, built on first use.

        Dropped whenever a load is attached or detached, a child added
        or a loss model replaced anywhere in the forest, and recompiled
        by the next call; device and breaker state carries over because
        it is read through the objects, wherever it currently lives.
        """
        table = self._table
        if table is None:
            devices = list(self.iter_devices())
            for device in devices:
                device._load_membership_hook = self._drop_table
            table = DeviceTable(
                devices, self._packed_power, self._packed_row_of
            )
            self._table = table
        return table

    def bind_packed_loads(self, power: np.ndarray, row_of: RowOf) -> None:
        """Read loads straight out of a packed per-server power array.

        ``row_of(source)`` names the row of ``power`` a load callable
        reads, or ``None`` for a load that has to be called.  Installed
        by the fleet driver on the vectorized physics backend.
        """
        self._packed_power = power
        self._packed_row_of = row_of
        self._table = None

    def _drop_table(self, _changed: PowerDevice) -> None:
        self._table = None

    def __repr__(self) -> str:
        return (
            f"PowerTopology({self.name!r}, roots={len(self.roots)}, "
            f"devices={self.device_count})"
        )
