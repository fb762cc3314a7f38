"""The recipe table: every named world, built armed from plain data.

A snapshot never serializes object graphs or event closures — it stores
a *recipe* (builder name + kwargs) that deterministically rebuilds the
world's structure, and restore then overwrites the rebuilt components'
mutable state.  Anything a builder wires (topology, servers, agents,
controller hierarchy, armed schedules) therefore never needs to be in
the snapshot; only what time and randomness have changed does.

:data:`WORLD_BUILDERS` maps a builder name to a builder returning an
armed :class:`~repro.world.World`:

* ``quickstart`` — the CLI's default 36-server datacenter; ``sized``
  scales that shape to any server count.
* ``ashburn``, ``altoona``, ``hadoop``, ``mixedrow`` — the paper's case
  studies (Figs. 11, 12, 14, 15/16), :mod:`repro.analysis.scenarios`.
* ``chaos`` and ``econ`` — families: ``kwargs["scenario"]`` names a
  drill in :data:`~repro.chaos.scenarios.CHAOS_SCENARIOS` or a day in
  :data:`~repro.economics.scenarios.ECON_SCENARIOS`.

:func:`named_recipe` is the one resolver from a world *name* — what
``repro list`` prints and every ``--scenario`` accepts — to a recipe:
a builder is named by its key, a family by each name in its catalogue.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from typing import Callable

from repro.analysis.scenarios import (
    altoona_world,
    ashburn_world,
    hadoop_world,
    mixedrow_world,
)
from repro.chaos.scenarios import CHAOS_SCENARIOS, chaos_world
from repro.economics.scenarios import ECON_SCENARIOS, build_econ_world
from repro.errors import ConfigurationError, SnapshotError
from repro.fleet import ServiceAllocation
from repro.world import World, datacenter_world


def build_quickstart_world(seed: int = 0) -> World:
    """The CLI quickstart deployment, armed at t=0."""
    world = datacenter_world(
        "quickstart",
        {"builder": "quickstart", "kwargs": {"seed": seed}},
        [ServiceAllocation("web", 24), ServiceAllocation("cache", 12)],
        seed=seed,
    )
    world.start()
    return world


def build_sized_world(
    servers: int = 1000,
    seed: int = 0,
    on_phase: Callable[[str], None] | None = None,
) -> World:
    """A parametric-size deployment for profiling and benchmarks, armed.

    Lays ``servers`` machines (2:1 web:cache) across a topology that
    scales its RPP fan-out with fleet size, so leaf controllers keep a
    realistic span (~hundreds of servers per leaf) as the fleet grows.

    ``on_phase`` is called with a phase name as each set-up phase
    completes (``repro profile``'s set-up table); it is not part of the
    recipe.
    """
    web = (servers * 2) // 3
    world = datacenter_world(
        "sized",
        {"builder": "sized", "kwargs": {"servers": servers, "seed": seed}},
        [
            ServiceAllocation("web", web),
            ServiceAllocation("cache", servers - web),
        ],
        seed=seed,
        rpps_per_sb=max(2, min(16, servers // 400)),
        on_phase=on_phase,
    )
    world.start()  # attaches the batched control plane
    if on_phase is not None:
        on_phase("agent-batch bind")
    return world


WORLD_BUILDERS: dict[str, Callable[..., World]] = {
    "quickstart": build_quickstart_world,
    "sized": build_sized_world,
    "ashburn": ashburn_world,
    "altoona": altoona_world,
    "hadoop": hadoop_world,
    "mixedrow": mixedrow_world,
    "chaos": chaos_world,
    "econ": build_econ_world,
}

#: Family builders and the catalogue whose names they build.
_FAMILIES: dict[str, Mapping] = {
    "chaos": CHAOS_SCENARIOS,
    "econ": ECON_SCENARIOS,
}


def world_names() -> list[str]:
    """Every name :func:`named_recipe` resolves, in table order."""
    names: list[str] = []
    for builder in WORLD_BUILDERS:
        family = _FAMILIES.get(builder)
        names.extend([builder] if family is None else sorted(family))
    return names


def named_recipe(name: str, **kwargs) -> dict:
    """The recipe that builds the world called ``name``.

    ``kwargs`` (a seed, a server count) pass through to the builder;
    :func:`build_world` checks them against its signature.

    Raises:
        ConfigurationError: no world has that name.
    """
    for builder, family in _FAMILIES.items():
        if name in family:
            return {"builder": builder, "kwargs": {"scenario": name, **kwargs}}
    names = world_names()
    if name not in names:
        raise ConfigurationError(
            f"unknown world {name!r}; known: {', '.join(names)}"
        )
    return {"builder": name, "kwargs": kwargs}


def build_world(recipe: dict) -> World:
    """Build the armed world a recipe names.

    The recipe must be a mapping with a known ``builder`` whose kwargs
    bind to that builder's signature; anything else (an unknown or
    missing key, a non-mapping) is a malformed recipe and raises
    :class:`SnapshotError` naming the problem.
    """
    if not isinstance(recipe, Mapping):
        raise SnapshotError(
            f"recipe must be a mapping, not {type(recipe).__name__}"
        )
    name = recipe.get("builder")
    builder = WORLD_BUILDERS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise SnapshotError(
            f"unknown world builder {name!r}; "
            f"known: {', '.join(sorted(WORLD_BUILDERS))}"
        )
    kwargs = recipe.get("kwargs", {})
    if not isinstance(kwargs, Mapping):
        raise SnapshotError(
            f"recipe kwargs for {name!r} must be a mapping, "
            f"not {type(kwargs).__name__}"
        )
    signature = inspect.signature(builder)
    unknown = sorted(set(kwargs) - set(signature.parameters))
    if unknown:
        raise SnapshotError(
            f"recipe for {name!r} has unknown kwargs {unknown}; "
            f"{name!r} takes {list(signature.parameters)}"
        )
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        raise SnapshotError(f"recipe for {name!r}: {exc}") from None
    return builder(**kwargs)
