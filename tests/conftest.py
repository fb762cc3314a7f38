"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.fleet import FleetDriver
from repro.power.device import DeviceLevel, PowerDevice
from repro.power.topology import PowerTopology
from repro.server.platform import HASWELL_2015
from repro.server.server import ConstantWorkload, Server
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine at t=0."""
    return SimulationEngine()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def rng_streams() -> RngStreams:
    """A deterministic stream family."""
    return RngStreams(1234)


def make_server(
    server_id: str = "srv-0",
    *,
    utilization: float = 0.5,
    service: str = "web",
    platform=HASWELL_2015,
    turbo: bool = False,
) -> Server:
    """A server pinned at a constant utilization."""
    return Server(
        server_id,
        platform,
        ConstantWorkload(utilization, service=service),
        turbo_enabled=turbo,
    )


def settle_server(server: Server, seconds: float = 30.0) -> None:
    """Step a server long enough for RAPL to fully settle."""
    t = 0.0
    while t < seconds:
        t += 1.0
        server.step(t, 1.0)


def tiny_topology() -> PowerTopology:
    """msb0 -> sb0 -> (rpp0, rpp1), no racks."""
    msb = PowerDevice("msb0", DeviceLevel.MSB, 100_000.0)
    sb = PowerDevice("sb0", DeviceLevel.SB, 50_000.0)
    msb.add_child(sb)
    sb.add_child(PowerDevice("rpp0", DeviceLevel.RPP, 30_000.0))
    sb.add_child(PowerDevice("rpp1", DeviceLevel.RPP, 30_000.0))
    return PowerTopology("tiny", [msb])


@contextmanager
def scalar_lane():
    """Build worlds on the per-object reference lane.

    Every world builder runs the array lane: the vectorized stepper plus
    the batched control plane ``Dynamo.start`` attaches to it.  Inside
    this block each ``FleetDriver`` is built with
    ``physics_backend="scalar"``, so there is no stepper to attach to
    and any builder yields the reference that parity tests compare
    against.
    """
    build_driver = FleetDriver.__init__

    def scalar_driver(self, *args, **kwargs):
        build_driver(self, *args, **{**kwargs, "physics_backend": "scalar"})

    with mock.patch.object(FleetDriver, "__init__", scalar_driver):
        yield
