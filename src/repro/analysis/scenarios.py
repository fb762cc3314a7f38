"""The paper's production case studies as unarmed worlds.

Each scenario function builds one :class:`~repro.world.World` around one
published event, and ``<name>_world`` is the same world armed with its
recipe: the recipe table's ``ashburn``, ``altoona``, ``hadoop`` and
``mixedrow`` entries.

* :func:`ashburn_load_test` — Figure 11: a front-end cluster's PDU
  breaker driven into capping by a production load test.
* :func:`altoona_outage_recovery` — Figure 12: an SB surged to ~1.3x its
  normal peak by post-outage recovery traffic; the SB controller caps
  three offender rows.
* :func:`prineville_hadoop_turbo` — Figure 14: a Hadoop cluster with
  Turbo Boost enabled, living just under its SB limit for 24 hours.
* :func:`mixed_service_row` — Figures 15/16: one row carrying web, cache
  and feed servers, capped workload-aware.

Absolute scale is reduced ~10x from the paper (hundreds of servers per
scenario rather than thousands) to keep pure-Python runtimes sane; power
ratings are scaled with the fleet so all *relative* behaviour — who caps,
when, and to what level — is preserved.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.core.dynamo import Dynamo
from repro.fleet import Fleet, FleetDriver
from repro.power.device import DeviceLevel, PowerDevice
from repro.power.oversubscription import plan_quotas
from repro.power.topology import PowerTopology
from repro.server.platform import HASWELL_2015, ServerPlatform
from repro.server.server import PlatformTemplate, Server
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStreams
from repro.units import hours, kilowatts, megawatts
from repro.workloads.base import StochasticWorkload
from repro.workloads.cache import CacheWorkload
from repro.workloads.diurnal import DiurnalShape
from repro.workloads.events import LoadTestEvent, SiteOutageRecoveryEvent
from repro.workloads.hadoop import HadoopWorkload
from repro.workloads.newsfeed import NewsfeedWorkload
from repro.workloads.storage import StorageWorkload
from repro.workloads.web import WebWorkload
from repro.world import World

#: ``benchmarks/perf/fleet.py`` builds its rows world as
#: ``Scenario("rows", engine, topology, fleet, dynamo, driver)``.
Scenario = World


def _chain_world(
    name: str,
    topology_name: str,
    leaf_ratings_w: list[float],
    populate: Callable[[PowerTopology, Fleet, RngStreams], dict],
    *,
    seed: int,
    sb_rating_w: float,
    step_interval_s: float,
    start_s: float = 0.0,
    end_s: float,
    physics_backend: str = "vectorized",
) -> World:
    """An MSB -> SB -> N RPP chain, populated and unarmed.

    The case-study assembly: ``populate(topology, fleet, rng)`` attaches
    the servers to the chain and returns the world's extras.
    """
    rng_streams = RngStreams(seed)
    engine = SimulationEngine(start_time=start_s)
    msb = PowerDevice("msb0", DeviceLevel.MSB, megawatts(2.5))
    sb = PowerDevice("sb0", DeviceLevel.SB, sb_rating_w)
    msb.add_child(sb)
    for i, rating in enumerate(leaf_ratings_w):
        sb.add_child(PowerDevice(f"rpp{i}", DeviceLevel.RPP, rating))
    topology = PowerTopology(topology_name, [msb])
    plan_quotas(topology)
    fleet = Fleet()
    extras = populate(topology, fleet, rng_streams)
    dynamo = Dynamo(
        engine, topology, fleet, rng_streams=rng_streams.fork("dynamo")
    )
    driver = FleetDriver(
        engine, topology, fleet, step_interval_s=step_interval_s,
        physics_backend=physics_backend,
    )
    return World(
        name, engine, topology, fleet, dynamo, driver, rng=rng_streams,
        start_s=start_s, end_s=end_s, extras=extras,
    )


def _attach_servers(
    device: PowerDevice,
    fleet: Fleet,
    prefix: str,
    count: int,
    make_workload,
    rng_streams: RngStreams,
    *,
    platform: ServerPlatform = HASWELL_2015,
    turbo: bool = False,
) -> list[Server]:
    """Create ``count`` servers on ``device`` with per-server workloads."""
    servers: list[Server] = []
    template = PlatformTemplate(platform)
    for i in range(count):
        server_id = f"{prefix}-{i:04d}"
        rng = rng_streams.stream(f"workload.{server_id}")
        server = Server(
            server_id,
            template,
            make_workload(rng),
            rng=rng_streams.stream(f"sensor.{server_id}"),
            turbo_enabled=turbo,
        )
        device.attach_load(server_id, server.power_w)
        fleet.servers[server_id] = server
        servers.append(server)
    return servers


# ---------------------------------------------------------------------------
# Figure 11 — Ashburn front-end load test
# ---------------------------------------------------------------------------

def ashburn_load_test(
    *,
    server_count: int = 450,
    pdu_rating_w: float = kilowatts(127.5),
    seed: int = 11,
) -> World:
    """Front-end cluster whose PDU is driven into capping by a load test.

    Timeline mirrors the paper: normal diurnal ramp from 8:00, load test
    from ~10:40 pushing power past the 99% capping threshold around
    11:15, test ends 11:45, uncap near 12:00.  Simulation time is
    seconds-after-midnight.
    """
    load_test = LoadTestEvent(
        start_s=hours(10) + 40 * 60,
        end_s=hours(11) + 45 * 60,
        magnitude=0.25,
        ramp_s=2100.0,
    )

    def make_web(rng: np.random.Generator) -> StochasticWorkload:
        workload = WebWorkload(
            rng, shape=DiurnalShape(trough=0.30, peak=0.68)
        )
        workload.add_modifier(load_test)
        return workload

    def populate(topology, fleet, rng_streams) -> dict:
        pdu = topology.device("rpp0")
        _attach_servers(pdu, fleet, "web", server_count, make_web, rng_streams)
        return {"pdu": pdu, "load_test": load_test}

    return _chain_world(
        "ashburn",
        "ashburn-frontend",
        [pdu_rating_w],
        populate,
        seed=seed,
        sb_rating_w=megawatts(1.25),
        step_interval_s=1.0,
        start_s=hours(8),
        end_s=hours(12) + 30 * 60,
    )


# ---------------------------------------------------------------------------
# Figure 12 — Altoona site-outage recovery surge
# ---------------------------------------------------------------------------

def altoona_outage_recovery(
    *,
    hot_rows: int = 3,
    cool_rows: int = 5,
    servers_per_hot_row: int = 50,
    servers_per_cool_row: int = 40,
    sb_rating_w: float = kilowatts(90),
    rpp_rating_w: float = kilowatts(40),
    seed: int = 12,
) -> World:
    """SB surged past its limit by recovery traffic; offender rows capped.

    Three "hot" rows run Turbo-enabled web servers that soak up the
    recovery surge and blow through their row quotas; five "cool" rows
    run f4 storage, indifferent to user traffic.  The SB-level upper
    controller should cap exactly the hot rows (punish-offender-first)
    while storage rows ride through untouched.

    Scaled ~10x down from the paper's 1.25 MW SB.
    """
    # The paper's SB rose to ~1.3x its normal *power* peak; demand
    # multipliers act on utilization, and the convex power curve plus
    # clipping at 100% means a 1.6x demand surge yields roughly that
    # 1.3x power excursion.
    outage = SiteOutageRecoveryEvent(hours(12), surge_multiplier=1.6)

    def make_hot(rng: np.random.Generator) -> StochasticWorkload:
        workload = WebWorkload(
            rng, shape=DiurnalShape(trough=0.45, peak=0.70)
        )
        workload.add_modifier(outage)
        return workload

    def make_cool(rng: np.random.Generator) -> StochasticWorkload:
        # Storage servers also feel the recovery (mass restarts), but
        # far less: their base demand is small and IO-bound.
        workload = StorageWorkload(rng, base_level=0.22)
        workload.add_modifier(outage)
        return workload

    def populate(topology, fleet, rng_streams) -> dict:
        hot_row_devices: list[PowerDevice] = []
        for row in range(hot_rows):
            device = topology.device(f"rpp{row}")
            hot_row_devices.append(device)
            _attach_servers(
                device,
                fleet,
                f"web-r{row}",
                servers_per_hot_row,
                make_hot,
                rng_streams,
                turbo=True,
            )
        cool_row_devices: list[PowerDevice] = []
        for row in range(hot_rows, hot_rows + cool_rows):
            device = topology.device(f"rpp{row}")
            cool_row_devices.append(device)
            _attach_servers(
                device,
                fleet,
                f"f4-r{row}",
                servers_per_cool_row,
                make_cool,
                rng_streams,
            )
        return {
            "outage": outage,
            "sb": topology.device("sb0"),
            "hot_rows": hot_row_devices,
            "cool_rows": cool_row_devices,
        }

    return _chain_world(
        "altoona",
        "altoona",
        [rpp_rating_w] * (hot_rows + cool_rows),
        populate,
        seed=seed,
        sb_rating_w=sb_rating_w,
        # The one world left on the per-object reference lane: the perf
        # harness's fig12_outage workload is declared as that lane's
        # per-call RPC measurement.
        step_interval_s=3.0,
        physics_backend="scalar",
        start_s=hours(11),
        end_s=hours(14) + 600.0,
    )


# ---------------------------------------------------------------------------
# Figure 14 — Prineville Hadoop cluster with Turbo Boost
# ---------------------------------------------------------------------------

def prineville_hadoop_turbo(
    *,
    server_count: int = 300,
    rows: int = 4,
    sb_rating_w: float | None = None,
    turbo: bool = True,
    seed: int = 14,
) -> World:
    """Hadoop cluster with Turbo on, living just under its SB limit.

    Power planning for this cluster did not account for Turbo Boost, so
    the SB rating is sized to the *non-Turbo* worst case plus a thin
    margin; with Turbo enabled, demand occasionally pokes above the
    capping threshold and Dynamo throttles a slice of the cluster
    (Figure 14 saw 7 events in 24 h, 600-900 servers each).
    """
    if sb_rating_w is None:
        # Mean hadoop draw is ~236 W/server with Turbo; put the limit a
        # few sigma above the mean so only correlated compute phases
        # cross the capping threshold — a handful of events per day, as
        # in Figure 14.
        sb_rating_w = server_count * 249.0

    def populate(topology, fleet, rng_streams) -> dict:
        per_row = server_count // rows
        for row in range(rows):
            count = (
                per_row if row < rows - 1 else server_count - per_row * (rows - 1)
            )
            _attach_servers(
                topology.device(f"rpp{row}"),
                fleet,
                f"hadoop-r{row}",
                count,
                lambda rng: HadoopWorkload(rng),
                rng_streams,
                turbo=turbo,
            )
        return {"sb": topology.device("sb0"), "sb_rating_w": sb_rating_w}

    return _chain_world(
        "hadoop",
        "prineville-hadoop",
        [sb_rating_w / rows * 1.5] * rows,
        populate,
        seed=seed,
        sb_rating_w=sb_rating_w,
        step_interval_s=3.0,
        end_s=hours(24),
    )


# ---------------------------------------------------------------------------
# Figures 15/16 — workload-aware capping on a mixed-service row
# ---------------------------------------------------------------------------

def mixed_service_row(
    *,
    web_count: int = 200,
    cache_count: int = 200,
    feed_count: int = 40,
    rpp_rating_w: float = kilowatts(190),
    seed: int = 15,
) -> World:
    """One RPP carrying web + cache + feed servers (the paper's row).

    Capping is triggered *manually* during the experiment by imposing a
    contractual limit on the leaf controller (the paper lowered the
    capping threshold); the expected outcome is that web and feed servers
    get capped while the higher-priority cache servers are spared.
    """

    def populate(topology, fleet, rng_streams) -> dict:
        rpp = topology.device("rpp0")
        web_servers = _attach_servers(
            rpp,
            fleet,
            "web",
            web_count,
            lambda rng: WebWorkload(
                rng, shape=DiurnalShape(trough=0.40, peak=0.65)
            ),
            rng_streams,
        )
        cache_servers = _attach_servers(
            rpp,
            fleet,
            "cache",
            cache_count,
            lambda rng: CacheWorkload(rng),
            rng_streams,
        )
        feed_servers = _attach_servers(
            rpp,
            fleet,
            "feed",
            feed_count,
            lambda rng: NewsfeedWorkload(
                rng, shape=DiurnalShape(trough=0.40, peak=0.65)
            ),
            rng_streams,
        )
        return {
            "rpp": rpp,
            "web_servers": web_servers,
            "cache_servers": cache_servers,
            "feed_servers": feed_servers,
        }

    return _chain_world(
        "mixedrow",
        "mixed-row",
        [rpp_rating_w],
        populate,
        seed=seed,
        sb_rating_w=megawatts(1.25),
        step_interval_s=1.0,
        start_s=hours(13) + 40 * 60,
        end_s=hours(14) + 10 * 60,
    )


# ---------------------------------------------------------------------------
# Recipe-table entries
# ---------------------------------------------------------------------------

def _armed(name: str, build: Callable[..., World]) -> Callable[..., World]:
    """``build`` as the recipe-table entry ``name``: armed, with its recipe."""

    @functools.wraps(build)
    def armed(**kwargs) -> World:
        world = build(**kwargs)
        world.recipe = {"builder": name, "kwargs": kwargs}
        world.start()
        return world

    return armed


ashburn_world = _armed("ashburn", ashburn_load_test)
altoona_world = _armed("altoona", altoona_outage_recovery)
hadoop_world = _armed("hadoop", prineville_hadoop_turbo)
mixedrow_world = _armed("mixedrow", mixed_service_row)
