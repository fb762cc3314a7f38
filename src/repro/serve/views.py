"""Read-only JSON views over live world objects.

Every observe endpoint renders through these helpers: plain dicts of
JSON-clean scalars walked out of the live ``Fleet`` / ``PowerDevice`` /
controller / ``HealthRegistry`` objects.  Views are pure functions — no
caching, no mutation — and callers are expected to hold the session
lock while a view walks the world (tick-safety invariant 1 in
:mod:`repro.serve.sessions`).
"""

from __future__ import annotations

from typing import Any

from repro.core.failover import FailoverController
from repro.power.device import PowerDevice
from repro.serve.sessions import Session


def device_view(device: PowerDevice, *, depth: int | None = None) -> dict:
    """One power-tree node, recursing into children up to ``depth``."""
    view: dict[str, Any] = {
        "name": device.name,
        "level": device.level.value,
        "rated_power_w": device.rated_power_w,
        "power_quota_w": device.power_quota_w,
        "power_w": device.power_w(),
        "utilization": device.utilization(),
        "breaker": {
            "tripped": device.breaker.tripped,
            "stress": device.breaker.stress,
        },
        "load_count": len(device.load_ids),
    }
    if device.suite is not None:
        view["suite"] = device.suite
    if depth is None or depth > 0:
        child_depth = None if depth is None else depth - 1
        view["children"] = [
            device_view(child, depth=child_depth)
            for child in device.children
        ]
    return view


def tree_view(session: Session, *, depth: int | None = None) -> dict:
    """The whole power tree plus fleet-level aggregates."""
    world = session.world
    return {
        "time_s": world.now_s,
        "total_power_w": world.fleet.total_power_w(),
        "server_count": len(world.fleet.servers),
        "capped_servers": len(world.fleet.capped_servers()),
        "trips": len(world.driver.trips),
        "roots": [
            device_view(root, depth=depth) for root in world.topology.roots
        ],
    }


def controller_view(name: str, controller: Any) -> dict:
    """One controller's observable state (unwrapping failover pairs)."""
    if isinstance(controller, FailoverController):
        instance = controller.active
        kind = "pair"
        extra: dict[str, Any] = {"primary_healthy": controller.primary_healthy}
    else:
        instance = controller
        kind = (
            "leaf" if hasattr(instance, "server_ids") else "upper"
        )
        extra = {}
    machine = getattr(instance, "modes", None)
    view: dict[str, Any] = {
        "name": name,
        "kind": kind,
        "device": controller.device.name,
        "level": controller.device.level.value,
        "last_aggregate_w": controller.last_aggregate_power_w,
        "contractual_limit_w": controller.contractual_limit_w,
        "effective_limit_w": controller.effective_limit_w,
        "cap_events": controller.cap_events,
        "uncap_events": controller.uncap_events,
        "invalid_cycles": controller.invalid_cycles,
        "mode": "n/a" if machine is None else machine.mode.value,
        **extra,
    }
    last_trace = getattr(instance, "last_trace", None)
    if last_trace is not None:
        # Sensing-coverage posture from the latest control cycle (the
        # degraded-sensing subsystem's observable surface).
        view["coverage_fraction"] = last_trace.coverage_fraction
        view["pulls_disaggregated"] = last_trace.disaggregated
        if last_trace.disaggregated:
            view["estimation_error_w"] = last_trace.estimation_error_w
    return view


def controllers_view(session: Session) -> dict:
    """Every controller in the hierarchy, leaves first."""
    hierarchy = session.world.dynamo.hierarchy
    entries = list(hierarchy.leaf_controllers.items()) + list(
        hierarchy.upper_controllers.items()
    )
    return {
        "time_s": session.now_s,
        "controllers": [
            controller_view(name, controller) for name, controller in entries
        ],
    }


def health_view(session: Session) -> dict:
    """Operating modes, endpoint health, and serve-fault status."""
    world = session.world
    dynamo = world.dynamo
    now_s = world.now_s
    endpoints = []
    for endpoint, stats in dynamo.endpoint_health().items():
        entry: dict[str, Any] = {
            "endpoint": endpoint,
            "attempts": stats.attempts,
            "successes": stats.successes,
            "failures": stats.failures,
            "retries": stats.retries,
            "breaker_opens": stats.breaker_opens,
            "quarantined": stats.quarantined(now_s),
        }
        if dynamo.resilient_transport is not None:
            entry["breaker"] = dynamo.resilient_transport.breaker_state(
                endpoint
            )
        endpoints.append(entry)
    return {
        "time_s": now_s,
        "modes": dynamo.operating_modes(),
        "safe_mode_entries": dynamo.safe_mode_entries(),
        "degraded_mode_entries": dynamo.degraded_mode_entries(),
        "sensor_degraded_entries": dynamo.sensor_degraded_entries(),
        "quarantined": dynamo.health.quarantined_endpoints(now_s),
        "endpoints": endpoints,
        "pending_serve_faults": session.pending_fault_specs(),
    }


def economics_view(session: Session) -> dict:
    """The economic governor's posture plus ledger totals.

    Raises :class:`ValueError` when the session's world carries no
    governor (mapped to 400 by the app layer); callers that want a
    cheap presence probe should check ``session_view()["economics"]``.
    """
    world = session.world
    governor = world.governor
    if governor is None:
        raise ValueError(
            "session has no economic governor; build with the 'econ' recipe"
        )
    config = governor.config
    last = governor.ledger.last_sample
    view: dict[str, Any] = {
        "time_s": world.now_s,
        "shaping": governor.shaping,
        "interval_s": governor.process.interval_s,
        "price_signal": config.price_signal,
        "carbon_signal": config.carbon_signal,
        "deferring": governor.deferring,
        "applied_band_scale": governor.applied_scale,
        "last_score": governor.last_score,
        "ledger": governor.ledger.summary(),
    }
    if last is not None:
        view["last_sample"] = {
            "time_s": last.time_s,
            "price_per_kwh": last.price_per_kwh,
            "carbon_g_per_kwh": last.carbon_g_per_kwh,
            "power_w": last.power_w,
            "shaped": last.shaped,
        }
    return view


def session_view(session: Session) -> dict:
    """One session's summary row (the list/detail endpoints)."""
    world = session.world
    return {
        "id": session.id,
        "source": session.source,
        "time_s": world.now_s,
        "builder": str(world.recipe.get("builder", "?")),
        "server_count": len(world.fleet.servers),
        "device_count": world.topology.device_count,
        "total_power_w": world.fleet.total_power_w(),
        "capped_servers": len(world.fleet.capped_servers()),
        "cap_events": world.dynamo.total_cap_events(),
        "uncap_events": world.dynamo.total_uncap_events(),
        "trips": len(world.driver.trips),
        "economics": world.governor is not None,
        "ticker": session.ticker.state(),
        "pending_serve_faults": len(session.pending_fault_specs()),
        "log_entries": len(session.log),
    }
