"""Per-service power attribution for one leaf device.

The composition target of the nvPAX/allocation direction: given a leaf
controller's latest readings (measured or disaggregated) and its
fitted service models, report where the device's power is going,
service by service, with the aggregate confidence of each service's
share.  Consumed by ``python -m repro attribute <device>``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceAttribution:
    """One service's share of a leaf device's power."""

    service: str
    servers: int
    power_w: float
    #: Power-weighted mean confidence of the underlying readings.
    confidence: float
    #: Fitted per-server mean from the disaggregation model, if any.
    model_mean_w: float | None


def attribute_leaf(leaf) -> list[ServiceAttribution]:
    """Per-service attribution from a leaf controller's reading cache.

    Works on any :class:`~repro.core.leaf_controller.LeafPowerController`
    — with the estimator disabled the attribution is simply the last
    measured readings grouped by service (model means then read None).
    Sorted by descending power.
    """
    totals: dict[str, float] = {}
    weighted_conf: dict[str, float] = {}
    counts: dict[str, int] = {}
    last_cycle = getattr(leaf, "last_cycle_readings", None)
    if last_cycle is not None:
        readings = last_cycle()
    else:
        readings = [reading for _, reading in leaf._iter_last_readings()]
    for reading in readings:
        service = reading.service
        totals[service] = totals.get(service, 0.0) + reading.power_w
        weighted_conf[service] = (
            weighted_conf.get(service, 0.0)
            + reading.power_w * reading.confidence
        )
        counts[service] = counts.get(service, 0) + 1
    estimator = getattr(leaf, "estimator", None)
    rows = []
    for service, power_w in totals.items():
        confidence = (
            weighted_conf[service] / power_w if power_w > 0.0 else 1.0
        )
        model_mean = (
            estimator.service_mean_w(service)
            if estimator is not None
            else None
        )
        rows.append(
            ServiceAttribution(
                service=service,
                servers=counts[service],
                power_w=power_w,
                confidence=confidence,
                model_mean_w=model_mean,
            )
        )
    rows.sort(key=lambda row: (-row.power_w, row.service))
    return rows


def render_attribution(
    device_name: str, rows: list[ServiceAttribution]
) -> str:
    """Aligned text table for the ``repro attribute`` CLI."""
    # Imported here: repro.analysis pulls in the full scenario stack,
    # which would close an import cycle back into the leaf controller.
    from repro.analysis.report import Table

    table = Table(
        f"Per-service power attribution: {device_name}",
        ["service", "servers", "power", "share", "confidence", "model mean"],
    )
    total_w = sum(row.power_w for row in rows)
    for row in rows:
        share = row.power_w / total_w if total_w > 0.0 else 0.0
        table.add_row(
            row.service,
            row.servers,
            f"{row.power_w:.1f} W",
            f"{share:.1%}",
            f"{row.confidence:.2f}",
            "-" if row.model_mean_w is None else f"{row.model_mean_w:.1f} W",
        )
    table.add_row("total", sum(r.servers for r in rows), f"{total_w:.1f} W",
                  "100.0%", "", "")
    return table.render()
