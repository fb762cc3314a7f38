"""Online power disaggregation for degraded sensing (WattScope-style).

When a leaf controller loses more than the paper's tolerated fraction of
its power pulls, the sum-of-servers aggregate is gone — but the device
itself is still metered (breaker-side metering exists in every
deployment; the paper only dismisses it as too *slow* for control, not
as absent).  :class:`PowerDisaggregator` turns that one aggregate number
back into per-server readings:

1. **Fit** — during healthy operation every measured reading updates a
   per-service EWMA of mean server power, and a per-service EWMA of the
   model's own relative prediction error (computed by predicting each
   reading before consuming it — continuous self-validation for free).
2. **Disaggregate** — on sensor loss, the residual
   ``device metering − overheads − Σ measured`` is distributed
   across the dark servers proportionally to their model predictions
   (last measured power scaled by the service mean's drift since that
   measurement, falling back to the service mean, then to a generic
   default).  The estimates sum to the residual by construction, so the
   reconstructed total matches the metered truth up to sensor noise on
   the measured fraction.
3. **Confidence** — every estimate carries
   ``clamp(1 − fit error, MIN_CONFIDENCE, MAX)`` from its service
   model.  The aggregation stage inflates the total by
   ``UNCERTAINTY_INFLATION × Σ power·(1 − confidence)`` so degraded
   sensing can only over-cap, never under-cap.

Everything here is deterministic and draw-free: no RNG stream is
touched, so enabling the estimator leaves fully healthy runs
bit-identical (golden-fingerprint parity) and scalar/vectorized control
lanes agree so long as they feed observations in the same order — which
both do (broadcast position order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Below this measured coverage the estimate is not trusted: the cycle
#: is invalid and the controller escalates toward SAFE.
SAFE_COVERAGE = 0.40
#: EWMA smoothing for the per-service mean-power models and their
#: relative fit error.
EWMA_ALPHA = 0.2
#: Aggregate margin per uncertain watt (see :func:`uncertainty_margin_w`).
UNCERTAINTY_INFLATION = 1.5
#: Confidence floor for model-estimated readings.
MIN_CONFIDENCE = 0.05
#: Last-resort per-server estimate when no model data exists.
DEFAULT_POWER_W = 200.0

#: Confidence ceiling for anything that is not a direct measurement.
MAX_ESTIMATE_CONFIDENCE = 0.99

#: Confidence assigned while a service model has no validated history.
UNVALIDATED_CONFIDENCE = 0.5


@dataclass
class ServiceModel:
    """EWMA power model for one service."""

    mean_power_w: float = 0.0
    #: EWMA of |prediction − measurement| / measurement; None until the
    #: first self-validation.
    ewma_rel_error: float | None = None
    observed_cycles: int = 0


@dataclass
class ServerState:
    """Last measurement for one server, with its model basis."""

    last_power_w: float
    #: The service mean at the end of the cycle that measured this
    #: server; predictions scale ``last_power_w`` by the mean's drift
    #: since then.
    basis_mean_w: float
    service: str


@dataclass(frozen=True)
class ServerEstimate:
    """One dark server's share of the disaggregated residual."""

    server_id: str
    power_w: float
    confidence: float
    service: str


def uncertainty_margin_w(readings: Iterable) -> float:
    """Aggregate safety margin from per-reading confidence.

    Left-to-right sum of ``power · (1 − confidence)`` over readings with
    confidence below 1.0, scaled by :data:`UNCERTAINTY_INFLATION`.
    """
    margin = 0.0
    for reading in readings:
        if reading.confidence < 1.0:
            margin += reading.power_w * (1.0 - reading.confidence)
    return margin * UNCERTAINTY_INFLATION


class PowerDisaggregator:
    """Per-service power models plus residual distribution.

    One instance per leaf controller.  ``observe_cycle`` must see every
    *measured* reading of a cycle exactly once, in a deterministic
    order, in every cycle the estimator is enabled — healthy cycles are
    where the models train.
    """

    def __init__(self) -> None:
        self._services: dict[str, ServiceModel] = {}
        self._servers: dict[str, ServerState] = {}

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def observe_cycle(
        self, observations: Iterable[tuple[str, float, str]]
    ) -> None:
        """Consume one cycle's measured ``(server_id, power_w, service)``.

        Scalar accumulation in iteration order: the leaf controller feeds
        broadcast position order whether a batch or a sequential
        broadcast served the readings, so the fitted floats are
        bit-identical either way.
        """
        alpha = EWMA_ALPHA
        cycle_sum: dict[str, float] = {}
        cycle_count: dict[str, int] = {}
        observed: list[tuple[str, float, str]] = []
        for server_id, power_w, service in observations:
            # Self-validate before consuming: what would the model have
            # said about this server had the pull failed?
            prediction = self.predict_w(server_id)
            if prediction is not None and power_w > 0.0:
                model = self._services.setdefault(service, ServiceModel())
                rel = abs(prediction - power_w) / power_w
                if model.ewma_rel_error is None:
                    model.ewma_rel_error = rel
                else:
                    model.ewma_rel_error = (
                        alpha * rel + (1.0 - alpha) * model.ewma_rel_error
                    )
            cycle_sum[service] = cycle_sum.get(service, 0.0) + power_w
            cycle_count[service] = cycle_count.get(service, 0) + 1
            observed.append((server_id, power_w, service))
        for service, total in cycle_sum.items():
            model = self._services.setdefault(service, ServiceModel())
            cycle_mean = total / cycle_count[service]
            if model.observed_cycles == 0:
                model.mean_power_w = cycle_mean
            else:
                model.mean_power_w = (
                    alpha * cycle_mean + (1.0 - alpha) * model.mean_power_w
                )
            model.observed_cycles += 1
        for server_id, power_w, service in observed:
            self._servers[server_id] = ServerState(
                last_power_w=power_w,
                basis_mean_w=self._services[service].mean_power_w,
                service=service,
            )

    # ------------------------------------------------------------------
    # Prediction / confidence
    # ------------------------------------------------------------------

    def predict_w(self, server_id: str) -> float | None:
        """Model prediction for one server, or None without history.

        The server's last measurement scaled by its service mean's
        drift since that measurement — a util→power proxy: when the
        service-wide load rises 10%, the dark server likely did too.
        """
        state = self._servers.get(server_id)
        if state is None:
            return None
        model = self._services.get(state.service)
        if (
            model is not None
            and model.mean_power_w > 0.0
            and state.basis_mean_w > 0.0
        ):
            return state.last_power_w * (
                model.mean_power_w / state.basis_mean_w
            )
        if state.last_power_w > 0.0:
            return state.last_power_w
        return None

    def service_mean_w(self, service: str) -> float | None:
        """Fitted mean power for one service, or None."""
        model = self._services.get(service)
        if model is None or model.observed_cycles == 0:
            return None
        return model.mean_power_w

    def confidence(self, service: str) -> float:
        """Estimate confidence for one service, from its fit error."""
        model = self._services.get(service)
        if model is None or model.ewma_rel_error is None:
            return UNVALIDATED_CONFIDENCE
        return min(
            MAX_ESTIMATE_CONFIDENCE,
            max(MIN_CONFIDENCE, 1.0 - model.ewma_rel_error),
        )

    # ------------------------------------------------------------------
    # Disaggregation
    # ------------------------------------------------------------------

    def disaggregate(
        self, residual_w: float, dark: list[tuple[str, str]]
    ) -> list[ServerEstimate]:
        """Distribute the aggregate residual across dark servers.

        ``dark`` is ``[(server_id, service), ...]`` in the caller's
        deterministic order.  Weights are model predictions with the
        service mean, then :data:`DEFAULT_POWER_W`, as fallbacks; a
        non-positive residual yields zero-power estimates (the metering
        says the dark servers draw nothing).
        """
        if not dark:
            return []
        weights: list[float] = []
        for server_id, service in dark:
            weight = self.predict_w(server_id)
            if weight is None:
                weight = self.service_mean_w(service)
            if weight is None or weight <= 0.0:
                weight = DEFAULT_POWER_W
            weights.append(weight)
        total_weight = 0.0
        for weight in weights:
            total_weight += weight
        residual = max(residual_w, 0.0)
        estimates: list[ServerEstimate] = []
        for (server_id, service), weight in zip(dark, weights):
            share = weight / total_weight if total_weight > 0.0 else (
                1.0 / len(dark)
            )
            estimates.append(
                ServerEstimate(
                    server_id=server_id,
                    power_w=residual * share,
                    confidence=self.confidence(service),
                    service=service,
                )
            )
        return estimates

    # ------------------------------------------------------------------
    # Introspection / snapshots
    # ------------------------------------------------------------------

    @property
    def services(self) -> dict[str, ServiceModel]:
        """Fitted per-service models (live view)."""
        return self._services

    @property
    def servers(self) -> dict[str, ServerState]:
        """Per-server last-measurement state (live view)."""
        return self._servers

    def snapshot_state(self) -> dict:
        """Serializable model state."""
        return {
            "services": {
                name: {
                    "mean_power_w": model.mean_power_w,
                    "ewma_rel_error": model.ewma_rel_error,
                    "observed_cycles": model.observed_cycles,
                }
                for name, model in self._services.items()
            },
            "servers": {
                server_id: {
                    "last_power_w": state.last_power_w,
                    "basis_mean_w": state.basis_mean_w,
                    "service": state.service,
                }
                for server_id, state in self._servers.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore fitted models in place."""
        self._services = {
            name: ServiceModel(
                mean_power_w=float(model["mean_power_w"]),
                ewma_rel_error=(
                    None
                    if model["ewma_rel_error"] is None
                    else float(model["ewma_rel_error"])
                ),
                observed_cycles=int(model["observed_cycles"]),
            )
            for name, model in state["services"].items()
        }
        self._servers = {
            server_id: ServerState(
                last_power_w=float(entry["last_power_w"]),
                basis_mean_w=float(entry["basis_mean_w"]),
                service=str(entry["service"]),
            )
            for server_id, entry in state["servers"].items()
        }

    def __repr__(self) -> str:
        return (
            f"PowerDisaggregator(services={len(self._services)}, "
            f"servers={len(self._servers)})"
        )
