"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is the declaration; this module
reads it, so the harness cannot drift from what the driver checks.  The
end-to-end metrics it lists are the ones every workload reports; the
workload-specific end-to-end metrics (:data:`DETAIL_METRICS`) are
measured in the same untraced pass and printed and compared by
``python -m benchmarks.perf run`` / ``compare``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Repo (or checkout) root: ``benchmarks/perf/spec.py`` -> two up.
ROOT = Path(__file__).resolve().parents[2]

#: Where a pass leaves its spans and the serve workload its snapshots.
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class PassResult:
    """What one pass of one workload produced."""

    checks: dict[str, bool]
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """Whether every correctness check passed."""
        return all(self.checks.values())


@dataclass(frozen=True)
class Metric:
    """One declared metric."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # share of the baseline; None = no bound


#: Workload-specific end-to-end metrics (untraced pass), by workload.
#: ``failed_frac`` is failed / attempted and may not rise at all.
_FAILED = Metric("failed_frac", "frac", "lower", 0.0)
_SERVE = (
    Metric("req_per_s", "1/s", "higher", 0.25),
    Metric("read_ms_p95", "ms", "lower", 0.25),
    Metric("snapshot_ms_p50", "ms", "lower", 0.25),
)
DETAIL_METRICS: dict[str, tuple[Metric, ...]] = {
    "steady10k": (_FAILED,),
    "capping100k": (Metric("cap_tick_ms_p50", "ms", "lower", 0.25), _FAILED),
    "fig12_outage": (_FAILED,),
    "serve_ops": (*_SERVE, _FAILED),
}


@dataclass(frozen=True)
class Declaration:
    """The parsed ``BENCHMARK.json``."""

    run_seconds: int
    workloads: dict[str, str]  # name -> why
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    def bounded_metrics(self, workload: str) -> tuple[Metric, ...]:
        """Every end-to-end metric ``compare`` checks for one workload."""
        return self.end_to_end + DETAIL_METRICS.get(workload, ())


def load_declaration(root: Path = ROOT) -> Declaration:
    """Read ``BENCHMARK.json``."""
    raw = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return Declaration(
        run_seconds=int(raw["run_seconds"]),
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
    )
