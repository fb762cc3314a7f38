"""Sample statistics, the calibration spin and the machine stamp."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Tail percentiles tried, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def _rank(n: int, pct: float) -> int:
    """Nearest rank (1-based) of percentile ``pct`` among ``n`` samples.

    In integer tenths of a percent, so 99.9% of 10,000 is rank 9,990 and
    not whatever ``0.999 * 10000`` rounds to.
    """
    return max(1, -(-round(pct * 10) * n // 1000))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    return sorted(values)[_rank(len(values), pct) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with >= 10 samples beyond it, and its value.

    ``None`` when even p75 has fewer than ten samples above it (fewer
    than 40 samples): the median is then all the sample supports.
    """
    n = len(values)
    for pct in _TAILS:
        if n - _rank(n, pct) >= MIN_SAMPLES_BEYOND:
            return pct, percentile(values, pct)
    return None


def summarize(values_ms: list[float]) -> dict:
    """Median, supported tail percentile and sample count of a timing."""
    if not values_ms:
        return {"n": 0}
    out: dict = {"n": len(values_ms), "p50": median(values_ms)}
    tail = tail_percentile(values_ms)
    if tail is not None:
        out["tail_pct"], out["tail"] = tail
    return out


def calibration_spin_ms() -> float:
    """Wall ms of a fixed pure-Python loop: the machine's speed right now.

    Taken before set-up and after the measured window; a pass whose two
    spins differ by more than 10% ran on a machine that changed speed
    under it and is marked ``noisy``.  Best of three, so one scheduling
    hiccup does not read as a slow machine.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


def calibration_detail(before_ms: float, after_ms: float) -> dict:
    """Both spins of a pass, and whether the machine changed speed."""
    return {
        "calib_ms": [before_ms, after_ms],
        "noisy": abs(after_ms - before_ms) > 0.10 * before_ms,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set, in MB (Linux ``ru_maxrss`` is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_stamp(root: Path) -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "load_avg_1m": os.getloadavg()[0],
        "calib_ms": calibration_spin_ms(),
        "git_commit": commit,
    }
