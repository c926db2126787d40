"""Metric helpers shared by the benchmark harness and its experiment tables.

Everything here is plain arithmetic over the counters the kernel and the
network statistics expose — kept separate so benchmark scripts stay focused
on *what* they measure, and the arithmetic is unit-testable.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = [
    "summarize", "percentile", "ratio", "speedup",
    "jains_fairness", "coefficient_of_variation", "load_imbalance",
    "bytes_human",
]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / median / p95 / min / max / stdev of a sample (empty-safe)."""
    data = [float(value) for value in values]
    if not data:
        return {"count": 0, "mean": 0.0, "median": 0.0, "p95": 0.0,
                "min": 0.0, "max": 0.0, "stdev": 0.0}
    return {
        "count": len(data),
        "mean": statistics.fmean(data),
        "median": statistics.median(data),
        "p95": percentile(data, 95.0),
        "min": min(data),
        "max": max(data),
        "stdev": statistics.pstdev(data) if len(data) > 1 else 0.0,
    }


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (linear interpolation between closest ranks)."""
    data = sorted(float(value) for value in values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    rank = (pct / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    # Equal neighbours need no interpolation; skipping it also avoids
    # rounding artefacts with denormal values, keeping percentiles monotone.
    if low == high or data[low] == data[high]:
        return data[low]
    weight = rank - low
    return data[low] * (1.0 - weight) + data[high] * weight


def ratio(numerator: float, denominator: float) -> float:
    """A safe division: 0/0 is 1.0 (no difference), x/0 is inf."""
    if denominator == 0:
        return 1.0 if numerator == 0 else math.inf
    return numerator / denominator


def speedup(baseline: float, candidate: float) -> float:
    """How many times cheaper/faster *candidate* is than *baseline*."""
    return ratio(baseline, candidate)


def jains_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index of a load distribution (1.0 = perfectly even).

    The standard metric for "how balanced is the assignment", read per
    scheduling policy by the scheduling tests and ``examples/load_balancing.py``.
    """
    data = [float(value) for value in values]
    if not data:
        return 1.0
    scale = max(abs(value) for value in data)
    if scale == 0:
        return 1.0
    # The index is scale-invariant; normalising keeps the squares out of
    # the subnormal range, where underflow can push the ratio above 1.
    data = [value / scale for value in data]
    total = sum(data)
    squares = sum(value * value for value in data)
    if squares == 0:
        return 1.0
    return (total * total) / (len(data) * squares)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation normalised by the mean (0 = perfectly even)."""
    data = [float(value) for value in values]
    if not data:
        return 0.0
    mean = statistics.fmean(data)
    if mean == 0:
        return 0.0
    return statistics.pstdev(data) / mean


def load_imbalance(per_server_counts: Dict[str, float]) -> float:
    """max/mean imbalance of a per-server job count table (1.0 = even)."""
    counts = list(per_server_counts.values())
    if not counts:
        return 1.0
    mean = statistics.fmean(counts)
    if mean == 0:
        return 1.0
    return max(counts) / mean


def bytes_human(count: float) -> str:
    """Readable byte count for report rows (1.5 KB, 3.2 MB, ...)."""
    size = float(count)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(size) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{size:.1f} TB"
