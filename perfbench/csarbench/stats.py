"""Small statistics helpers shared by the child runs and the tests."""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, Iterable, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with ``TAIL_MIN_BEYOND`` samples
    beyond it; the median when there are too few samples for any."""
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of sim-second samples, in milliseconds."""
    p = tail_percentile(len(samples))
    return {"p50_ms": percentile(samples, 50.0) * 1e3,
            "tail_ms": percentile(samples, p) * 1e3,
            "tail_pct": p, "n": len(samples)}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def digest(obj) -> str:
    """SHA-256 of a JSON-able object; floats keep every digit."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()
