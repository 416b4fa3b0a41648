"""Statistics, budget closure and metric-name rules of the benchmark.

Everything here is pure arithmetic over lists of numbers so it can be
unit-tested without a server (``perfbench/tests/test_stats.py``).
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Mapping, Sequence

#: A metric name: starts with a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``; at most 64 characters.
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return bool(_NAME.match(name))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks — numpy's default method."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - math.ceil(count * q / 100.0)


def supported(count: int, q: float) -> bool:
    """A percentile is reported only with at least :data:`MIN_BEYOND`
    samples beyond it."""
    return beyond(count, q) >= MIN_BEYOND


def p99(values: Sequence[float]) -> float:
    """The 99th percentile, which needs at least 1,000 samples so that
    :data:`MIN_BEYOND` of them lie beyond it."""
    if not supported(len(values), 99.0):
        raise ValueError(f"{len(values)} samples are too few for a p99")
    return percentile(values, 99.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def closure_error(parts: Mapping[str, float], total: float) -> float:
    """Relative gap between the sum of layer parts and the measured
    total (``|sum - total| / total``)."""
    if total <= 0:
        raise ValueError("closure against a non-positive total")
    return abs(sum(parts.values()) - total) / total


def check_closure(
    name: str, parts: Mapping[str, float], total: float, tolerance: float
) -> Dict:
    """One budget-closure verdict, ready to print and embed.  A budget
    with a negative part fails whatever its sum: its layers overlap."""
    error = closure_error(parts, total)
    negative = sorted(key for key, value in parts.items() if value < 0)
    return {
        "name": name,
        "total": total,
        "sum": sum(parts.values()),
        "parts": dict(parts),
        "error": error,
        "tolerance": tolerance,
        "negative": negative,
        "ok": error <= tolerance and not negative,
    }


def split_request_layers(
    rtt_ms: float, timings: Mapping[str, float]
) -> Dict[str, float]:
    """Cut one client round trip into the request-path layers.

    ``timings`` is the server's ``timings`` body field.  ``outside`` is
    what the client saw beyond the server's ``total_ms`` (socket, body
    parse, response encode and write); ``inside_gap`` is the part of
    ``total_ms`` the server's named phases do not explain.  The six
    parts sum to ``rtt_ms`` exactly, per request.
    """
    total = timings["total_ms"]
    named = {
        "coalesce": timings["coalesce_ms"],
        "queue": timings["queue_ms"],
        "engine": timings["engine_ms"],
        "serialize": timings["serialize_ms"],
    }
    layers = {"outside": rtt_ms - total, "inside_gap": total - sum(named.values())}
    layers.update(named)
    return layers


def median_band(
    rows: List[Mapping[str, float]], totals: Sequence[float], width: float = 10.0
) -> List[Mapping[str, float]]:
    """The rows whose total lies within ``width`` percentile points of
    the median total — the requests of median latency."""
    if not rows:
        return []
    low = percentile(totals, 50.0 - width)
    high = percentile(totals, 50.0 + width)
    return [row for row, total in zip(rows, totals) if low <= total <= high]


def layer_means(rows: List[Mapping[str, float]]) -> Dict[str, float]:
    """Per-layer means over per-request layer rows (they add up to the
    rows' mean total, since each row adds up to its own total)."""
    if not rows:
        return {}
    return {key: sum(row[key] for row in rows) / len(rows) for key in rows[0]}


def median_item(items: List[Mapping[str, float]], key: str) -> Mapping[str, float]:
    """The item whose ``key`` is the median (the lower middle for an
    even count), so its parts stay together."""
    ordered = sorted(items, key=lambda item: item[key])
    return ordered[(len(ordered) - 1) // 2]
