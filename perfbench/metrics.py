"""Metric math of the benchmark: percentiles with their support, ratios
with their bases, and span self times.  Pure functions; test_metrics.py
checks them, and run.py runs those checks before every measurement."""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the nearest-rank rule, and
    how many samples lie strictly beyond it.  Failed samples are passed
    as math.inf, so they miss every latency limit."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond


def supported_percentile(values, q, min_beyond=10):
    """The q-th percentile if at least min_beyond samples lie beyond it,
    else None: a tail estimate is only reported with ten samples behind
    it."""
    value, beyond = percentile(values, q)
    return value if beyond >= min_beyond else None


def ratio(part, base):
    """part / base, with 0 for an empty base (nothing to divide)."""
    return part / base if base else 0.0


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval covered by its direct children.  spans: dicts with id,
    parent, start_ns, end_ns.  Returns {id: self_ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return result


def layer_totals(spans):
    """Per group (a pass or a request), the summed self time in ms of
    each span name, and the root span's wall time in ms.
    Returns {group: (wall_ms, {name: self_ms})}."""
    selfs = self_times(spans)
    groups = {}
    for s in spans:
        wall, layers = groups.setdefault(s["group"], [0.0, {}])
        layers[s["name"]] = layers.get(s["name"], 0.0) + selfs[s["id"]] / 1e6
        if s["parent"] == -1:
            groups[s["group"]][0] = (s["end_ns"] - s["start_ns"]) / 1e6
    return {g: (wall, layers) for g, (wall, layers) in groups.items()}


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4)."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)
