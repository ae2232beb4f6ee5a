"""Shared helpers of the benchmark processes (standard library only).

The orchestrator (``run.py``) imports this module before anything heavy,
so it must stay free of numpy and of the program under test.
"""

from __future__ import annotations

import json
import math
import resource
import sys

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)


def emit(payload: dict) -> None:
    """One JSON line on stdout, flushed (the process protocol)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values) -> tuple[float, float]:
    """``(q, value)``: the highest percentile with >= 10 samples beyond it.

    Raises when there are too few samples for any tail above the median,
    so a run that is too short fails instead of reporting p50 as a tail.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) >= 1000.0 - 1e-6:
            return q, percentile(values, q)
    raise ValueError(f"{n} samples are too few for a tail percentile")


def latency_summary(seconds, passes=None) -> dict:
    """p50 and tail of per-operation latencies given in seconds.

    With ``passes`` (the latencies split into identical passes of work),
    the tail is the median of the passes' tails, so one pass disturbed
    by the host does not set it.
    """
    ms = [1e3 * s for s in seconds]
    out = {"latency_p50_ms": median(ms), "latency_samples": len(ms)}
    if passes:
        tails = [tail([1e3 * s for s in one]) for one in passes]
        out["tail_percentile"] = min(q for q, _ in tails)
        out["latency_tail_ms"] = median([v for _, v in tails])
        out["tail_passes"] = len(passes)
    else:
        out["tail_percentile"], out["latency_tail_ms"] = tail(ms)
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
