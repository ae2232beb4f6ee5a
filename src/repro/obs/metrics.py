"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Counters accumulate (`inc`), gauges hold the last observed value
(`gauge`), histograms count observations into fixed bucket boundaries
(`observe`) while tracking count/sum/min/max.  All three are registered
lazily by name on first use, so instrumentation sites never declare
anything up front.

Like :mod:`repro.obs.trace`, every entry point checks the shared
enabled flag first and returns immediately when telemetry is off.
"""

from __future__ import annotations

import math
import time as _time

# Fixed boundary sets for the repo's common histogram shapes.  A value
# lands in the first bucket whose upper bound is >= value; anything
# beyond the last bound lands in the implicit +inf overflow bucket.
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)            # batch sizes
LEN_BUCKETS = (8, 16, 32, 64, 96, 128, 192, 256, 384, 512)        # sequence lengths
TIME_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                10.0, 60.0)                                       # latencies (s)
DEFAULT_BUCKETS = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max side stats."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds) or len(bounds) < 1:
            raise ValueError(f"bucket bounds must be sorted and non-empty: {bounds}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 = +inf overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def overflow(self) -> int:
        """Observations beyond the last bound (the implicit +inf bucket)."""
        return self.counts[-1]

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds), "counts": list(self.counts),
            "count": self.count, "sum": self.total, "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """Name-keyed counters, gauges, and histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float, bounds: tuple | None = None) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds or DEFAULT_BUCKETS)
        hist.observe(value)

    def snapshot(self) -> dict:
        """JSON-serializable dump of every registered metric."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.as_dict() for k, h in self.histograms.items()},
        }

    def clear(self) -> None:
        self.counters = {}
        self.gauges = {}
        self.histograms = {}


REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Windowed instruments: rolling time-bucketed rings for live telemetry.
#
# The serve daemon reports p50/p99/throughput/rejection-rate over the
# *last N seconds*, not over its lifetime.  Both instruments slice the
# window into fixed-width slots held in a ring; a slot is lazily zeroed
# when its epoch comes around again, so neither needs a reaper thread.
# The clock is injectable (same pattern as serve.BatchQueue) so expiry
# is testable with tests.helpers.FakeClock.
# ----------------------------------------------------------------------


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (q in [0, 1]) of an ascending list.

    The smallest value with at least ``q`` of the samples at or below
    it, so p99 of two samples is the larger one; 0.0 when empty.
    """
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class _Ring:
    """Shared slot bookkeeping: maps *now* to a lazily-recycled slot."""

    __slots__ = ("window", "slots", "width", "clock", "epochs")

    def __init__(self, window: float, slots: int, clock):
        if window <= 0 or slots < 1:
            raise ValueError(f"window must be > 0 and slots >= 1: {window}, {slots}")
        self.window = float(window)
        self.slots = int(slots)
        self.width = self.window / self.slots
        self.clock = clock
        self.epochs = [-1] * self.slots  # global slot number last written

    def slot_at(self, now: float) -> tuple[int, int, bool]:
        """(position, epoch, recycled) for the slot covering ``now``."""
        epoch = int(now / self.width)
        pos = epoch % self.slots
        recycled = self.epochs[pos] != epoch
        if recycled:
            self.epochs[pos] = epoch
        return pos, epoch, recycled

    def live_positions(self, now: float):
        """Positions whose slot still falls inside the trailing window."""
        floor = int(now / self.width) - self.slots + 1
        return [i for i, epoch in enumerate(self.epochs) if epoch >= floor]


class WindowedCounter:
    """Counter over a rolling time window (e.g. requests in last 30s)."""

    __slots__ = ("_ring", "_values")

    def __init__(self, window: float = 30.0, slots: int = 30,
                 clock=_time.monotonic):
        self._ring = _Ring(window, slots, clock)
        self._values = [0.0] * self._ring.slots

    @property
    def window(self) -> float:
        return self._ring.window

    def inc(self, value: float = 1) -> None:
        pos, _, recycled = self._ring.slot_at(self._ring.clock())
        if recycled:
            self._values[pos] = 0.0
        self._values[pos] += value

    def total(self) -> float:
        """Sum over the trailing window."""
        now = self._ring.clock()
        return sum(self._values[i] for i in self._ring.live_positions(now))

    def rate(self) -> float:
        """Events per second over the trailing window."""
        return self.total() / self._ring.window


class WindowedHistogram:
    """Sampled histogram over a rolling time window.

    Count and sum are exact; percentiles come from up to
    ``max_samples_per_slot`` retained samples per slot, which is exact
    until a slot overflows and a uniform-ish head sample afterwards —
    plenty for a live p50/p99 readout.
    """

    __slots__ = ("_ring", "_counts", "_sums", "_samples", "_cap")

    def __init__(self, window: float = 30.0, slots: int = 30,
                 clock=_time.monotonic, max_samples_per_slot: int = 512):
        self._ring = _Ring(window, slots, clock)
        n = self._ring.slots
        self._counts = [0] * n
        self._sums = [0.0] * n
        self._samples: list[list[float]] = [[] for _ in range(n)]
        self._cap = int(max_samples_per_slot)

    @property
    def window(self) -> float:
        return self._ring.window

    def observe(self, value: float) -> None:
        value = float(value)
        pos, _, recycled = self._ring.slot_at(self._ring.clock())
        if recycled:
            self._counts[pos] = 0
            self._sums[pos] = 0.0
            self._samples[pos] = []
        self._counts[pos] += 1
        self._sums[pos] += value
        if len(self._samples[pos]) < self._cap:
            self._samples[pos].append(value)

    def count(self) -> int:
        now = self._ring.clock()
        return sum(self._counts[i] for i in self._ring.live_positions(now))

    def mean(self) -> float:
        now = self._ring.clock()
        live = self._ring.live_positions(now)
        count = sum(self._counts[i] for i in live)
        if not count:
            return 0.0
        return sum(self._sums[i] for i in live) / count

    def percentile(self, q: float) -> float:
        """q in [0, 1]; 0.0 when the window holds no samples."""
        now = self._ring.clock()
        merged: list[float] = []
        for i in self._ring.live_positions(now):
            merged.extend(self._samples[i])
        merged.sort()
        return nearest_rank(merged, q)

    def snapshot(self) -> dict:
        return {
            "count": self.count(), "mean": self.mean(),
            "p50": self.percentile(0.50), "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


def render_metrics(snapshot: dict) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot`."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<40} {counters[name]:g}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<40} {gauges[name]:g}")
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name:<40} count={h['count']} mean={h['mean']:.4g} "
                f"min={h['min']:.4g} max={h['max']:.4g}")
            bounds, counts = h.get("bounds", []), h.get("counts", [])
            parts = [f"<={bound:g}:{count}"
                     for bound, count in zip(bounds, counts) if count]
            overflow = counts[len(bounds)] if len(counts) > len(bounds) else 0
            if overflow:
                parts.append(f">{bounds[-1]:g}:{overflow}")
            if parts:
                lines.append(f"    buckets: {' '.join(parts)}")
    return "\n".join(lines) if lines else "(no metrics recorded)"
