"""repro.obs — structured telemetry: tracing spans + a metrics registry.

The observability layer for the whole stack.  Instrumented call sites
(engine, trainer, checkpointer, blocking pipeline, experiments runner)
talk to this module only::

    from repro import obs

    with obs.span("engine.forward", rows=32) as sp:
        ...
        sp.set("max_len", 96)
    obs.inc("engine.pairs_scored", 512)
    obs.gauge("trainer.loss", 0.41)
    obs.observe("engine.batch_size", 32, bounds=obs.SIZE_BUCKETS)

Telemetry is **off by default** and every entry point starts with one
flag check, so disabled instrumentation costs a function call per site
(the same zero-cost-when-off contract as ``REPRO_VERIFY``).  Enable it

- programmatically: ``obs.enable()`` (optionally with
  ``trace_path="trace.jsonl"`` to stream spans to disk), or
- from the environment: ``REPRO_TRACE=1`` (in-memory) or
  ``REPRO_TRACE=/path/to/trace.jsonl`` (streamed), consumed by
  :mod:`repro.__init__` at import time.

Read results back with :func:`render_summary` (human tree + metrics),
:func:`snapshot` (aggregate dict for tests), or the ``repro trace``
CLI subcommand, which round-trips the JSON-lines sink.
"""

from __future__ import annotations

import os as _os

from repro.obs.collect import (
    MergedTrace,
    merge_traces,
    render_merged,
    stage_breakdown,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LEN_BUCKETS,
    REGISTRY,
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    WindowedCounter,
    WindowedHistogram,
    nearest_rank,
    render_metrics,
)
from repro.obs.sinks import JsonlSink, aggregate, read_jsonl, tree_summary
from repro.obs.trace import (
    NOOP_SPAN,
    STATE,
    Span,
    SpanRecord,
    absorb,
    current_trace,
    drain_records,
    emit_span,
    span,
    trace,
)

__all__ = [
    "DEFAULT_BUCKETS", "LEN_BUCKETS", "SIZE_BUCKETS", "TIME_BUCKETS",
    "Histogram", "JsonlSink", "MergedTrace", "MetricsRegistry", "Span",
    "SpanRecord", "WindowedCounter", "WindowedHistogram", "absorb",
    "aggregate", "current_trace", "disable", "drain_records", "emit_span",
    "enable", "enabled", "foreign_records", "gauge", "inc", "merge_traces",
    "nearest_rank", "observe", "read_jsonl", "records", "render_merged",
    "render_metrics", "render_summary", "reset", "snapshot", "span",
    "stage_breakdown", "trace", "tree_summary",
]

# Forked children (serve shard workers) must never keep recording into
# the parent's buffer, open-span stack, or sink file descriptor.  The
# hook keeps the enabled flag and time origin but clears everything
# else and re-keys file sinks to pid-suffixed paths; see
# TraceState.fork_reset.
_os.register_at_fork(after_in_child=lambda: STATE.fork_reset())


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return STATE.enabled


def enable(trace_path: str | None = None) -> None:
    """Start recording spans and metrics (idempotent).

    ``trace_path`` attaches a :class:`JsonlSink` streaming every span to
    that file; the final metrics snapshot is appended on :func:`disable`.
    """
    if not STATE.enabled:
        STATE.clear()
        REGISTRY.clear()
        STATE.enabled = True
    if trace_path is not None:
        STATE.sinks.append(JsonlSink(trace_path))


def disable() -> None:
    """Stop recording and flush/close every attached sink.

    The in-memory buffer and metrics survive until the next
    :func:`enable` or :func:`reset`, so summaries can still be rendered
    after disabling.
    """
    if not STATE.enabled:
        return
    STATE.enabled = False
    final = REGISTRY.snapshot()
    for sink in STATE.sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close(final)
    STATE.sinks = []


def reset() -> None:
    """Drop all recorded spans and metrics (keeps the enabled flag)."""
    STATE.clear()
    REGISTRY.clear()


def records() -> list[SpanRecord]:
    """The finished-span buffer (a copy, oldest first)."""
    return list(STATE.records)


def foreign_records() -> list[SpanRecord]:
    """Spans absorbed from worker replies (a copy; see :func:`absorb`)."""
    return list(STATE.foreign)


# ----------------------------------------------------------------------
# Metrics entry points (disabled fast path: one flag check, then return)
# ----------------------------------------------------------------------

def inc(name: str, value: float = 1) -> None:
    """Add ``value`` to the counter ``name``."""
    if STATE.enabled:
        REGISTRY.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set the gauge ``name`` to its latest ``value``."""
    if STATE.enabled:
        REGISTRY.gauge(name, value)


def observe(name: str, value: float, bounds: tuple | None = None) -> None:
    """Record ``value`` into the histogram ``name``.

    ``bounds`` fixes the bucket boundaries on first use of the name and
    is ignored afterwards.
    """
    if STATE.enabled:
        REGISTRY.observe(name, value, bounds)


def snapshot() -> dict:
    """Aggregate view for tests: metrics plus per-path span stats."""
    payload = REGISTRY.snapshot()
    payload["spans"] = aggregate(STATE.records)
    return payload


def render_summary() -> str:
    """Human-readable span tree followed by the metrics table."""
    return (tree_summary(STATE.records)
            + "\n\n" + render_metrics(REGISTRY.snapshot()))
