"""Shared benchmark utilities."""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

# Where benchmarks save their renderings: the committed ``results/``
# unless REPRO_BENCH_RESULTS_DIR names another directory (check.sh uses a
# temporary one, so a check run leaves committed files alone).
RESULTS_DIR = Path(os.environ.get("REPRO_BENCH_RESULTS_DIR")
                   or Path(__file__).resolve().parent.parent / "results")


def record_bench(request, name: str, **metrics) -> None:
    """With ``--record``, file one benchmark result in the run store.

    The result becomes a completed ``kind="bench"`` run whose manifest
    metrics are the measured numbers, so performance over time is
    queryable next to training runs (``repro runs list --kind bench``)
    and gateable with ``repro runs check``.  Without ``--record`` this
    is a no-op.
    """
    if not request.config.getoption("--record"):
        return
    from repro.runs import RunStore

    writer = RunStore().create(name=name, kind="bench",
                               config={"bench": name}, argv=list(sys.argv))
    writer.finish(**metrics)


def run_once(benchmark, fn):
    """Execute an experiment exactly once under pytest-benchmark timing.

    Table reproductions are long-running, cache-backed computations;
    repeating them would only measure the cache, so a single round is
    the honest measurement.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def paired_overhead(baseline: Sequence[float],
                    treated: Sequence[float]) -> float:
    """Median over rounds of ``treated / baseline``, minus 1.

    Each round times both variants back to back (alternate their order
    between rounds), so host drift scales both halves of a pair alike
    and cancels in its ratio; the median then ignores the rounds a load
    spike hit on one side only.
    """
    if len(baseline) != len(treated) or len(baseline) == 0:
        raise ValueError("need one baseline and one treated time per round")
    return float(np.median(np.asarray(treated) / np.asarray(baseline))) - 1.0


def value_of(cell) -> float:
    """Parse a table cell like '98.44(±0.82)' or '97.73' into a float."""
    text = str(cell)
    if text in ("-", ""):
        return float("nan")
    return float(text.split("(")[0])
