"""The process under test: set up one workload, measure it, check it.

Launched by ``run.py`` with a pinned environment; never run directly.
It prints JSON lines (see :func:`common.emit`): a ``ready`` event once
the workload is set up, then, unless ``--setup-only``, one ``result``.

``--trace 1`` measures twice in this process: once with tracing off,
for ``trace.overhead``, then with every layer instance-wrapped.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

from common import emit, latency_summary, median, peak_rss_mb
from layers import LayerClock
from metrics import per_layer_table, rows_for


def _end_to_end(measured: dict) -> dict:
    """Rates are medians over the run's slices of identical work, so a
    burst of interference on the host moves one slice, not the result."""
    if "end_to_end" in measured:          # serve computes its own
        return dict(measured["end_to_end"])
    slices = measured["slices"]
    out = {"items_per_s": median([i / s for i, _, s in slices]),
           "sustained_rps": median([o / s for _, o, s in slices])}
    out.update(latency_summary(measured["latencies"],
                               measured.get("latency_passes")))
    return out


def _per_layer(workload: str, measured: dict, clock: LayerClock) -> dict:
    ops = measured["ops"]
    rows = measured.get("rows_ms") or clock.rows_ms(ops)
    wall = measured.get("wall_ms") or 1e3 * measured["elapsed"] / ops
    layers = {name: 0.0 for name in per_layer_table(workload)}
    for name in rows_for(workload):
        layers[name] = rows.get(name.removesuffix("_ms"), 0.0)
    layers.update(measured.get("layers", {}))
    layers["trace.wall_ms"] = wall
    layers["unattributed_ms"] = wall - sum(layers[n] for n in rows_for(workload))
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spawned = float(os.environ["PERFBENCH_SPAWN_T"])

    module = importlib.import_module(f"wl_{args.workload}")
    imported = time.monotonic()
    state = module.setup(args.seed, Path(args.workdir))
    ready = time.monotonic()
    emit({"event": "ready", "import_s": imported - spawned,
          "build_s": ready - imported, "ready_at": ready})
    try:
        if args.setup_only:
            return 0
        base = module.measure(state, args.seconds)
        result = {"event": "result", "end_to_end": _end_to_end(base),
                  "attempted": base["attempted"], "failed": base["failed"],
                  "details": base.get("details", {})}
        errors = []
        if args.trace:
            clock = LayerClock()
            try:
                traced = module.measure(state, args.seconds, clock)
            finally:
                clock.unwrap()
            layers = _per_layer(args.workload, traced, clock)
            layers["trace.overhead"] = (
                _end_to_end(traced)["items_per_s"]
                / result["end_to_end"]["items_per_s"])
            if layers["unattributed_ms"] < -0.01 * layers["trace.wall_ms"]:
                errors.append("layer rows add up to more than the wall time")
            result["per_layer"] = layers
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
        errors += module.check(state)
        result["end_to_end"].setdefault("peak_rss_mb", peak_rss_mb())
        result["errors"] = errors
        emit(result)
        return 0
    finally:
        module.close(state)


if __name__ == "__main__":
    sys.exit(main())
