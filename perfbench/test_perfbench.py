"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

- ``BENCHMARK.json`` declares exactly the metric table of ``metrics.py``;
- every workload, run end to end for one second (each still meets its
  minimum sample count), prints exactly the declared names and units,
  with and without tracing, and its layer rows plus ``unattributed_ms``
  add up to ``trace.wall_ms``;
- a sleep injected into one instance-wrapped layer shows up in that
  layer's row, not in ``unattributed_ms``.

The end-to-end runs take a few minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from child import _per_layer  # noqa: E402
from layers import LayerClock  # noqa: E402
from metrics import (END_TO_END, MOVES, PER_LAYER, UNGATED,  # noqa: E402
                     WORKLOADS, per_layer_table, rows_for)

def test_benchmark_json_declares_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    assert set(MOVES) == set(per_layer_table(UNGATED[0]))
    assert spec["paths"] == ["perfbench"]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS + UNGATED)
def test_workload_prints_declared_names_and_units(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = per_layer_table(workload) if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: spec[0] for name, spec in table.items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        rows = sum(values[name] for name in rows_for(workload))
        assert rows + values["unattributed_ms"] == pytest.approx(
            values["trace.wall_ms"])
        assert values["unattributed_ms"] >= 0.0
        assert values["trace.overhead"] > 0.0
    else:
        assert all(values[name] > 0.0 for name in END_TO_END)


def test_injected_sleep_lands_in_its_layer_row():
    import wl_train

    state = wl_train.setup(3, None)
    delay = 0.004

    def traced(inject: bool) -> dict:
        aoa = state.model.aoa
        if inject:
            forward = aoa.forward

            def slow_forward(*args, **kwargs):
                time.sleep(delay)
                return forward(*args, **kwargs)

            aoa.forward = slow_forward
        clock = LayerClock()
        try:
            measured = wl_train.measure(state, 0.5, clock)
        finally:
            clock.unwrap()
            vars(aoa).pop("forward", None)
        return _per_layer("train", measured, clock)

    base, slow = traced(False), traced(True)
    added = 1e3 * delay
    assert slow["models.aoa_ms"] - base["models.aoa_ms"] == pytest.approx(
        added, rel=0.5)
    assert abs(slow["unattributed_ms"] - base["unattributed_ms"]) < 0.25 * added
