"""Extension bench — batched InferenceEngine vs. the naive scoring loop.

Scores a blocking-shaped workload (token-blocking candidates, so the
same record recurs across many pairs) through the unified engine and
through the legacy fixed-batch loop, asserting the engine is faster,
reports nonzero tokenization-memo and token-table hit rates, and
produces identical predictions.
"""

import pytest

from benchmarks.helpers import RESULTS_DIR, record_bench, run_once
from repro.engine.profile import profile_engine_workload, render_profile


@pytest.mark.parametrize("model_name", ["emba_ft"])
def test_engine_speedup_over_naive(benchmark, model_name, request):
    report = run_once(benchmark, lambda: profile_engine_workload(
        dataset="wdc_computers", size="small", model_name=model_name,
        batch_size=32, max_pairs=300, repeats=3,
    ))

    # The acceptance bar: measured speedup, nonzero cache hit rate, and
    # prediction parity with the naive path.
    assert report["speedup"] > 1.0
    assert report["stats"]["encode_hit_rate"] > 0.0
    assert report["stats"]["encoder_hit_rate"] > 0.0   # token table
    assert report["max_abs_diff"] <= 1e-6
    # Bucketing keeps padding waste below the naive arrival-order level.
    assert report["stats"]["pad_waste_ratio"] < 0.25

    scored = report["pairs"] * report["repeats"]
    record_bench(request, f"bench-engine-{model_name}",
                 speedup=report["speedup"],
                 infer_pairs_per_s=scored / report["engine_seconds"]
                 if report["engine_seconds"] else 0.0,
                 pad_waste_ratio=report["stats"]["pad_waste_ratio"],
                 encode_hit_rate=report["stats"]["encode_hit_rate"],
                 encoder_hit_rate=report["stats"]["encoder_hit_rate"])

    path = RESULTS_DIR / "ext_engine.txt"
    header = ("Extension: unified inference engine vs naive scoring "
              "(token-blocking candidates, WDC computers small)\n")
    block = render_profile(report) + "\n"
    existing = path.read_text() if path.exists() else header
    if block not in existing:
        path.write_text(existing + block)
