"""Engine vs. naive scoring on a blocking-shaped workload.

Backs the ``repro profile-engine`` CLI subcommand and
``benchmarks/bench_engine.py``.  The workload mirrors what a deployed
matcher actually sees: blocking emits candidate pairs in which the same
record appears many times, so the engine's record-level memoization and
length bucketing both matter.  The naive baseline is the loop every
consumer used to hand-roll — encode each pair from scratch, fixed-size
batches in arrival order, pad to the longest sequence in the batch.

Imported lazily (not from ``repro.engine``) because it reaches up into
``repro.experiments`` for model construction.
"""

from __future__ import annotations

import time

import numpy as np

from repro.blocking.token import TokenBlocker
from repro.data.loader import PairEncoder, collate
from repro.data.registry import load_dataset
from repro.data.schema import EntityPair
from repro.engine.core import EngineConfig, InferenceEngine


def build_blocking_workload(dataset_name: str = "wdc_computers",
                            size: str = "small", max_pairs: int = 400
                            ) -> list[EntityPair]:
    """Candidate pairs from token blocking over the test-split records."""
    dataset = load_dataset(dataset_name, size=size)
    left, right = [], []
    seen_left, seen_right = set(), set()
    for pair in dataset.test + dataset.train:
        key1 = (pair.record1.source, pair.record1.attributes)
        key2 = (pair.record2.source, pair.record2.attributes)
        if key1 not in seen_left:
            seen_left.add(key1)
            left.append(pair.record1)
        if key2 not in seen_right:
            seen_right.add(key2)
            right.append(pair.record2)
    result = TokenBlocker(min_common=1).block(left, right)
    pairs = [EntityPair(left[c.left], right[c.right], 0)
             for c in result.candidates]
    return pairs[:max_pairs]


def naive_score(model, encoder: PairEncoder, pairs: list[EntityPair],
                batch_size: int) -> np.ndarray:
    """The legacy scoring loop, kept only as the profiling baseline."""
    probs = []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        batch = collate([encoder.encode(p) for p in chunk])
        probs.append(model.predict(batch)["em_prob"])
    return np.concatenate(probs)


def profile_engine_workload(dataset: str = "wdc_computers",
                            size: str = "small", model_name: str = "emba_ft",
                            batch_size: int = 32, max_pairs: int = 400,
                            repeats: int = 3) -> dict:
    """Time naive vs. engine scoring on the blocking workload.

    The model is freshly initialized (weights are irrelevant to the
    pipeline cost being measured).  Both paths score the identical pair
    list ``repeats`` times; predictions are cross-checked to ``1e-6``.
    """
    from repro.experiments.config import MODEL_SPECS, RunSpec
    from repro.experiments.runner import (
        _build_encoder,
        _build_model,
        _tokenizer_for,
    )

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_pairs < 1:
        raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if model_name not in MODEL_SPECS:
        known = ", ".join(sorted(MODEL_SPECS))
        raise ValueError(f"unknown model {model_name!r}; choose from: {known}")

    spec = RunSpec(dataset=dataset, model=model_name, size=size, seed=0)
    model_spec = MODEL_SPECS[model_name]
    loaded = load_dataset(dataset, size=size, seed=spec.data_seed)
    tokenizer = _tokenizer_for(dataset, size, spec.data_seed, spec.vocab_size)
    pair_encoder = PairEncoder(tokenizer, max_length=spec.max_length,
                               style=model_spec.style)
    if model_spec.encoder is not None:
        enc, hidden = _build_encoder(model_spec.encoder, spec, tokenizer, loaded)
    else:
        enc, hidden = None, 0
    model = _build_model(spec, enc, hidden, loaded, tokenizer)
    model.eval()

    pairs = build_blocking_workload(dataset, size, max_pairs=max_pairs)

    start = time.perf_counter()
    for _ in range(repeats):
        naive = naive_score(model, pair_encoder, pairs, batch_size)
    naive_seconds = time.perf_counter() - start

    engine = InferenceEngine(model, pair_encoder,
                             EngineConfig(batch_size=batch_size))
    start = time.perf_counter()
    for _ in range(repeats):
        scored = engine.predict_proba(pairs)
    engine_seconds = time.perf_counter() - start
    stats = engine.stats

    return {
        "dataset": dataset,
        "size": size,
        "model": model_name,
        "pairs": len(pairs),
        "repeats": repeats,
        "batch_size": batch_size,
        "naive_seconds": naive_seconds,
        "engine_seconds": engine_seconds,
        "speedup": naive_seconds / engine_seconds if engine_seconds else float("inf"),
        "max_abs_diff": float(np.abs(scored - naive).max()) if len(pairs) else 0.0,
        "stats": stats.as_dict(),
    }


def render_profile(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_engine_workload` report."""
    stats = report["stats"]
    lines = [
        f"engine profile — {report['model']} on {report['dataset']}/{report['size']}",
        f"  pairs x repeats   = {report['pairs']} x {report['repeats']}",
        f"  naive             = {report['naive_seconds']:.3f}s",
        f"  engine            = {report['engine_seconds']:.3f}s"
        f"  ({report['speedup']:.2f}x speedup)",
        f"  max |prob diff|   = {report['max_abs_diff']:.2e}",
        f"  batches           = {stats['batches']}",
        f"  pad waste         = {stats['pad_waste_ratio']:.3f}",
        f"  encode hit rate   = {stats['encode_hit_rate']:.3f}",
        f"  encoder hit rate  = {stats['encoder_hit_rate']:.3f}",
        f"  record hit rate   = {stats['record_hit_rate']:.3f}",
    ]
    return "\n".join(lines)
