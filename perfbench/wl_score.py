"""``score``: offline matching of two offer tables (blocking + engine).

Two tables of generated WDC-computers offers (shops 0-3 of every product
on the left, shops 4-7 on the right) are blocked with ``TokenBlocker``
and every candidate goes through ``InferenceEngine.score_pairs`` on the
cross-encoder EMBA (``mini-base``, random-initialised), in fixed chunks
of ``CHUNK`` pairs.  Each record recurs in several candidates, so the
tokenization memo matters; nothing is written back to weights.  One
pass is block + score everything with a fresh engine (cold memo), so
every pass does identical work.  The operation is one ``score_pairs``
call; items are candidate pairs, blocking included.
"""

from __future__ import annotations

import time

import numpy as np

import build
from layers import untimed
from repro.blocking import TokenBlocker
from repro.data.generators.wdc import wdc_offer_stream
from repro.data.loader import collate
from repro.data.schema import EntityPair
from repro.engine import EngineConfig, InferenceEngine
from repro.models import Emba
from repro.nn.tensor import no_grad

OFFERS = 640              # 80 products x 8 shops
CHUNK = 16
ID_CLASSES = 16
CHECK_SAMPLE = 8          # pairs per pass re-scored one by one
CHECK_TOL = 1e-5
MIN_OPS = 120             # enough chunks for a p90 tail


class State:
    pass


def setup(seed: int, workdir) -> State:
    state = State()
    offers = list(wdc_offer_stream("computers", OFFERS, seed=seed))
    left = [(k, r) for k, r in offers if int(k.rsplit("s", 1)[1]) < 4]
    right = [(k, r) for k, r in offers if int(k.rsplit("s", 1)[1]) >= 4]
    state.left = [r for _, r in left]
    state.right = [r for _, r in right]
    product = lambda key: key.rsplit("-", 1)[0]  # noqa: E731
    state.gold = {(i, j) for i, (a, _) in enumerate(left)
                  for j, (b, _) in enumerate(right) if product(a) == product(b)}
    state.encoder = build.pair_encoder(r.text() for _, r in offers)
    state.model = build.model(Emba, "mini-base", state.encoder, ID_CLASSES,
                              seed)
    state.model.eval()
    state.blocker = TokenBlocker(min_common=2, max_token_frequency=0.05)
    state.check_rng = np.random.default_rng(seed)
    state.samples = []
    return state


def _reference_prob(state: State, pair: EntityPair) -> float:
    """The pair scored alone: ``model(collate([pair]))``, no engine."""
    with no_grad():
        logit = state.model(collate([state.encoder.encode(pair)])).em_logits
    return float(1.0 / (1.0 + np.exp(-np.clip(logit.data[0], -60, 60))))


def measure(state: State, seconds: float, clock=None) -> dict:
    call = clock.call if clock is not None else untimed
    if clock is not None:
        clock.wrap(state.model, "forward", "models.forward")
    latencies, slices, failed = [], [], 0
    totals = {"batches": 0, "token_cells": 0, "real_tokens": 0,
              "encode_hits": 0, "encode_misses": 0, "pairs": 0}
    elapsed = 0.0
    while elapsed < seconds or len(latencies) < MIN_OPS:
        engine = InferenceEngine(state.model, state.encoder,
                                 EngineConfig(batch_size=CHUNK))
        if clock is not None:
            clock.wrap(engine, "encode_pairs", "engine.encode")
            clock.wrap(engine, "score_encoded", "engine.score")
        start = time.perf_counter()
        blocked = call("blocking.block", state.blocker.block,
                       state.left, state.right)
        pairs = [EntityPair(state.left[c.left], state.right[c.right], 0)
                 for c in blocked.candidates]
        probs = []
        for lo in range(0, len(pairs), CHUNK):
            t0 = time.perf_counter()
            out = engine.score_pairs(pairs[lo:lo + CHUNK])
            latencies.append(time.perf_counter() - t0)
            probs.append(out["em_prob"])
        took = time.perf_counter() - start
        elapsed += took
        slices.append((len(pairs), -(-len(pairs) // CHUNK), took))
        probs = np.concatenate(probs)
        failed += int((~np.isfinite(probs)).sum())
        stats = engine.stats
        for key in ("batches", "token_cells", "real_tokens",
                    "encode_hits", "encode_misses"):
            totals[key] += getattr(stats, key)
        totals["pairs"] += stats.pairs_scored
        state.samples += [(pairs[i], float(probs[i])) for i in
                          state.check_rng.choice(len(pairs), CHECK_SAMPLE,
                                                 replace=False)]
    passes = len(slices)
    found = len(state.gold & blocked.candidate_set())
    lookups = totals["encode_hits"] + totals["encode_misses"]
    return {
        "ops": len(latencies),
        "elapsed": elapsed,
        "slices": slices,
        "latencies": latencies,
        "attempted": sum(items for items, _, _ in slices),
        "failed": failed,
        "details": {"candidates_per_pass": len(pairs), "passes": passes,
                    "left": len(state.left), "right": len(state.right)},
        "layers": {
            "blocking.candidates": len(pairs),
            "blocking.pair_completeness": found / len(state.gold),
            "engine.encode_hit_rate": totals["encode_hits"] / lookups,
            "engine.batches": totals["batches"] / passes,
            "engine.rows_per_batch": totals["pairs"] / totals["batches"],
            "engine.pad_waste_ratio":
                1.0 - totals["real_tokens"] / totals["token_cells"],
        },
    }


def check(state: State) -> list[str]:
    """Engine probabilities equal a per-pair forward within 1e-5."""
    bad = [(got, _reference_prob(state, pair)) for pair, got in state.samples]
    bad = [(got, want) for got, want in bad if abs(got - want) > CHECK_TOL]
    state.samples = []
    if not bad:
        return []
    return [f"{len(bad)} sampled pairs differ from the per-pair forward by "
            f"more than {CHECK_TOL} (first: {bad[0][0]} vs {bad[0][1]})"]


def close(state: State) -> None:
    pass
