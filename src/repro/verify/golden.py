"""Golden regression digests and engine-vs-naive differential parity.

Each *workload* is a fully seeded computation over a tiny model — BERT
forward+backward, the EMBA multi-task loss, and the inference engine's
bucketed scoring path — reduced to a JSON *digest*: per-array summary
statistics plus head values, and the engine's exact integer
:class:`~repro.engine.stats.EngineStats` counters.  Digests live in
``tests/golden/*.json`` and are compared with a small relative tolerance
so they survive BLAS/numpy version changes while still catching real
numerical drift.

Regenerate after an intentional numerical change; every field that moved
beyond tolerance is printed (stored != computed) before it is overwritten::

    python -m repro.verify.golden --regen [NAME ...]

and bump :data:`repro.NUMERICS_VERSION` in the same change, so cached
weights and results trained under the old numerics are not reused.

:func:`engine_naive_parity` is the differential check: the engine's
bucketed, memoized scoring must agree with scoring every pair
individually through ``model.predict`` — on randomized ragged workloads,
for both a BERT encoder and the memoizable FastText encoder.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

_RTOL = 1e-5
_ATOL = 1e-7

_VOCAB_SIZE = 32
_HIDDEN = 16
_CLS, _SEP = 2, 3


# ----------------------------------------------------------------------
# Digest primitives
# ----------------------------------------------------------------------

def _digest_array(a: np.ndarray) -> dict:
    flat = np.asarray(a, dtype=np.float64).reshape(-1)
    return {
        "shape": list(np.shape(a)),
        "mean": float(flat.mean()) if flat.size else 0.0,
        "std": float(flat.std()) if flat.size else 0.0,
        "l2": float(np.linalg.norm(flat)),
        "head": [float(v) for v in flat[:5]],
    }


def _compare(path: str, stored, computed, mismatches: list[str]) -> None:
    if isinstance(stored, dict) and isinstance(computed, dict):
        for key in sorted(set(stored) | set(computed)):
            if key not in stored or key not in computed:
                mismatches.append(f"{path}.{key}: present on one side only")
                continue
            _compare(f"{path}.{key}", stored[key], computed[key], mismatches)
    elif isinstance(stored, list) and isinstance(computed, list):
        if len(stored) != len(computed):
            mismatches.append(f"{path}: length {len(stored)} != {len(computed)}")
            return
        for i, (s, c) in enumerate(zip(stored, computed)):
            _compare(f"{path}[{i}]", s, c, mismatches)
    elif isinstance(stored, bool) or isinstance(stored, str) or stored is None:
        if stored != computed:
            mismatches.append(f"{path}: {stored!r} != {computed!r}")
    elif isinstance(stored, int) and isinstance(computed, int):
        if stored != computed:   # exact: counters, shapes, predictions
            mismatches.append(f"{path}: {stored} != {computed}")
    else:
        s, c = float(stored), float(computed)
        if not np.isclose(s, c, rtol=_RTOL, atol=_ATOL):
            mismatches.append(f"{path}: {s!r} != {c!r} "
                              f"(rtol {_RTOL:g}, atol {_ATOL:g})")


# ----------------------------------------------------------------------
# Shared tiny fixtures (seeded, self-contained)
# ----------------------------------------------------------------------

def _tiny_config():
    from repro.bert.config import BertConfig

    return BertConfig(
        vocab_size=_VOCAB_SIZE, hidden_size=_HIDDEN, num_layers=2, num_heads=2,
        intermediate_size=32, max_position=24, dropout=0.0,
        attention_dropout=0.0,
    )


def _random_encoded_pairs(rng: np.random.Generator, count: int,
                          num_ids: int = 3):
    """Ragged synthetic pairs; some records repeat to exercise the caches."""
    from repro.data.loader import EncodedPair

    bodies = [rng.integers(5, _VOCAB_SIZE, size=rng.integers(1, 7)).tolist()
              for _ in range(max(3, count // 3))]
    pairs = []
    for _ in range(count):
        b1 = bodies[int(rng.integers(len(bodies)))]
        b2 = bodies[int(rng.integers(len(bodies)))]
        ids = np.array([_CLS] + b1 + [_SEP] + b2 + [_SEP], dtype=np.int64)
        seg = np.zeros(len(ids), dtype=np.int64)
        seg[len(b1) + 2:] = 1
        mask1 = np.zeros(len(ids), dtype=bool)
        mask1[1:1 + len(b1)] = True
        mask2 = np.zeros(len(ids), dtype=bool)
        mask2[len(b1) + 2:len(b1) + 2 + len(b2)] = True
        pairs.append(EncodedPair(
            input_ids=ids, segment_ids=seg, mask1=mask1, mask2=mask2,
            tokens=[f"t{i}" for i in ids.tolist()],
            label=int(rng.integers(0, 2)),
            id1=int(rng.integers(0, num_ids)),
            id2=int(rng.integers(0, num_ids)),
        ))
    return pairs


def _batch_from_pairs(rng: np.random.Generator, count: int):
    from repro.data.loader import collate

    return collate(_random_encoded_pairs(rng, count))


def _grad_digest(model) -> dict:
    return {name: _digest_array(p.grad) for name, p in model.named_parameters()
            if p.grad is not None}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def workload_bert_forward_backward() -> dict:
    """Seeded BERT forward + backward through a random projection."""
    from repro.bert.model import BertModel
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(1234)
    model = BertModel(_tiny_config(), rng)
    model.eval()
    batch = _batch_from_pairs(rng, 6)
    out = model(batch.input_ids, batch.attention_mask, batch.segment_ids)
    proj_pooled = Tensor(rng.standard_normal(out.pooled.shape)
                         .astype(np.float32))
    proj_seq = Tensor(rng.standard_normal(out.sequence.shape)
                      .astype(np.float32))
    scalar = (out.pooled * proj_pooled).sum() + (out.sequence * proj_seq).sum()
    scalar.backward()
    return {
        "pooled": _digest_array(out.pooled.data),
        "sequence": _digest_array(out.sequence.data),
        "scalar": float(scalar.data),
        "grads": _grad_digest(model),
    }


def workload_emba_multitask() -> dict:
    """Seeded EMBA dual-objective loss (Eq. 3) forward + backward."""
    from repro.bert.model import BertModel
    from repro.models import Emba

    rng = np.random.default_rng(5678)
    model = Emba(BertModel(_tiny_config(), rng), _HIDDEN, 3, rng)
    model.eval()
    batch = _batch_from_pairs(rng, 6)
    output = model(batch)
    loss = model.loss(output, batch)
    loss.backward()
    return {
        "loss": float(loss.data),
        "em_logits": _digest_array(output.em_logits.data),
        "gamma": _digest_array(output.aoa_gamma),
        "grads": _grad_digest(model),
    }


def workload_engine_bucketed() -> dict:
    """Seeded engine run over a ragged workload: scores + exact stats."""
    from repro.bert.model import BertModel
    from repro.engine import EngineConfig, InferenceEngine
    from repro.models import Emba

    rng = np.random.default_rng(91011)
    model = Emba(BertModel(_tiny_config(), rng), _HIDDEN, 3, rng)
    model.eval()
    pairs = _random_encoded_pairs(rng, 24)
    engine = InferenceEngine(model, config=EngineConfig(batch_size=8))
    out = engine.score_encoded(pairs)
    stats = engine.stats
    return {
        "em_prob": _digest_array(out["em_prob"]),
        "em_pred": [int(v) for v in out["em_pred"].tolist()],
        "id1_pred": [int(v) for v in out["id1_pred"].tolist()],
        "id2_pred": [int(v) for v in out["id2_pred"].tolist()],
        "stats": {
            "pairs_scored": int(stats.pairs_scored),
            "batches": int(stats.batches),
            "token_cells": int(stats.token_cells),
            "real_tokens": int(stats.real_tokens),
        },
    }


WORKLOADS: dict[str, Callable[[], dict]] = {
    "bert_forward_backward": workload_bert_forward_backward,
    "emba_multitask": workload_emba_multitask,
    "engine_bucketed": workload_engine_bucketed,
}


# ----------------------------------------------------------------------
# Check / regen
# ----------------------------------------------------------------------

def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def check(names: list[str] | None = None) -> dict[str, list[str]]:
    """Run workloads and diff against stored digests.

    Returns ``name -> mismatches`` (empty list means the digest matches).
    """
    results: dict[str, list[str]] = {}
    for name in names or sorted(WORKLOADS):
        path = golden_path(name)
        if not path.exists():
            results[name] = [f"golden file missing: {path} "
                             f"(run `python -m repro.verify.golden --regen`)"]
            continue
        stored = json.loads(path.read_text(encoding="utf-8"))
        computed = WORKLOADS[name]()
        mismatches: list[str] = []
        _compare(name, stored, computed, mismatches)
        results[name] = mismatches
    return results


def regen(names: list[str] | None = None) -> dict[Path, list[str]]:
    """Recompute and overwrite the stored digests.

    Returns ``path -> mismatches``: each stored digest is compared with
    its recomputed workload before it is overwritten, so an intentional
    numerical change shows every field that moved beyond tolerance
    (empty for an unchanged or new digest).
    """
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    written: dict[Path, list[str]] = {}
    for name in names or sorted(WORKLOADS):
        path = golden_path(name)
        computed = WORKLOADS[name]()
        mismatches: list[str] = []
        if path.exists():
            stored = json.loads(path.read_text(encoding="utf-8"))
            _compare(name, stored, computed, mismatches)
        path.write_text(json.dumps(computed, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        written[path] = mismatches
    return written


# ----------------------------------------------------------------------
# Differential parity: engine vs naive one-pair-at-a-time scoring
# ----------------------------------------------------------------------

def engine_naive_parity(seed: int, count: int = 20, use_fasttext: bool = False
                        ) -> float:
    """Max |engine - naive| probability gap on a randomized ragged workload.

    The naive side collates and scores each pair individually (no
    bucketing, no padding sharing, no memoization); the engine side runs
    the full bucketed path.  With ``use_fasttext=True`` the encoder is
    position-independent, additionally exercising the engine's per-token
    encoder-output table (each token id encoded once, sequences gathered
    from the table).

    Raises ``AssertionError`` on any hard prediction mismatch.
    """
    from repro.data.loader import collate
    from repro.engine import EngineConfig, InferenceEngine
    from repro.models import Emba
    from repro.nn.tensor import no_grad

    rng = np.random.default_rng(seed)
    if use_fasttext:
        from repro.fasttext.model import FastTextEncoder
        from repro.text.subword import SubwordHasher
        from repro.text.vocab import Vocabulary

        vocab = Vocabulary(f"w{i}" for i in range(_VOCAB_SIZE))
        encoder = FastTextEncoder(vocab, SubwordHasher(num_buckets=64),
                                  _HIDDEN, rng)
    else:
        from repro.bert.model import BertModel

        encoder = BertModel(_tiny_config(), rng)
    model = Emba(encoder, _HIDDEN, 3, rng)
    model.eval()
    pairs = _random_encoded_pairs(rng, count)

    engine = InferenceEngine(model, config=EngineConfig(batch_size=7))
    engine_out = engine.score_encoded(pairs)

    naive_prob = np.zeros(len(pairs))
    naive_pred = np.zeros(len(pairs), dtype=np.int64)
    with no_grad():
        for i, pair in enumerate(pairs):
            pred = model.predict(collate([pair]))
            naive_prob[i] = float(pred["em_prob"][0])
            naive_pred[i] = int(pred["em_pred"][0])

    gap = float(np.abs(engine_out["em_prob"] - naive_prob).max())
    if not np.array_equal(engine_out["em_pred"], naive_pred):
        raise AssertionError(
            f"engine/naive em_pred mismatch (seed {seed}): "
            f"{engine_out['em_pred'].tolist()} vs {naive_pred.tolist()}")
    return gap


#: Pairs must agree to well under any decision threshold granularity.
PARITY_TOLERANCE = 1e-5


def run_parity(seeds: tuple[int, ...] = (0, 1, 2)) -> dict[str, float]:
    """Engine-vs-naive parity over several seeds and both encoder kinds."""
    gaps: dict[str, float] = {}
    for seed in seeds:
        for use_fasttext in (False, True):
            kind = "fasttext" if use_fasttext else "bert"
            gaps[f"{kind}/seed{seed}"] = engine_naive_parity(
                seed, use_fasttext=use_fasttext)
    return gaps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.golden",
        description="Check or regenerate the golden regression digests.")
    parser.add_argument("--regen", action="store_true",
                        help="recompute and overwrite the stored digests")
    parser.add_argument("names", nargs="*",
                        help="workload subset (default: all)")
    args = parser.parse_args(argv)
    names = args.names or None
    if args.regen:
        for path, mismatches in regen(names).items():
            if mismatches:
                print(f"{len(mismatches)} field(s) changed beyond tolerance "
                      f"(stored != computed):")
            for m in mismatches:
                print(f"    {m}")
            print(f"wrote {path}")
        return 0
    failed = False
    for name, mismatches in check(names).items():
        if mismatches:
            failed = True
            print(f"[FAIL] {name}")
            for m in mismatches[:10]:
                print(f"    {m}")
        else:
            print(f"[ok] {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
