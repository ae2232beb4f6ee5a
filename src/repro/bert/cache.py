"""Disk cache for pre-trained encoder weights.

Pre-training is the most expensive step of the pipeline, so
:func:`pretrained_bert` memoizes it on disk keyed by a digest of
(config, corpus, seed, :data:`repro.NUMERICS_VERSION`).  Experiments and
benchmarks share one cache directory (``~/.cache/repro-emba`` by default,
override with the ``REPRO_CACHE_DIR`` environment variable).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro import NUMERICS_VERSION
from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.bert.pretrain import pretrain
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.text.wordpiece import WordPieceTokenizer

_MEMORY_CACHE: dict[str, dict[str, np.ndarray]] = {}


def cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", Path.home() / ".cache" / "repro-emba"))


def _digest(config: BertConfig, corpus: list[str], seed: int) -> str:
    payload = json.dumps(
        {
            "config": sorted(config.__dict__.items()),
            "corpus_head": corpus[:50],
            "corpus_len": len(corpus),
            "numerics": NUMERICS_VERSION,
            "seed": seed,
        },
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def pretrained_bert(config: BertConfig, tokenizer: WordPieceTokenizer,
                    corpus: list[str], seed: int = 0,
                    use_disk: bool = True) -> BertModel:
    """Return a pre-trained encoder, from cache when available.

    Always returns a *fresh* :class:`BertModel` instance (with cached
    weights loaded into it), so callers can fine-tune without mutating
    the cache.
    """
    key = _digest(config, corpus, seed)

    if key in _MEMORY_CACHE:
        model = BertModel(config, np.random.default_rng(seed))
        model.load_state_dict(_MEMORY_CACHE[key])
        return model

    path = cache_dir() / f"bert-{config.name}-{key}.npz"
    if use_disk and path.exists():
        model = BertModel(config, np.random.default_rng(seed))
        load_state_dict(model, path)
        _MEMORY_CACHE[key] = model.state_dict()
        return model

    result = pretrain(config, tokenizer, corpus, seed=seed)
    _MEMORY_CACHE[key] = result.model.state_dict()
    if use_disk:
        save_state_dict(result.model, path)
    return result.model
