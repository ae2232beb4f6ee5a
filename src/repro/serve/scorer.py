"""The serving-side scorer: one model, one engine, swappable weights.

:class:`MatchScorer` is what actually scores a micro-batch.  It owns a
model plus the engine built around it (an
:class:`~repro.engine.core.InferenceEngine`, or anything with
``score_pairs``) and knows how to *hot-swap* weights: a swap deep-copies
the current model, loads the new state dict into the copy, and rebuilds
the engine around it.  The old model/engine pair is left untouched, so a
batch already executing against it finishes with consistent weights —
requests are scored by exactly one model version, never a half-loaded
one.  Rebuilding the engine (rather than mutating the model in place)
also retires the memo caches, whose content-digest keys are only valid
for the weights that filled them.

Scorers run one per serving worker: in-process for ``shards=0``, one
per forked worker process otherwise (see :mod:`repro.serve.workers`).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, Sequence

import numpy as np

from repro.data.schema import EntityPair
from repro.nn.module import Module


class MatchScorer:
    """Scores raw entity pairs; supports zero-downtime weight swaps.

    Parameters
    ----------
    engine_factory:
        ``engine_factory(model) -> engine`` where the engine exposes
        ``score_pairs(pairs) -> {"em_prob", "em_pred", ...}``.  Called
        once at construction and once per swap (with the freshly loaded
        model), so cache sizing and thresholds are the factory's
        policy.
    model:
        The initially served model (the swap template).
    """

    def __init__(self, engine_factory: Callable[[Module], object],
                 model: Module):
        self.engine_factory = engine_factory
        self.model = model
        self.model.eval()
        self.engine = engine_factory(model)
        self.swaps = 0
        self.weights_ref = ""

    def score(self, pairs: Sequence[EntityPair]) -> list[tuple[float, int, bool]]:
        """Score pairs in order; returns ``(prob, pred, quarantined)`` rows.

        A quarantined row means the engine isolated that pair as poison
        (its forward raised); the daemon answers it with a structured
        ``internal`` error instead of the placeholder score.
        """
        out = self.engine.score_pairs(list(pairs))
        quarantined = out.get("quarantined")
        if quarantined is None:
            quarantined = np.zeros(len(pairs), dtype=bool)
        return [
            (float(out["em_prob"][i]), int(out["em_pred"][i]),
             bool(quarantined[i]))
            for i in range(len(pairs))
        ]

    def swap(self, state: dict[str, np.ndarray], ref: str = "") -> None:
        """Serve ``state`` from now on; in-flight work keeps the old model."""
        new_model = copy.deepcopy(self.model)
        new_model.load_state_dict(dict(state))
        new_model.eval()
        new_engine = self.engine_factory(new_model)
        self.model = new_model
        self.engine = new_engine
        self.swaps += 1
        self.weights_ref = ref

    def describe(self) -> dict:
        return {"swaps": self.swaps, "weights_ref": self.weights_ref,
                "model": type(self.model).__name__}


def factory_from_spec(dataset: str, size: str, model_name: str,
                      seed: int = 0, batch_size: int = 32,
                      threshold: float = 0.5, weights_ref: str = "",
                      pretrain_steps: int = 60,
                      runs_root=None) -> Callable[[], MatchScorer]:
    """A ``scorer_factory`` for ``repro serve`` from an experiment spec.

    Builds the tokenizer, pair encoder, and model exactly as the
    experiments runner would (so a served model matches its offline
    twin), optionally loading published weights from the run registry
    (``weights_ref``) before serving.  The returned zero-argument
    factory is what :class:`~repro.serve.daemon.MatchServer` calls once
    per worker.
    """
    from repro.data.loader import PairEncoder
    from repro.data.registry import load_dataset
    from repro.engine import EngineConfig, InferenceEngine
    from repro.experiments.config import MODEL_SPECS, spec_for, PROFILES
    from repro.experiments.runner import (
        _build_encoder,
        _build_model,
        _tokenizer_for,
    )

    spec = dataclasses.replace(
        spec_for(dataset, size, model_name, seed, PROFILES["quick"]),
        pretrain_steps=pretrain_steps)
    data = load_dataset(dataset, size=size, seed=spec.data_seed)
    tokenizer = _tokenizer_for(dataset, size, spec.data_seed, spec.vocab_size)
    pair_encoder = PairEncoder(tokenizer, max_length=spec.max_length,
                               style=MODEL_SPECS[model_name].style)
    encoder, hidden = _build_encoder(MODEL_SPECS[model_name].encoder, spec,
                                     tokenizer, data)
    model = _build_model(spec, encoder, hidden, data, tokenizer)
    model.eval()
    if weights_ref:
        from repro.serve.registry import resolve_weights

        _, state = resolve_weights(weights_ref, root=runs_root)
        model.load_state_dict(state)

    def engine_factory(served_model):
        return InferenceEngine(
            served_model, pair_encoder,
            EngineConfig(batch_size=batch_size, threshold=threshold))

    return lambda: MatchScorer(engine_factory, model)
