"""Model throughput measurement backing Table 7."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.loader import PairEncoder, collate
from repro.data.registry import load_dataset
from repro.engine import EngineConfig, InferenceEngine
from repro.eval.efficiency import measure_engine_throughput, measure_throughput
from repro.experiments.config import MODEL_SPECS, RunSpec
from repro.experiments.runner import _build_encoder, _build_model, _tokenizer_for
from repro.nn.optim import Adam

_WORKLOAD = RunSpec(dataset="wdc_computers", model="emba", size="medium", seed=0)
# Readings per model behind each Table 7 row (their median is reported).
_READINGS = 5


def measure_model_throughput(model_name: str, batch_size: int = 16,
                             min_seconds: float = 0.6) -> dict:
    """Pairs/second for one model in training and inference.

    Training throughput covers a full optimization step (forward, Eq. 3
    loss, backward, Adam update); inference covers a forward pass in
    eval mode.  The workload (WDC computers medium, batch 16) is fixed
    across models so the numbers are comparable.
    """
    return _throughput_probe(model_name, batch_size)(min_seconds)


def measure_models_throughput(model_names: Sequence[str],
                              progress: bool = False) -> dict[str, dict]:
    """Median pairs/second per model over alternated readings.

    Every model is built first; each of ``_READINGS`` rounds then takes
    one reading of every model in turn, so slow drift of the host
    (frequency scaling, a neighbour's load) lands on all models alike
    instead of on whichever one happened to be measured during it.
    """
    probes = {}
    for name in model_names:
        if progress:
            print(f"[throughput] build {name}", flush=True)
        probes[name] = _throughput_probe(name)
    readings: dict[str, list[dict]] = {name: [] for name in model_names}
    for round_ in range(_READINGS):
        if progress:
            print(f"[throughput] round {round_ + 1}/{_READINGS}", flush=True)
        for name in model_names:
            readings[name].append(probes[name]())
    return {name: {key: float(np.median([r[key] for r in rows]))
                   for key in rows[0] if key != "model"}
            for name, rows in readings.items()}


def _throughput_probe(model_name: str,
                      batch_size: int = 16) -> Callable[..., dict]:
    """Build one model on the Table 7 workload; return its reading."""
    spec = RunSpec(dataset=_WORKLOAD.dataset, model=model_name,
                   size=_WORKLOAD.size, seed=0)
    model_spec = MODEL_SPECS[model_name]
    dataset = load_dataset(spec.dataset, size=spec.size, seed=spec.data_seed)
    tokenizer = _tokenizer_for(spec.dataset, spec.size, spec.data_seed,
                               spec.vocab_size)
    pair_encoder = PairEncoder(tokenizer, max_length=spec.max_length,
                               style=model_spec.style)
    encoded = pair_encoder.encode_many(dataset.train[:batch_size * 4], dataset)
    batches = [collate(encoded[i:i + batch_size])
               for i in range(0, len(encoded), batch_size)]

    if model_spec.encoder is not None:
        encoder, hidden = _build_encoder(model_spec.encoder, spec, tokenizer, dataset)
    else:
        encoder, hidden = None, 0
    model = _build_model(spec, encoder, hidden, dataset, tokenizer)
    optimizer = Adam(model.parameters(), lr=1e-4)

    state = {"i": 0}

    def train_step() -> int:
        batch = batches[state["i"] % len(batches)]
        state["i"] += 1
        model.train()
        output = model(batch)
        loss = model.loss(output, batch)
        model.zero_grad()
        loss.backward()
        optimizer.step()
        return batch.size

    # Inference goes through the shared engine — the deployed scoring
    # path — so Table 7 measures what serving would actually run.
    engine = InferenceEngine(model, config=EngineConfig(batch_size=batch_size))

    def reading(min_seconds: float = 0.6) -> dict:
        train_result = measure_throughput(train_step, min_seconds=min_seconds)
        infer_result = measure_engine_throughput(engine, encoded,
                                                 min_seconds=min_seconds)
        return {
            "model": model_name,
            "train_pairs_per_s": train_result.items_per_second,
            "infer_pairs_per_s": infer_result["pairs_per_second"],
            "infer_pad_waste": infer_result["pad_waste_ratio"],
            "infer_encoder_hit_rate": infer_result["encoder_hit_rate"],
        }

    return reading
