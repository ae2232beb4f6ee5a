"""Single-run executor with on-disk result caching.

``run_experiment(spec)`` performs the complete pipeline for one
:class:`RunSpec` — dataset generation, tokenizer training, encoder
pre-training (disk-cached), model construction, fine-tuning with
Algorithm 1, and evaluation — and returns a metrics dict.  Results are
cached as JSON keyed by the spec digest so tables that share runs
(2 and 3; 4 and 5) compute each run once.

Crash safety: with ``checkpoint=True`` the run records per-stage
progress under ``<cache>/progress/`` and trains through the
:mod:`repro.ft` checkpointer, so a rerun of a crashed spec
(``resume=True``, or the ``repro resume`` CLI) continues fine-tuning
from the newest valid checkpoint instead of restarting, and transient
training faults are absorbed by up to ``max_retries`` resume attempts.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.bert.cache import cache_dir, pretrained_bert
from repro.bert.config import PRESETS
from repro.data.imbalance import subsample_positives
from repro.data.loader import PairEncoder
from repro.data.registry import load_dataset
from repro.data.schema import EMDataset
from repro.engine import EngineConfig, InferenceEngine
from repro.eval.metrics import accuracy, micro_f1, precision_recall_f1
from repro.experiments.config import MODEL_SPECS, RunSpec
from repro.ft.faults import FaultError, fault_point
from repro.fasttext import FastTextEncoder, train_fasttext
from repro.jsonl import publish_text
from repro.models import (
    DeepMatcher,
    Ditto,
    Emba,
    EmbaCls,
    EmbaDual,
    EmbaSurfCon,
    JointBert,
    JointBertCT,
    JointBertS,
    JointBertT,
    JointMatcher,
    SingleTaskMatcher,
    TrainConfig,
    Trainer,
)
from repro.text import SubwordHasher, WordPieceTokenizer, train_wordpiece
from repro.text.corpus import build_corpus
from repro import obs
from repro.runs import store as runstore
from repro.runs.probes import ProbeConfig
from repro.runs.store import RunStore, RunWriter

_FASTTEXT_DIM = 48


@lru_cache(maxsize=32)
def _tokenizer_for(dataset_name: str, size: str, data_seed: int,
                   vocab_size: int) -> WordPieceTokenizer:
    dataset = load_dataset(dataset_name, size=size, seed=data_seed)
    corpus = build_corpus([dataset])
    return WordPieceTokenizer(train_wordpiece(corpus, vocab_size=vocab_size))


@lru_cache(maxsize=16)
def _fasttext_buckets(dataset_name: str, size: str, data_seed: int) -> bytes:
    """Trained fastText bucket matrix, serialized for the lru cache."""
    dataset = load_dataset(dataset_name, size=size, seed=data_seed)
    corpus = build_corpus([dataset])
    hasher = SubwordHasher(num_buckets=2048)
    vectors = train_fasttext(corpus, hasher, dim=_FASTTEXT_DIM, epochs=2, seed=0)
    return vectors.tobytes()


def _build_encoder(preset: str, spec: RunSpec, tokenizer: WordPieceTokenizer,
                   dataset: EMDataset) -> tuple:
    """Return (encoder module, hidden size)."""
    corpus = build_corpus([dataset])
    if preset == "fasttext":
        hasher = SubwordHasher(num_buckets=2048)
        raw = _fasttext_buckets(spec.dataset, spec.size, spec.data_seed)
        buckets = np.frombuffer(raw, dtype=np.float32).reshape(2048, _FASTTEXT_DIM).copy()
        encoder = FastTextEncoder(tokenizer.vocab, hasher, _FASTTEXT_DIM,
                                  np.random.default_rng(spec.seed),
                                  pretrained_buckets=buckets)
        return encoder, _FASTTEXT_DIM
    config = PRESETS[preset].with_vocab(len(tokenizer.vocab))
    if spec.pretrain_steps is not None:
        config = replace(config, pretrain_steps=spec.pretrain_steps)
    # Pre-training seed is fixed: the paper starts every fine-tuning run
    # from the same pre-trained checkpoint and varies only fine-tuning.
    encoder = pretrained_bert(config, tokenizer, corpus, seed=0)
    return encoder, config.hidden_size


def _build_model(spec: RunSpec, encoder, hidden: int, dataset: EMDataset,
                 tokenizer: WordPieceTokenizer):
    model_spec = MODEL_SPECS[spec.model]
    rng = np.random.default_rng(spec.seed + 1000)
    classes = max(dataset.num_id_classes, 1)
    kind = model_spec.kind
    if kind == "emba":
        return Emba(encoder, hidden, classes, rng)
    if kind == "emba_unmasked":
        return Emba(encoder, hidden, classes, rng, masked_aoa=False)
    if kind == "emba_dual":
        return EmbaDual(encoder, hidden, classes, rng)
    if kind == "emba_cls":
        return EmbaCls(encoder, hidden, classes, rng)
    if kind == "emba_surfcon":
        return EmbaSurfCon(encoder, hidden, classes, rng)
    if kind == "jointbert":
        return JointBert(encoder, hidden, classes, rng)
    if kind == "jointbert_s":
        return JointBertS(encoder, hidden, classes, rng)
    if kind == "jointbert_t":
        return JointBertT(encoder, hidden, classes, rng)
    if kind == "jointbert_ct":
        return JointBertCT(encoder, hidden, classes, rng)
    if kind == "single":
        return SingleTaskMatcher(encoder, hidden, rng)
    if kind == "ditto":
        return Ditto(encoder, hidden, tokenizer.vocab, rng)
    if kind == "jointmatcher":
        return JointMatcher(encoder, hidden, tokenizer.vocab, rng)
    if kind == "deepmatcher":
        pos, neg = dataset.positive_negative_counts("train")
        pos_weight = (neg / pos) if pos else None
        return DeepMatcher(len(tokenizer.vocab), rng, embed_dim=_FASTTEXT_DIM,
                           hidden=32, pos_weight=pos_weight)
    raise KeyError(f"unknown model kind {kind!r}")


def _results_dir() -> Path:
    path = cache_dir() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def checkpoint_dir_for(spec: RunSpec) -> Path:
    """Where a spec's training checkpoints live (keyed by spec digest)."""
    return cache_dir() / "checkpoints" / spec.digest()


def progress_path_for(spec: RunSpec) -> Path:
    """Where a spec's stage-progress record lives."""
    return cache_dir() / "progress" / f"{spec.digest()}.json"


def _record_progress(spec: RunSpec, stage: str, enabled: bool, **extra) -> None:
    """Persist the spec's current pipeline stage (atomic, best-effort)."""
    runstore.record_event("stage", stage=stage, **extra)
    if not enabled:
        return
    path = progress_path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"stage": stage, "spec": spec.digest(), "model": spec.model,
               "dataset": spec.dataset, **extra}
    try:
        publish_text(path, json.dumps(payload))
    except OSError:
        pass


def _open_run(spec: RunSpec, resume: bool, run_name: str) -> RunWriter:
    """Create (or, on resume, reattach) the run this execution records into.

    On resume the newest non-completed run with the same config hash is
    reopened, so the continued training appends to the original time
    series instead of starting a sibling run.
    """
    store = RunStore()
    config = dict(spec.__dict__)
    writer = store.reattach_incomplete(config) if resume else None
    if writer is None:
        writer = store.create(
            name=run_name or f"{spec.model}-{spec.dataset}-{spec.size}"
                             f"-s{spec.seed}",
            kind="train", config=config, argv=list(sys.argv),
            model=spec.model, dataset=spec.dataset, size=spec.size,
            seed=spec.seed)
    return writer


def run_experiment(spec: RunSpec, use_cache: bool = True,
                   checkpoint: bool = False, resume: bool = False,
                   max_retries: int = 0, record_run: bool = True,
                   run_name: str = "", probe_every: int = 0) -> dict:
    """Execute one run (or load it from the result cache).

    Returns a flat metrics dict: ``em_f1``, ``em_precision``,
    ``em_recall``, ``acc1``, ``acc2``, ``id_micro_f1``, ``epochs_run``,
    ``train_seconds``, plus the spec fields for provenance.

    ``checkpoint=True`` persists full training state per epoch and
    records per-stage progress; ``resume=True`` (implies checkpointing)
    continues a previously crashed run from its newest checkpoint.
    Transient faults during training trigger up to ``max_retries``
    rebuild-and-resume attempts before propagating.

    With ``record_run`` (the default) the execution is registered in the
    :class:`~repro.runs.store.RunStore`: a run directory with the spec's
    config, a per-step training time series, and the final metrics.
    ``probe_every > 0`` additionally samples model-introspection probe
    channels every N steps (observation-only).  A result-cache hit
    executes nothing and therefore records no run.
    """
    checkpoint = checkpoint or resume
    cache_path = _results_dir() / f"{spec.digest()}.json"
    if use_cache and cache_path.exists():
        return json.loads(cache_path.read_text(encoding="utf-8"))

    if record_run:
        writer = _open_run(spec, resume, run_name)
        with runstore.recording(writer):
            metrics = _execute(spec, checkpoint=checkpoint, resume=resume,
                               max_retries=max_retries,
                               probe_every=probe_every)
        writer.finish(**metrics)
    else:
        metrics = _execute(spec, checkpoint=checkpoint, resume=resume,
                           max_retries=max_retries, probe_every=probe_every)
    if use_cache:
        # Atomic: a torn entry would fail every later cache hit.
        publish_text(cache_path, json.dumps(metrics))
    return metrics


def _execute(spec: RunSpec, checkpoint: bool, resume: bool,
             max_retries: int, probe_every: int) -> dict:
    """The actual pipeline behind :func:`run_experiment` (no caching)."""
    model_spec = MODEL_SPECS[spec.model]
    _record_progress(spec, "load_data", checkpoint)
    with obs.span("runner.load_data", dataset=spec.dataset, size=spec.size):
        dataset = load_dataset(spec.dataset, size=spec.size, seed=spec.data_seed)
        if spec.subsample_positives is not None:
            rng = np.random.default_rng(spec.seed + 7)
            dataset = EMDataset(
                name=dataset.name,
                train=subsample_positives(dataset.train, spec.subsample_positives, rng),
                valid=dataset.valid,
                test=dataset.test,
                id_classes=dataset.id_classes,
                metadata=dict(dataset.metadata),
            )

    _record_progress(spec, "encode", checkpoint)
    with obs.span("runner.encode") as encode_span:
        tokenizer = _tokenizer_for(spec.dataset, spec.size, spec.data_seed,
                                   spec.vocab_size)
        pair_encoder = PairEncoder(tokenizer, max_length=spec.max_length,
                                   style=model_spec.style)
        train = pair_encoder.encode_many(dataset.train, dataset)
        valid = pair_encoder.encode_many(dataset.valid, dataset)
        test = pair_encoder.encode_many(dataset.test, dataset)
        encode_span.set("pairs", len(train) + len(valid) + len(test))

    # The fastText variant is a shallow bag-of-subwords model (no deep
    # encoder to destabilize) and needs a hotter rate, mirroring
    # fastText's own much larger default learning rates.
    learning_rate = spec.learning_rate
    if model_spec.encoder == "fasttext":
        learning_rate = spec.learning_rate * 3.0
    trainer = Trainer(TrainConfig(
        epochs=spec.epochs, batch_size=spec.batch_size,
        learning_rate=learning_rate, patience=spec.patience,
        seed=spec.seed,
    ))
    ckpt_dir = checkpoint_dir_for(spec) if checkpoint else None

    # Rebuild encoder + model on every attempt: a failed attempt leaves
    # mid-epoch weights behind, and a resume must start from either the
    # checkpoint or a deterministic fresh init — never dirty state.
    # (Encoder pre-training itself is memoized on disk, so rebuilds are
    # cheap.)
    attempts = 0
    start = time.perf_counter()
    while True:
        _record_progress(spec, "build_model", checkpoint, attempt=attempts)
        with obs.span("runner.build_model", model=spec.model, attempt=attempts):
            if model_spec.encoder is not None:
                encoder, hidden = _build_encoder(model_spec.encoder, spec,
                                                 tokenizer, dataset)
            else:
                encoder, hidden = None, 0
            model = _build_model(spec, encoder, hidden, dataset, tokenizer)
        try:
            _record_progress(spec, "train", checkpoint, attempt=attempts)
            with obs.span("runner.train", attempt=attempts):
                fault_point("runner.train")
                fit = trainer.fit(
                    model, train, valid, checkpoint_dir=ckpt_dir,
                    resume=resume or attempts > 0,
                    probes=(ProbeConfig(interval=probe_every)
                            if probe_every > 0 else None))
            break
        except (FaultError, OSError) as exc:
            transient = getattr(exc, "transient", True)
            if ckpt_dir is None or not transient or attempts >= max_retries:
                _record_progress(spec, "failed", checkpoint,
                                 attempt=attempts, error=repr(exc))
                raise
            attempts += 1
            obs.inc("runner.retries")
    train_seconds = time.perf_counter() - start

    _record_progress(spec, "evaluate", checkpoint, attempt=attempts)
    with obs.span("runner.evaluate", pairs=len(test)):
        engine = InferenceEngine(model, config=EngineConfig(batch_size=spec.batch_size))
        preds = engine.score_encoded(test)
        engine_stats = engine.stats
    precision, recall, f1 = precision_recall_f1(preds["labels"], preds["em_pred"])
    metrics = {
        "em_f1": f1,
        "em_precision": precision,
        "em_recall": recall,
        "epochs_run": fit.epochs_run,
        "best_valid_f1": fit.best_valid_f1,
        "train_seconds": train_seconds,
        "train_attempts": attempts + 1,
        "nonfinite_skipped": fit.nonfinite_skipped,
        "checkpoint_failures": fit.checkpoint_failures,
        "quarantined": engine_stats.quarantined,
        "infer_seconds": engine_stats.wall_seconds,
        "infer_pairs_per_s": engine_stats.pairs_per_second,
        "infer_pad_waste": engine_stats.pad_waste_ratio,
        "num_id_classes": dataset.num_id_classes,
        **{f"spec_{k}": v for k, v in spec.__dict__.items()},
    }
    if model_spec.multi_task:
        metrics["acc1"] = accuracy(preds["id1"], preds["id1_pred"])
        metrics["acc2"] = accuracy(preds["id2"], preds["id2_pred"])
        pooled_true = np.concatenate([preds["id1"], preds["id2"]])
        pooled_pred = np.concatenate([preds["id1_pred"], preds["id2_pred"]])
        metrics["id_micro_f1"] = micro_f1(pooled_true, pooled_pred)
    _record_progress(spec, "done", checkpoint, attempt=attempts)
    return metrics


def run_many(specs: list[RunSpec], use_cache: bool = True,
             progress: bool = False) -> list[dict]:
    """Run a list of specs sequentially (with caching)."""
    results = []
    for i, spec in enumerate(specs):
        if progress:
            print(f"[{i + 1}/{len(specs)}] {spec.model} on {spec.dataset}"
                  f"/{spec.size} seed={spec.seed}", flush=True)
        results.append(run_experiment(spec, use_cache=use_cache))
    return results
