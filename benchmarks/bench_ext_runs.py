"""Extension bench — run-recording and probe overhead on training.

The runs subsystem promises the same discipline as obs: with no active
run the trainer pays one ``is None`` check per batch, and with a run
recording but probes disabled (the library default) the per-step JSONL
append must stay under 3% of step time.  This bench fits the same tiny
model three ways — plain, recording, recording+probes — and records the
overhead ratios; the acceptance bar gates the probes-off path on the
median of paired per-round ratios.
"""

import tempfile
import time

import numpy as np
import pytest

from benchmarks.helpers import (
    RESULTS_DIR,
    paired_overhead,
    record_bench,
    run_once,
)
from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.data.loader import PairEncoder
from repro.data.registry import load_dataset
from repro.models import Emba, TrainConfig, Trainer
from repro.runs import ProbeConfig, RunStore
from repro.runs import store as runstore
from repro.text import WordPieceTokenizer, train_wordpiece

# Rounds of one fit per variant: 10 rounds x 3 variants = 30 fits.
ROUNDS = 10


@pytest.fixture(scope="module")
def workload():
    ds = load_dataset("wdc_computers", size="small")
    texts = [r.text() for p in ds.all_pairs() for r in (p.record1, p.record2)]
    tok = WordPieceTokenizer(train_wordpiece(texts, vocab_size=400))
    cfg = BertConfig(vocab_size=len(tok.vocab), hidden_size=32,
                     num_layers=2, num_heads=2, intermediate_size=64,
                     max_position=128, dropout=0.0, attention_dropout=0.0)
    encoder = PairEncoder(tok, 96)
    train = encoder.encode_many(ds.train[:160], ds)
    valid = encoder.encode_many(ds.valid[:40], ds)

    def build_model():
        return Emba(BertModel(cfg, np.random.default_rng(0)), 32,
                    max(ds.num_id_classes, 1), np.random.default_rng(1))

    return build_model, train, valid


def fit_once(build_model, train, valid, store=None, probes=None) -> float:
    """Wall time of one full deterministic fit."""
    trainer = Trainer(TrainConfig(epochs=3, batch_size=16, seed=0))
    model = build_model()
    start = time.perf_counter()
    if store is None:
        trainer.fit(model, train, valid, probes=probes)
    else:
        writer = store.create(name="bench-fit", kind="train")
        with runstore.recording(writer):
            trainer.fit(model, train, valid, probes=probes)
        writer.finish()
    return time.perf_counter() - start


def test_recording_and_probe_overhead(benchmark, workload, request):
    build_model, train, valid = workload
    store = RunStore(tempfile.mkdtemp(prefix="bench-runs-"))

    def measure():
        # Each round fits every variant once, in an order that reverses
        # between rounds, and the overheads are medians of the per-round
        # ratios against that round's plain fit (see paired_overhead).
        variants = {
            "plain": lambda: fit_once(build_model, train, valid),
            "recorded": lambda: fit_once(build_model, train, valid,
                                         store=store),
            "probed": lambda: fit_once(build_model, train, valid,
                                       store=store,
                                       probes=ProbeConfig(interval=5)),
        }
        times = {name: [] for name in variants}
        for round_index in range(ROUNDS):
            order = list(variants)
            if round_index % 2:
                order.reverse()
            for name in order:
                times[name].append(variants[name]())
        return times

    times = run_once(benchmark, measure)
    plain = float(np.median(times["plain"]))
    recording_overhead = paired_overhead(times["plain"], times["recorded"])
    probe_overhead = paired_overhead(times["plain"], times["probed"])
    # The bar: recording with probes off must be within 3% of a fit
    # that records nothing at all.
    assert recording_overhead < 0.03, \
        f"probes-off run recording cost {recording_overhead:.1%}"

    record_bench(request, "bench-runs-overhead",
                 recording_overhead=recording_overhead,
                 probe_overhead=probe_overhead,
                 baseline_seconds=plain)

    path = RESULTS_DIR / "ext_runs.txt"
    header = ("Extension: run-recording + probe overhead on training "
              "(tiny EMBA, 160 pairs x 3 epochs, probes every 5 steps)\n")
    line = (f"recording_overhead={recording_overhead * 100:+.2f}% "
            f"probe_overhead={probe_overhead * 100:+.2f}% "
            f"baseline={plain * 1e3:.0f}ms")
    existing = path.read_text() if path.exists() else header
    if line not in existing:
        path.write_text(existing + line + "\n")
