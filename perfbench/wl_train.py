"""``train``: EMBA fine-tuning steps (autograd, backward, Adam).

EMBA on the ``mini-base`` encoder, random-initialised (no MLM
pre-training cache), with attention-over-attention and both entity-ID
heads, trained on the Eq. 3 loss with Adam in batches of 16 generated
WDC-computers pairs.  No engine, socket or disk work runs, so this is
where ``repro.nn`` autograd, the backward pass and the optimizer
dominate.  The operation is one optimizer step; items are pairs.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

import build
from layers import untimed
from repro.data.loader import collate
from repro.data.registry import load_dataset
from repro.models import Emba
from repro.nn.optim import Adam, clip_grad_norm_
from repro.text.corpus import build_corpus

BATCH = 16
SIZE = "large"            # 380 training pairs
LR = 1e-3
MAX_GRAD_NORM = 1.0
DIGEST_STEPS = 3          # steps of the two same-seed determinism runs
MIN_OPS = 120             # enough steps for a p90 tail
SLICE = 10                # steps per throughput slice
WARMUP_STEPS = 3          # untimed steps before each measurement


class State:
    def __init__(self, seed: int, encoder, encoded, classes: int):
        self.seed = seed
        self.encoder = encoder
        self.encoded = encoded
        self.classes = classes
        self.model, self.optimizer = fresh_model(seed, encoder, classes)
        self.order_rng = np.random.default_rng(seed)
        self.nonfinite = 0


def fresh_model(seed: int, encoder, classes: int):
    model = build.model(Emba, "mini-base", encoder, classes, seed)
    model.train()
    return model, Adam(model.parameters(), lr=LR)


def setup(seed: int, workdir) -> State:
    dataset = load_dataset("wdc_computers", size=SIZE, seed=seed)
    encoder = build.pair_encoder(build_corpus([dataset]))
    encoded = encoder.encode_many(dataset.train, dataset)
    return State(seed, encoder, encoded, max(dataset.num_id_classes, 1))


def _batches(state: State):
    """Endless shuffled full batches (a partial last batch is dropped)."""
    n = len(state.encoded)
    while True:
        order = state.order_rng.permutation(n)
        for start in range(0, n - BATCH + 1, BATCH):
            yield [state.encoded[i] for i in order[start:start + BATCH]]


def _clip_and_step(model, optimizer) -> None:
    clip_grad_norm_(model.parameters(), MAX_GRAD_NORM)
    optimizer.step()


def step(model, optimizer, chunk, call=untimed):
    """One optimizer step, every layer call routed through ``call``."""
    batch = call("data.collate", collate, chunk)
    output = call("models.forward", model, batch)
    loss = call("models.loss", model.loss, output, batch)
    model.zero_grad()
    call("nn.backward", loss.backward)
    call("nn.optim_step", _clip_and_step, model, optimizer)
    return batch, float(loss.data)


def _wrap_model(model, clock) -> None:
    clock.wrap(model.encoder, "forward", "bert.encoder")
    clock.wrap(model.aoa, "forward", "models.aoa")
    for head in (model.em_head, model.id1_head, model.id2_head):
        clock.wrap(head, "forward", "models.heads")


def measure(state: State, seconds: float, clock=None) -> dict:
    call = untimed
    if clock is not None:
        _wrap_model(state.model, clock)
        call = clock.call
    latencies, slices = [], []
    cells = real = nonfinite = 0
    batches = _batches(state)
    for _ in range(WARMUP_STEPS):
        step(state.model, state.optimizer, next(batches))
    if clock is not None:
        clock.seconds.clear()             # the warm-up is not measured
    start = slice_start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        chunk = next(batches)
        t0 = time.perf_counter()
        batch, loss = step(state.model, state.optimizer, chunk, call)
        now = time.perf_counter()
        latencies.append(now - t0)
        if len(latencies) % SLICE == 0:
            slices.append((SLICE * BATCH, SLICE, now - slice_start))
            slice_start = now
        if not math.isfinite(loss):
            nonfinite += 1
        cells += batch.attention_mask.size
        real += float(batch.attention_mask.sum())
    steps = len(latencies)
    state.nonfinite += nonfinite
    return {
        "ops": steps,
        "elapsed": time.perf_counter() - start,
        "slices": slices,
        "latencies": latencies,
        "attempted": steps,
        "failed": nonfinite,
        "layers": {"data.pad_waste": 1.0 - real / cells},
    }


def _digest(model) -> str:
    sha = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


def check(state: State) -> list[str]:
    """Losses stayed finite; two same-seed runs end bitwise equal."""
    errors = []
    if state.nonfinite:
        errors.append(f"{state.nonfinite} steps had a non-finite loss")
    digests = []
    for _ in range(2):
        model, optimizer = fresh_model(state.seed, state.encoder, state.classes)
        rng = np.random.default_rng(state.seed)
        for _ in range(DIGEST_STEPS):
            order = rng.choice(len(state.encoded), BATCH, replace=False)
            step(model, optimizer, [state.encoded[i] for i in order])
        digests.append(_digest(model))
    if digests[0] != digests[1]:
        errors.append("two same-seed training runs ended with different "
                      f"weights ({digests[0][:12]} != {digests[1][:12]})")
    return errors


def close(state: State) -> None:
    pass
