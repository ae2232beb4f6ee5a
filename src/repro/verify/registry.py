"""Gradient-check case registry with auto-discovery.

Every differentiable op in :mod:`repro.nn.functional` /
:mod:`repro.nn.losses` and every layer in :mod:`repro.nn.layers`,
:mod:`repro.nn.rnn`, ``repro.bert`` and ``repro.models`` must have a
registered :class:`CheckCase` (or an entry in :data:`EXEMPT` with a
reason).  :func:`discover` enumerates the targets by introspection, so a
newly added op or layer fails ``repro selfcheck`` until someone writes a
case for it — the registry cannot silently rot.

A case's ``build(rng)`` returns ``(thunk, leaves)`` for
:func:`repro.verify.gradcheck.gradcheck`: the thunk re-runs the
computation (deterministically) and the leaves are the float64 tensors
to differentiate against — op inputs, module parameters, or both.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.tensor import Tensor
from repro.verify.gradcheck import GradcheckResult, gradcheck, leaves_of, to_float64

# ----------------------------------------------------------------------
# Registry machinery
# ----------------------------------------------------------------------

BuildFn = Callable[[np.random.Generator], tuple[Callable[[], Tensor], dict[str, Tensor]]]


@dataclass(frozen=True)
class CheckCase:
    """One gradient-check case covering one or more discovery targets."""

    name: str
    targets: tuple[str, ...]
    build: BuildFn
    rtol: float = 1e-4
    atol: float = 1e-8
    eps: float = 1e-6
    max_elements_per_leaf: int = 16
    heavy: bool = False          # full-model cases, skipped in quick mode


_CASES: dict[str, CheckCase] = {}

#: Discovery targets deliberately not gradient-checked, with the reason.
EXEMPT: dict[str, str] = {
    "repro.nn.functional.attention_mask_bias":
        "returns a plain ndarray additive bias; never on the tape",
    "repro.models.base.EMModel":
        "abstract base; every concrete subclass has its own case",
}


def register(name: str, targets: tuple[str, ...] | list[str], *,
             rtol: float = 1e-4, atol: float = 1e-8, eps: float = 1e-6,
             max_elements_per_leaf: int = 16, heavy: bool = False):
    """Decorator registering a ``build(rng)`` function as a check case."""
    def decorator(build: BuildFn) -> BuildFn:
        if name in _CASES:
            raise ValueError(f"duplicate gradcheck case {name!r}")
        _CASES[name] = CheckCase(
            name=name, targets=tuple(targets), build=build, rtol=rtol,
            atol=atol, eps=eps, max_elements_per_leaf=max_elements_per_leaf,
            heavy=heavy,
        )
        return build
    return decorator


def all_cases(quick: bool = False) -> list[CheckCase]:
    """Registered cases in registration order (quick mode drops heavy ones)."""
    cases = list(_CASES.values())
    if quick:
        cases = [c for c in cases if not c.heavy]
    return cases


def run_case(case: CheckCase, seed: int = 0) -> GradcheckResult:
    """Build and execute one case."""
    rng = np.random.default_rng(seed)
    thunk, leaves = case.build(rng)
    return gradcheck(
        thunk, leaves, name=case.name, eps=case.eps, rtol=case.rtol,
        atol=case.atol, max_elements_per_leaf=case.max_elements_per_leaf,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Auto-discovery
# ----------------------------------------------------------------------

#: Modules whose public *functions* must be gradient-checked.
OP_MODULES = ("repro.nn.functional", "repro.nn.losses")

#: Modules whose *Module subclasses* must be gradient-checked.
LAYER_MODULES = (
    "repro.nn.layers",
    "repro.nn.rnn",
    "repro.bert.attention",
    "repro.bert.embeddings",
    "repro.bert.encoder",
    "repro.bert.model",
    "repro.bert.mlm",
    "repro.fasttext.model",
    "repro.models.aoa",
    "repro.models.base",
    "repro.models.heads",
    "repro.models.surfcon",
    "repro.models.emba",
    "repro.models.emba_dual",
    "repro.models.jointbert",
    "repro.models.single_task",
    "repro.models.ditto",
    "repro.models.jointmatcher",
    "repro.models.deepmatcher",
)


@dataclass
class DiscoveryReport:
    """What auto-discovery found and how the registry covers it."""

    ops: list[str] = field(default_factory=list)
    modules: list[str] = field(default_factory=list)
    covered: list[str] = field(default_factory=list)
    exempt: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)   # case targets that no longer exist

    @property
    def ok(self) -> bool:
        return not self.missing and not self.stale

    def summary(self) -> str:
        return (f"discovered {len(self.ops)} ops + {len(self.modules)} modules; "
                f"{len(self.covered)} covered, {len(self.exempt)} exempt, "
                f"{len(self.missing)} missing, {len(self.stale)} stale")


def _discover_targets() -> tuple[list[str], list[str]]:
    from repro.nn.module import Module

    # The Tensor class itself is the op surface for arithmetic, matmul,
    # indexing, reductions and shaping — one explicit discovery target.
    ops: list[str] = ["repro.nn.tensor.Tensor"]
    for mod_name in OP_MODULES:
        mod = importlib.import_module(mod_name)
        for name, obj in sorted(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod_name):
                ops.append(f"{mod_name}.{name}")

    modules: list[str] = []
    for mod_name in LAYER_MODULES:
        mod = importlib.import_module(mod_name)
        for name, obj in sorted(vars(mod).items()):
            if (inspect.isclass(obj) and issubclass(obj, Module)
                    and obj.__module__ == mod_name):
                modules.append(f"{mod_name}.{name}")
    return ops, modules


def discover() -> DiscoveryReport:
    """Enumerate checkable targets and diff them against the registry."""
    ops, modules = _discover_targets()
    targets = set(ops) | set(modules)
    case_targets = {t for case in _CASES.values() for t in case.targets}

    report = DiscoveryReport(ops=ops, modules=modules)
    for target in sorted(targets):
        if target in case_targets:
            report.covered.append(target)
        elif target in EXEMPT:
            report.exempt.append(target)
        else:
            report.missing.append(target)
    report.stale = sorted(case_targets - targets)
    return report


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------

_VOCAB_SIZE = 32
_SEQ = 12
_HIDDEN = 8
_PAD, _UNK, _CLS, _SEP, _MASK = 0, 1, 2, 3, 4


def _leaf(rng: np.random.Generator, *shape: int, low: float = -1.0,
          high: float = 1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True,
                  dtype=np.float64)


def _away_from_zero(rng: np.random.Generator, *shape: int) -> Tensor:
    """Inputs bounded away from 0 for kinked ops (relu, abs)."""
    magnitude = rng.uniform(0.2, 1.0, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(magnitude * sign, requires_grad=True, dtype=np.float64)


def _tiny_vocab():
    from repro.text.special_tokens import SPECIAL_TOKENS
    from repro.text.vocab import Vocabulary

    count = _VOCAB_SIZE - len(SPECIAL_TOKENS)  # specials are auto-added first
    return Vocabulary([f"w{i}" if i % 3 else f"m{i}00x" for i in range(count)])


def _tiny_config():
    from repro.bert.config import BertConfig

    return BertConfig(
        vocab_size=_VOCAB_SIZE, hidden_size=_HIDDEN, num_layers=1, num_heads=2,
        intermediate_size=16, max_position=_SEQ, dropout=0.0,
        attention_dropout=0.0,
    )


def _tiny_batch(rng: np.random.Generator, lens=((4, 3), (2, 5), (3, 3))):
    """A small padded Batch with ragged rows (real padding in play)."""
    from repro.data.loader import Batch

    batch = len(lens)
    input_ids = np.zeros((batch, _SEQ), dtype=np.int64)
    segment_ids = np.zeros((batch, _SEQ), dtype=np.int64)
    attention = np.zeros((batch, _SEQ), dtype=np.float32)
    mask1 = np.zeros((batch, _SEQ), dtype=np.float32)
    mask2 = np.zeros((batch, _SEQ), dtype=np.float32)
    for i, (n1, n2) in enumerate(lens):
        length = 3 + n1 + n2
        assert length <= _SEQ
        body = rng.integers(5, _VOCAB_SIZE, size=n1 + n2)
        input_ids[i, :length] = np.concatenate(
            [[_CLS], body[:n1], [_SEP], body[n1:], [_SEP]]
        )
        segment_ids[i, n1 + 2:length] = 1
        attention[i, :length] = 1.0
        mask1[i, 1:1 + n1] = 1.0
        mask2[i, n1 + 2:n1 + 2 + n2] = 1.0
    labels = np.asarray(rng.integers(0, 2, size=batch), dtype=np.float32)
    id1 = rng.integers(0, 3, size=batch).astype(np.int64)
    id2 = rng.integers(0, 3, size=batch).astype(np.int64)
    return Batch(input_ids, segment_ids, attention, mask1, mask2, labels, id1, id2)


def _span_masks(rng: np.random.Generator, batch_: int, seq: int):
    """Two disjoint non-empty 0/1 span masks over a padded sequence."""
    mask1 = np.zeros((batch_, seq), dtype=np.float32)
    mask2 = np.zeros((batch_, seq), dtype=np.float32)
    for i in range(batch_):
        n1 = int(rng.integers(1, seq // 2))
        n2 = int(rng.integers(1, seq // 2))
        mask1[i, 1:1 + n1] = 1.0
        mask2[i, 1 + n1:1 + n1 + n2] = 1.0
    return mask1, mask2


def _model_case(model_factory, multi_task_classes: int = 3):
    """Builder for a full EMModel: gradcheck the Eq. 3 loss wrt all params."""
    def build(rng: np.random.Generator):
        model = model_factory(rng)
        to_float64(model)
        model.eval()  # dropout configs are zero anyway; belt and braces
        batch = _tiny_batch(rng)
        return (lambda: model.loss(model(batch), batch)), leaves_of(model)
    return build


def _bert_encoder_factory(rng: np.random.Generator):
    from repro.bert.model import BertModel

    return BertModel(_tiny_config(), rng)


# ----------------------------------------------------------------------
# Cases: repro.nn.functional
# ----------------------------------------------------------------------

@register("functional.softmax", ["repro.nn.functional.softmax"])
def _case_softmax(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 3, 7, low=-3.0, high=3.0)
    return (lambda: F.softmax(x, axis=-1)), {"x": x}


@register("functional.softmax_masked_axis1",
          ["repro.nn.functional.softmax"])
def _case_softmax_axis1(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 2, 6, 5, low=-3.0, high=3.0)
    bias = F.attention_mask_bias(
        (rng.random((2, 6, 1)) < 0.7).astype(np.float64), dtype=np.float64)
    return (lambda: F.softmax(x + Tensor(bias, dtype=np.float64), axis=1)), {"x": x}


@register("functional.log_softmax", ["repro.nn.functional.log_softmax"])
def _case_log_softmax(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 3, 7, low=-3.0, high=3.0)
    return (lambda: F.log_softmax(x, axis=-1)), {"x": x}


@register("functional.gelu", ["repro.nn.functional.gelu"])
def _case_gelu(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 4, 5, low=-3.0, high=3.0)
    return (lambda: F.gelu(x)), {"x": x}


@register("functional.relu", ["repro.nn.functional.relu"])
def _case_relu(rng):
    from repro.nn import functional as F

    x = _away_from_zero(rng, 4, 5)
    return (lambda: F.relu(x)), {"x": x}


@register("functional.tanh", ["repro.nn.functional.tanh"])
def _case_tanh(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 4, 5, low=-4.0, high=4.0)
    return (lambda: F.tanh(x)), {"x": x}


@register("functional.sigmoid", ["repro.nn.functional.sigmoid"])
def _case_sigmoid(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 4, 5, low=-4.0, high=4.0)
    return (lambda: F.sigmoid(x)), {"x": x}


@register("functional.layer_norm", ["repro.nn.functional.layer_norm"])
def _case_layer_norm(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 3, 4, 6)
    weight = _leaf(rng, 6, low=0.5, high=1.5)
    bias = _leaf(rng, 6)
    return (lambda: F.layer_norm(x, weight, bias)), {
        "x": x, "weight": weight, "bias": bias}


@register("functional.dropout", ["repro.nn.functional.dropout"])
def _case_dropout(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 4, 6)
    # The mask must be identical on every thunk call: re-seed per call.
    return (lambda: F.dropout(x, 0.3, True, np.random.default_rng(7))), {"x": x}


@register("functional.embedding", ["repro.nn.functional.embedding"])
def _case_embedding(rng):
    from repro.nn import functional as F

    weight = _leaf(rng, 10, 5)
    # Repeated indices exercise the scatter-add backward.
    indices = np.array([[0, 3, 3, 7], [9, 0, 1, 3]])
    return (lambda: F.embedding(weight, indices)), {"weight": weight}


@register("functional.masked_fill", ["repro.nn.functional.masked_fill"])
def _case_masked_fill(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 4, 6)
    mask = rng.random((4, 6)) < 0.4
    return (lambda: F.masked_fill(x, mask, -1e9) * Tensor(
        np.where(mask, 0.0, 1.0), dtype=np.float64)), {"x": x}


@register("functional.linear", ["repro.nn.functional.linear"])
def _case_linear(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 3, 4, 6)
    weight = _leaf(rng, 5, 6)
    bias = _leaf(rng, 5)
    return (lambda: F.linear(x, weight, bias)), {
        "x": x, "weight": weight, "bias": bias}


@register("functional.linear_2d", ["repro.nn.functional.linear"])
def _case_linear_2d(rng):
    from repro.nn import functional as F

    # (batch, hidden) input, the shape every classification head sees.
    x = _leaf(rng, 4, 6)
    weight = _leaf(rng, 3, 6)
    bias = _leaf(rng, 3)
    return (lambda: F.linear(x, weight, bias)), {
        "x": x, "weight": weight, "bias": bias}


@register("functional.mean_pool", ["repro.nn.functional.mean_pool"])
def _case_mean_pool(rng):
    from repro.nn import functional as F

    x = _leaf(rng, 3, 6, 4)
    mask = (rng.random((3, 6)) < 0.6).astype(np.float64)
    mask[0] = 0.0            # an all-masked row must contribute zero grad
    mask[1, :2] = 1.0        # and at least one row is guaranteed non-empty
    return (lambda: F.mean_pool(x, mask)), {"x": x}


# ----------------------------------------------------------------------
# Cases: repro.nn.losses
# ----------------------------------------------------------------------

@register("losses.bce_with_logits",
          ["repro.nn.losses.binary_cross_entropy_with_logits"])
def _case_bce(rng):
    from repro.nn import losses

    logits = _leaf(rng, 6, low=-3.0, high=3.0)
    targets = rng.integers(0, 2, size=6).astype(np.float64)
    return (lambda: losses.binary_cross_entropy_with_logits(logits, targets)), {
        "logits": logits}


@register("losses.bce_pos_weight",
          ["repro.nn.losses.binary_cross_entropy_with_logits"])
def _case_bce_weighted(rng):
    from repro.nn import losses

    logits = _leaf(rng, 6, low=-3.0, high=3.0)
    targets = rng.integers(0, 2, size=6).astype(np.float64)
    return (lambda: losses.binary_cross_entropy_with_logits(
        logits, targets, pos_weight=2.5)), {"logits": logits}


@register("losses.cross_entropy", ["repro.nn.losses.cross_entropy"])
def _case_cross_entropy(rng):
    from repro.nn import losses

    logits = _leaf(rng, 5, 4, low=-3.0, high=3.0)
    targets = rng.integers(0, 4, size=5)
    return (lambda: losses.cross_entropy(logits, targets)), {"logits": logits}


@register("losses.nll_loss", ["repro.nn.losses.nll_loss"])
def _case_nll(rng):
    from repro.nn import functional as F
    from repro.nn import losses

    logits = _leaf(rng, 5, 4, low=-3.0, high=3.0)
    targets = rng.integers(0, 4, size=5)
    return (lambda: losses.nll_loss(F.log_softmax(logits, axis=-1), targets)), {
        "logits": logits}


# ----------------------------------------------------------------------
# Cases: tensor primitives (extra coverage beyond the mandated sweep)
# ----------------------------------------------------------------------

@register("tensor.matmul_batched", ["repro.nn.tensor.Tensor"])
def _case_matmul(rng):
    a = _leaf(rng, 2, 3, 4)
    b = _leaf(rng, 2, 4, 5)
    v = _leaf(rng, 5)
    return (lambda: (a @ b) @ v), {"a": a, "b": b, "v": v}


@register("tensor.shaping_chain", ["repro.nn.tensor.Tensor"])
def _case_shaping(rng):
    from repro.nn.tensor import concat, stack

    a = _leaf(rng, 3, 4)
    b = _leaf(rng, 3, 4)
    def thunk():
        stacked = stack([a, b], axis=1)               # (3, 2, 4)
        joined = concat([stacked, stacked], axis=-1)  # (3, 2, 8)
        return joined.transpose(2, 0, 1).reshape(8, 6).max(axis=0)
    return thunk, {"a": a, "b": b}


@register("tensor.fancy_index", ["repro.nn.tensor.Tensor"])
def _case_fancy_index(rng):
    x = _leaf(rng, 5, 4)
    rows = np.array([0, 2, 2, 4])   # repeated rows -> scatter-add backward
    cols = np.array([1, 3, 3, 0])
    return (lambda: x[rows, cols] * x[rows, cols]), {"x": x}


@register("tensor.reductions", ["repro.nn.tensor.Tensor"])
def _case_reductions(rng):
    x = _leaf(rng, 3, 4, 5)
    return (lambda: x.mean(axis=(0, 2)) + x.sum(axis=(0, 2)) * 0.1
            + (x * x).sum(axis=0).mean(axis=-1)), {"x": x}


# ----------------------------------------------------------------------
# Cases: repro.nn.layers / repro.nn.rnn
# ----------------------------------------------------------------------

@register("layers.Linear", ["repro.nn.layers.Linear"])
def _case_linear_layer(rng):
    from repro.nn.layers import Linear

    layer = to_float64(Linear(6, 4, rng))
    x = _leaf(rng, 3, 6)
    return (lambda: layer(x)), {"x": x, **leaves_of(layer)}


@register("layers.Embedding", ["repro.nn.layers.Embedding"])
def _case_embedding_layer(rng):
    from repro.nn.layers import Embedding

    layer = to_float64(Embedding(10, 5, rng, padding_idx=0))
    indices = np.array([[1, 4, 4, 0], [9, 2, 1, 4]])
    return (lambda: layer(indices)), leaves_of(layer)


@register("layers.LayerNorm", ["repro.nn.layers.LayerNorm"])
def _case_layernorm_layer(rng):
    from repro.nn.layers import LayerNorm

    layer = to_float64(LayerNorm(6))
    x = _leaf(rng, 3, 6)
    return (lambda: layer(x)), {"x": x, **leaves_of(layer)}


@register("layers.Dropout", ["repro.nn.layers.Dropout"])
def _case_dropout_layer(rng):
    from repro.nn.layers import Dropout

    layer = Dropout(0.25, rng)
    x = _leaf(rng, 4, 6)

    def thunk():
        layer.rng = np.random.default_rng(11)   # same mask every call
        return layer(x)
    return thunk, {"x": x}


@register("layers.Sequential", ["repro.nn.layers.Sequential"])
def _case_sequential(rng):
    from repro.nn.layers import Linear, LayerNorm, Sequential

    seq = to_float64(Sequential(Linear(6, 5, rng), LayerNorm(5), Linear(5, 3, rng)))
    x = _leaf(rng, 4, 6)
    return (lambda: seq(x)), {"x": x, **leaves_of(seq)}


@register("rnn.GRUCell", ["repro.nn.rnn.GRUCell"])
def _case_gru_cell(rng):
    from repro.nn.rnn import GRUCell

    cell = to_float64(GRUCell(5, 4, rng))
    x = _leaf(rng, 3, 5)
    h = _leaf(rng, 3, 4)
    return (lambda: cell(x, h)), {"x": x, "h": h, **leaves_of(cell)}


@register("rnn.GRU_bidirectional", ["repro.nn.rnn.GRU"], max_elements_per_leaf=8)
def _case_gru(rng):
    from repro.nn.rnn import GRU

    gru = to_float64(GRU(4, 3, rng, bidirectional=True))
    x = _leaf(rng, 2, 6, 4)
    mask = np.ones((2, 6), dtype=np.float64)
    mask[0, 4:] = 0.0   # padded tail: final state must ignore it

    def thunk():
        outputs, final = gru(x, mask)
        return outputs + final.expand_dims(1)
    return thunk, {"x": x, **leaves_of(gru)}


# ----------------------------------------------------------------------
# Cases: repro.bert
# ----------------------------------------------------------------------

@register("bert.MultiHeadSelfAttention",
          ["repro.bert.attention.MultiHeadSelfAttention"],
          max_elements_per_leaf=8)
def _case_attention(rng):
    from repro.bert.attention import MultiHeadSelfAttention

    attn = to_float64(MultiHeadSelfAttention(_tiny_config(), rng))
    attn.eval()
    hidden = _leaf(rng, 2, 6, _HIDDEN)
    mask = np.ones((2, 6), dtype=np.float32)
    mask[1, 4:] = 0.0
    return (lambda: attn(hidden, mask)[0]), {"hidden": hidden, **leaves_of(attn)}


@register("bert.TransformerLayer", ["repro.bert.encoder.TransformerLayer"],
          max_elements_per_leaf=6)
def _case_transformer_layer(rng):
    from repro.bert.encoder import TransformerLayer

    layer = to_float64(TransformerLayer(_tiny_config(), rng))
    layer.eval()
    hidden = _leaf(rng, 2, 6, _HIDDEN)
    mask = np.ones((2, 6), dtype=np.float32)
    mask[0, 5:] = 0.0
    return (lambda: layer(hidden, mask)[0]), {"hidden": hidden, **leaves_of(layer)}


@register("bert.BertEncoder", ["repro.bert.encoder.BertEncoder"],
          max_elements_per_leaf=4, heavy=True)
def _case_bert_encoder(rng):
    from repro.bert.encoder import BertEncoder

    encoder = to_float64(BertEncoder(_tiny_config(), rng))
    encoder.eval()
    hidden = _leaf(rng, 2, 6, _HIDDEN)
    mask = np.ones((2, 6), dtype=np.float32)
    mask[1, 3:] = 0.0
    return (lambda: encoder(hidden, mask)[0]), {"hidden": hidden,
                                                **leaves_of(encoder)}


@register("bert.BertEmbeddings", ["repro.bert.embeddings.BertEmbeddings"],
          max_elements_per_leaf=8)
def _case_bert_embeddings(rng):
    from repro.bert.embeddings import BertEmbeddings

    emb = to_float64(BertEmbeddings(_tiny_config(), rng))
    emb.eval()
    batch = _tiny_batch(rng)
    return (lambda: emb(batch.input_ids, batch.segment_ids)), leaves_of(emb)


@register("bert.BertModel", ["repro.bert.model.BertModel"],
          max_elements_per_leaf=4, heavy=True)
def _case_bert_model(rng):
    from repro.bert.model import BertModel

    model = to_float64(BertModel(_tiny_config(), rng))
    model.eval()
    batch = _tiny_batch(rng)

    def thunk():
        out = model(batch.input_ids, batch.attention_mask, batch.segment_ids)
        return out.pooled + out.sequence.mean(axis=1)
    return thunk, leaves_of(model)


@register("bert.BertForMaskedLM", ["repro.bert.mlm.BertForMaskedLM"],
          max_elements_per_leaf=4, heavy=True)
def _case_mlm(rng):
    from repro.bert.mlm import BertForMaskedLM

    model = to_float64(BertForMaskedLM(_tiny_config(), rng))
    model.eval()
    batch = _tiny_batch(rng)
    return (lambda: model(batch.input_ids, batch.attention_mask,
                          batch.segment_ids)), leaves_of(model)


# ----------------------------------------------------------------------
# Cases: repro.fasttext
# ----------------------------------------------------------------------

@register("fasttext.FastTextEmbeddings",
          ["repro.fasttext.model.FastTextEmbeddings"], max_elements_per_leaf=8)
def _case_ft_embeddings(rng):
    from repro.fasttext.model import FastTextEmbeddings
    from repro.text.subword import SubwordHasher

    emb = to_float64(FastTextEmbeddings(_tiny_vocab(), SubwordHasher(num_buckets=64),
                                        6, rng))
    ids = rng.integers(0, _VOCAB_SIZE, size=(2, 5))
    return (lambda: emb(ids)), leaves_of(emb)


@register("fasttext.FastTextEncoder", ["repro.fasttext.model.FastTextEncoder"],
          max_elements_per_leaf=6)
def _case_ft_encoder(rng):
    from repro.fasttext.model import FastTextEncoder
    from repro.text.subword import SubwordHasher

    encoder = to_float64(FastTextEncoder(_tiny_vocab(), SubwordHasher(num_buckets=64),
                                         6, rng))
    encoder.eval()
    batch = _tiny_batch(rng)

    def thunk():
        out = encoder(batch.input_ids, batch.attention_mask, batch.segment_ids)
        return out.pooled + out.sequence.mean(axis=1)
    return thunk, leaves_of(encoder)


# ----------------------------------------------------------------------
# Cases: repro.models building blocks
# ----------------------------------------------------------------------

@register("models.AttentionOverAttention", ["repro.models.aoa.AttentionOverAttention"])
def _case_aoa(rng):
    from repro.models.aoa import AttentionOverAttention

    aoa = AttentionOverAttention(masked=True)
    sequence = _leaf(rng, 3, 10, _HIDDEN)
    mask1, mask2 = _span_masks(rng, 3, 10)
    return (lambda: aoa(sequence, mask1, mask2)[0]), {"sequence": sequence}


@register("models.AttentionOverAttention_unmasked",
          ["repro.models.aoa.AttentionOverAttention"])
def _case_aoa_unmasked(rng):
    from repro.models.aoa import AttentionOverAttention

    aoa = AttentionOverAttention(masked=False)
    sequence = _leaf(rng, 2, 8, _HIDDEN)
    mask1, mask2 = _span_masks(rng, 2, 8)
    return (lambda: aoa(sequence, mask1, mask2)[0]), {"sequence": sequence}


@register("models.BinaryHead", ["repro.models.heads.BinaryHead"])
def _case_binary_head(rng):
    from repro.models.heads import BinaryHead

    head = to_float64(BinaryHead(_HIDDEN, rng))
    x = _leaf(rng, 4, _HIDDEN)
    return (lambda: head(x)), {"x": x, **leaves_of(head)}


@register("models.ClassHead", ["repro.models.heads.ClassHead"])
def _case_class_head(rng):
    from repro.models.heads import ClassHead

    head = to_float64(ClassHead(_HIDDEN, 3, rng))
    x = _leaf(rng, 4, _HIDDEN)
    return (lambda: head(x)), {"x": x, **leaves_of(head)}


@register("models.TokenAggregationHead",
          ["repro.models.heads.TokenAggregationHead"])
def _case_token_agg_head(rng):
    from repro.models.heads import TokenAggregationHead

    head = to_float64(TokenAggregationHead(_HIDDEN, 3, rng))
    sequence = _leaf(rng, 3, 9, _HIDDEN)
    mask, _ = _span_masks(rng, 3, 9)
    return (lambda: head(sequence, mask)), {"sequence": sequence,
                                            **leaves_of(head)}


@register("models.MeanTokenHead", ["repro.models.heads.MeanTokenHead"])
def _case_mean_token_head(rng):
    from repro.models.heads import MeanTokenHead

    head = to_float64(MeanTokenHead(_HIDDEN, 3, rng))
    sequence = _leaf(rng, 3, 9, _HIDDEN)
    mask, _ = _span_masks(rng, 3, 9)
    return (lambda: head(sequence, mask)), {"sequence": sequence,
                                            **leaves_of(head)}


@register("models.SurfConMatcher", ["repro.models.surfcon.SurfConMatcher"],
          max_elements_per_leaf=8)
def _case_surfcon(rng):
    from repro.models.surfcon import SurfConMatcher

    matcher = to_float64(SurfConMatcher(_HIDDEN, rng))
    sequence = _leaf(rng, 2, 9, _HIDDEN)
    mask1, mask2 = _span_masks(rng, 2, 9)
    return (lambda: matcher(sequence, mask1, mask2)), {"sequence": sequence,
                                                       **leaves_of(matcher)}


@register("models.AttentionPool", ["repro.models.deepmatcher._AttentionPool"])
def _case_attention_pool(rng):
    from repro.models.deepmatcher import _AttentionPool

    pool = to_float64(_AttentionPool(_HIDDEN, rng))
    states = _leaf(rng, 3, 7, _HIDDEN)
    mask = np.zeros((3, 7), dtype=np.float32)
    mask[:, :5] = 1.0
    return (lambda: pool(states, mask)), {"states": states, **leaves_of(pool)}


# ----------------------------------------------------------------------
# Cases: full EM models (multi-task losses included), via model.loss
# ----------------------------------------------------------------------

def _register_model(name: str, target: str, factory, **kw):
    register(name, [target], max_elements_per_leaf=6, heavy=True, **kw)(
        _model_case(factory))


def _emba_factory(masked: bool = True):
    def factory(rng):
        from repro.models import Emba

        return Emba(_bert_encoder_factory(rng), _HIDDEN, 3, rng,
                    masked_aoa=masked)
    return factory


def _simple_factory(cls_name: str):
    def factory(rng):
        import repro.models as models

        cls = getattr(models, cls_name)
        return cls(_bert_encoder_factory(rng), _HIDDEN, 3, rng)
    return factory


def _vocab_model_factory(cls_name: str):
    def factory(rng):
        import repro.models as models

        cls = getattr(models, cls_name)
        return cls(_bert_encoder_factory(rng), _HIDDEN, _tiny_vocab(), rng)
    return factory


def _single_task_factory(rng):
    from repro.models import SingleTaskMatcher

    return SingleTaskMatcher(_bert_encoder_factory(rng), _HIDDEN, rng)


def _deepmatcher_factory(rng):
    from repro.models import DeepMatcher

    return DeepMatcher(_VOCAB_SIZE, rng, embed_dim=6, hidden=4, pos_weight=1.5)


_register_model("models.Emba", "repro.models.emba.Emba", _emba_factory(True))
_register_model("models.EmbaDual", "repro.models.emba_dual.EmbaDual",
                _simple_factory("EmbaDual"))
_register_model("models.EmbaCls", "repro.models.emba.EmbaCls",
                _simple_factory("EmbaCls"))
_register_model("models.EmbaSurfCon", "repro.models.emba.EmbaSurfCon",
                _simple_factory("EmbaSurfCon"))
_register_model("models.JointBert", "repro.models.jointbert.JointBert",
                _simple_factory("JointBert"))
_register_model("models.JointBertS", "repro.models.jointbert.JointBertS",
                _simple_factory("JointBertS"))
_register_model("models.JointBertT", "repro.models.jointbert.JointBertT",
                _simple_factory("JointBertT"))
_register_model("models.JointBertCT", "repro.models.jointbert.JointBertCT",
                _simple_factory("JointBertCT"))
_register_model("models.SingleTaskMatcher",
                "repro.models.single_task.SingleTaskMatcher",
                _single_task_factory)
_register_model("models.Ditto", "repro.models.ditto.Ditto",
                _vocab_model_factory("Ditto"))
_register_model("models.JointMatcher", "repro.models.jointmatcher.JointMatcher",
                _vocab_model_factory("JointMatcher"))
_register_model("models.DeepMatcher", "repro.models.deepmatcher.DeepMatcher",
                _deepmatcher_factory)
