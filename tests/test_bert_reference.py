"""Transformer-layer correctness against manual reference computations."""

import math

import numpy as np

from repro.bert.attention import MultiHeadSelfAttention
from repro.bert.config import BertConfig
from repro.nn import functional as F
from repro.nn.tensor import Tensor

CFG = BertConfig(vocab_size=32, hidden_size=8, num_layers=1, num_heads=2,
                 intermediate_size=16, max_position=16, dropout=0.0,
                 attention_dropout=0.0)


def manual_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads, mask):
    """Loop-based multi-head attention (per head, per batch row)."""
    batch, seq, hidden = x.shape
    head_dim = hidden // num_heads
    q = x @ wq.T + bq
    k = x @ wk.T + bk
    v = x @ wv.T + bv
    out = np.zeros_like(x)
    for b in range(batch):
        heads = []
        for h in range(num_heads):
            sl = slice(h * head_dim, (h + 1) * head_dim)
            scores = q[b, :, sl] @ k[b, :, sl].T / math.sqrt(head_dim)
            scores = np.where(mask[b][None, :] > 0, scores, -1e9)
            probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs = probs / probs.sum(axis=-1, keepdims=True)
            heads.append(probs @ v[b, :, sl])
        out[b] = np.concatenate(heads, axis=-1)
    return out @ wo.T + bo


def test_attention_matches_manual():
    rng = np.random.default_rng(0)
    attn = MultiHeadSelfAttention(CFG, np.random.default_rng(1))
    attn.eval()
    x = rng.normal(size=(2, 5, 8)).astype(np.float32)
    mask = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0]], dtype=np.float32)

    out, _ = attn(Tensor(x), mask)
    expected = manual_attention(
        x,
        attn.query.weight.data, attn.query.bias.data,
        attn.key.weight.data, attn.key.bias.data,
        attn.value.weight.data, attn.value.bias.data,
        attn.output.weight.data, attn.output.bias.data,
        CFG.num_heads, mask,
    )
    np.testing.assert_allclose(out.data, expected, atol=1e-4)


def test_gelu_matches_erf_form():
    # The tanh approximation must track the exact erf GELU closely.
    x = np.linspace(-4, 4, 101).astype(np.float32)
    approx = F.gelu(Tensor(x)).data
    erf = np.array([math.erf(v / math.sqrt(2)) for v in x.tolist()])
    exact = 0.5 * x * (1.0 + erf)
    np.testing.assert_allclose(approx, exact, atol=2e-3)


def test_layer_norm_matches_manual():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 8)).astype(np.float32)
    w = rng.normal(size=8).astype(np.float32)
    b = rng.normal(size=8).astype(np.float32)
    out = F.layer_norm(Tensor(x), Tensor(w), Tensor(b), eps=1e-5).data
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expected = (x - mean) / np.sqrt(var + 1e-5) * w + b
    np.testing.assert_allclose(out, expected, atol=1e-5)
