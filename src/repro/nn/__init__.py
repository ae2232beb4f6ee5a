"""repro.nn — a from-scratch reverse-mode autodiff and neural-network framework.

This package replaces PyTorch for the EMBA reproduction.  It provides:

- :class:`~repro.nn.tensor.Tensor`: an ndarray wrapper with a reverse-mode
  autodiff tape (broadcasting-aware binary ops, matmul, reductions,
  shaping, indexing).
- :mod:`~repro.nn.functional`: neural-network ops (softmax, log-softmax,
  layer norm, GELU, dropout, embedding lookup, masking).
- :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter`:
  the layer-composition machinery, plus concrete layers in
  :mod:`~repro.nn.layers` and a GRU in :mod:`~repro.nn.rnn`.
- :mod:`~repro.nn.losses`: binary cross-entropy with logits and
  multi-class cross-entropy (the two losses of EMBA's Eq. 3).
- :mod:`~repro.nn.optim` / :mod:`~repro.nn.schedules`: SGD, Adam, and the
  paper's linearly-decaying learning rate with warmup.
- :mod:`~repro.nn.serialization`: npz state-dict persistence.

All tensors are numpy ``float32`` by default; tests that gradient-check
against finite differences switch to ``float64`` via the ``dtype``
argument accepted throughout.
"""

from repro.nn import functional
from repro.nn.init import xavier_uniform_
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Sequential
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    nll_loss,
)
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm_
from repro.nn.random import RandomState, seed_all
from repro.nn.rnn import GRU, GRUCell
from repro.nn.schedules import LinearWarmupDecay
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.tensor import Tensor, no_grad, tensor

__all__ = [
    "Adam",
    "Dropout",
    "Embedding",
    "GRU",
    "GRUCell",
    "LayerNorm",
    "Linear",
    "LinearWarmupDecay",
    "Module",
    "Parameter",
    "RandomState",
    "SGD",
    "Sequential",
    "Tensor",
    "binary_cross_entropy_with_logits",
    "clip_grad_norm_",
    "cross_entropy",
    "functional",
    "load_state_dict",
    "nll_loss",
    "no_grad",
    "save_state_dict",
    "seed_all",
    "tensor",
    "xavier_uniform_",
]
