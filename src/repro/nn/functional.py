"""Neural-network functional ops built on :class:`repro.nn.tensor.Tensor`.

Each op either composes differentiable Tensor primitives or registers a
custom backward closure, for numerical stability (softmax, log-softmax,
layer norm, GELU) or to keep the tape short (linear).  All ops are
gradient-checked in ``tests/test_nn_functional``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis`` with a fused backward."""
    # Shift, exponentiate and normalise in one buffer.
    out = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # dL/dx = s * (g - sum(g * s))
            inner = (grad * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (grad - inner))

    return x._make_child(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax with a fused backward."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    softmax_out = np.exp(out)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - softmax_out * grad.sum(axis=axis, keepdims=True))

    return x._make_child(out.astype(x.dtype), (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT)."""
    # The cube is two multiplies, not ``x ** 3``: for float32 numpy calls
    # libm ``powf`` per element, about 70x slower, with libm-dependent
    # rounding.  The cube may overflow to inf at extreme |x|; tanh
    # saturates it to +/-1 and the output correctly degenerates to x (or
    # 0), so only silence the spurious warning rather than clamp.
    # The inner polynomial is built in one buffer, in the order
    # ``c * (x + 0.044715 * x*x*x)``; ``0.5 * x`` comes first in the
    # output because ``x * (1 + tanh)`` would overflow near float32 max.
    with np.errstate(over="ignore"):
        inner = x.data * x.data
        inner *= x.data
        inner *= 0.044715
        inner += x.data
        inner *= _SQRT_2_OVER_PI
    tanh_inner = np.tanh(inner, out=inner)
    out = 0.5 * x.data
    out *= 1.0 + tanh_inner

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            sech2 = 1.0 - tanh_inner * tanh_inner
            # At large |x|, d_inner overflows to inf while sech2 saturates
            # to exactly 0 (tanh saturates long before x*x overflows), and
            # 0 * inf would poison the gradient with NaN.  The true limit
            # of sech2 * d_inner is 0: sech^2 decays double-exponentially.
            with np.errstate(over="ignore", invalid="ignore"):
                d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x.data * x.data)
                tail = np.where(sech2 == 0.0, 0.0, sech2 * d_inner)
            x._accumulate(grad * (0.5 * (1.0 + tanh_inner) + 0.5 * x.data * tail))

    return x._make_child(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine transform.

    Implemented with a fused backward for the normalization itself; the
    affine part composes ordinary Tensor ops so ``weight``/``bias`` get
    their gradients through the tape.
    """
    mean = x.data.mean(axis=-1, keepdims=True)
    normalized = x.data - mean
    var = (normalized * normalized).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized *= inv_std

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            n = x.shape[-1]
            g_sum = grad.sum(axis=-1, keepdims=True)
            gx_sum = (grad * normalized).sum(axis=-1, keepdims=True)
            x._accumulate(inv_std * (grad - g_sum / n - normalized * gx_sum / n))

    norm = x._make_child(normalized, (x,), backward)
    return norm * weight + bias


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)`` at train time."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` at integer ``indices`` (scatter-add backward)."""
    indices = np.asarray(indices)
    data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            full = np.zeros_like(weight.data)
            np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.shape[-1]))
            weight._accumulate(full)

    return weight._make_child(data, (weight,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is true with ``value`` (no grad there)."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, np.asarray(value, dtype=x.dtype), x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.where(mask, 0.0, grad).astype(x.dtype))

    return x._make_child(data.astype(x.dtype), (x,), backward)


def attention_mask_bias(mask: np.ndarray, dtype=np.float32, neg: float = -1e9) -> np.ndarray:
    """Convert a boolean keep-mask (1 = attend) into an additive bias array."""
    mask = np.asarray(mask)
    return np.where(mask.astype(bool), 0.0, neg).astype(dtype)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout).

    One tape node whose backward computes the same products as
    ``x.matmul(weight.transpose()) + bias`` would, so outputs and
    gradients equal that composition bit for bit (pinned in
    ``tests/test_nn_functional.py``).  Only the order in which one
    weight's gradients are summed can differ, when that weight is applied
    three or more times in a direct chain of its own outputs.  The matmul
    stays batched for 3-D input: as one 2-D GEMM, BLAS would pick its
    kernel by row count, so a row's result would depend on its batch.
    """
    out = x.data @ weight.data.T
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data)
        if weight.requires_grad:
            if x.ndim == 1:
                grad_w = np.outer(grad, x.data)
            else:
                grad_w = _unbroadcast(np.swapaxes(x.data, -1, -2) @ grad,
                                      weight.shape[::-1]).T
            weight._accumulate(grad_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))

    return x._make_child(out, parents, backward)


def mean_pool(x: Tensor, mask: np.ndarray, axis: int = 1, eps: float = 1e-9) -> Tensor:
    """Masked mean over ``axis``: the average of rows where mask == 1.

    ``mask`` has shape ``x.shape[:axis+1]`` (e.g. ``(batch, seq)`` for
    ``(batch, seq, hidden)`` input).
    """
    mask = np.asarray(mask, dtype=x.dtype.type)
    expanded = Tensor(np.expand_dims(mask, -1))
    summed = (x * expanded).sum(axis=axis)
    counts = Tensor(np.maximum(mask.sum(axis=axis, keepdims=True), eps))
    return summed / counts
