"""Reverse-mode autodiff tensor.

The :class:`Tensor` class wraps a numpy ndarray and records a tape of
operations so that :meth:`Tensor.backward` can propagate gradients with a
single reverse topological sweep.  The design follows the define-by-run
style of PyTorch: every op allocates a result tensor whose ``_backward``
closure knows how to push the result's gradient into its parents.

Only the ops needed by the EMBA reproduction are implemented, but each is
implemented fully (broadcasting, batched matmul, fancy indexing with
repeated indices, etc.) and is gradient-checked in the test suite.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether ops currently record onto the autodiff tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    Numpy broadcasting prepends singleton axes and stretches size-1 axes;
    the adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected array-like, got Tensor; unwrap with .data")
    return np.asarray(value, dtype=dtype)


class Tensor:
    """An ndarray with an autodiff tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``dtype`` (default float32).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "_grad_owned")

    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Tape helpers
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        """Create an op result wired into the tape when grad is enabled."""
        tracked = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = tracked
        out.grad = None
        out.name = None
        out._grad_owned = False
        if tracked:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = grad.astype(self.data.dtype, copy=False)
        if self.grad is None:
            # An op result borrows a C-contiguous gradient (nothing writes
            # into a borrowed array).  A strided one is copied to C order:
            # over another memory layout numpy's reductions sum in another
            # order, which would change the gradients' bits.
            self._grad_owned = self._backward is None or not grad.flags.c_contiguous
            self.grad = grad.copy() if self._grad_owned else grad
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (scalar outputs may omit it).

        Gradient ownership: a leaf (a tensor no op produced, such as a
        parameter) copies its first contribution, so its ``.grad`` never
        aliases an array the caller or an op still holds.  An op result
        borrows a C-contiguous contribution without copying and allocates
        its own array when a second contribution arrives.  Each op
        result's ``.grad`` is released (set to ``None``) once its backward
        has run, so after this call only leaves hold gradients, and
        calling ``backward()`` again on the same graph accumulates into
        the leaves exactly once more.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} does not match tensor shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.data.dtype)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make_child(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make_child(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return self._make_child(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make_child(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data * other.data), other.shape)
                )

        return self._make_child(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(log(x) * y)")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise transcendental
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return self._make_child(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make_child(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / data)

        return self._make_child(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data * data))

        return self._make_child(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        data = np.empty_like(self.data)
        positive = self.data >= 0
        data[positive] = 1.0 / (1.0 + np.exp(-self.data[positive]))
        exp_x = np.exp(self.data[~positive])
        data[~positive] = exp_x / (1.0 + exp_x)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return self._make_child(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0).astype(self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_child(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return self._make_child(np.asarray(data, dtype=self.data.dtype), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                d = np.expand_dims(d, axis=axis)
            mask = (self.data == d).astype(self.data.dtype)
            # Split gradient equally between ties (matches subgradient choice).
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            self._accumulate(mask * g / counts)

        return self._make_child(np.asarray(data, dtype=self.data.dtype), (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    # (..., n) = (..., n, k?) — handle vector rhs.
                    grad_a = np.expand_dims(grad, -1) * b
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                if a.ndim == 1 and grad_a.ndim > 1:
                    grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
                self._accumulate(_unbroadcast(grad_a, a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.expand_dims(a, -1) * np.expand_dims(grad, -2) if b.ndim > 1 else np.outer(a, grad)
                    if b.ndim == 1:
                        grad_b = a * grad
                else:
                    if b.ndim == 1:
                        grad_b = (np.expand_dims(grad, -1) * a).sum(axis=tuple(range(a.ndim - 1)))
                    else:
                        grad_b = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(np.asarray(grad_b), b.shape))

        return self._make_child(data, (self, other), backward)

    __matmul__ = matmul

    def __rmatmul__(self, other) -> "Tensor":
        return self._coerce(other).matmul(self)

    # ------------------------------------------------------------------
    # Shaping
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make_child(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make_child(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

        return self._make_child(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return self._make_child(np.ascontiguousarray(data), (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.squeeze(grad, axis=axis))

        return self._make_child(data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.expand_dims(grad, axis=axis))

        return self._make_child(data, (self,), backward)

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        data = np.broadcast_to(self.data, shape).copy()
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, original))

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain ndarrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat() requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return tensors[0]._make_child(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack() requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return tensors[0]._make_child(data, tensors, backward)
