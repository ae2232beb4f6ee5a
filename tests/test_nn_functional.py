"""Tests for repro.nn.functional ops (values + gradient checks)."""

import math
import warnings

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.helpers import check_gradient

RNG = np.random.default_rng(11)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 7)))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_invariant_to_shift(self):
        x = RNG.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_stable_for_large_inputs(self):
        out = F.softmax(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-6)

    def test_axis_zero(self):
        x = Tensor(RNG.normal(size=(4, 3)))
        out = F.softmax(x, axis=0)
        np.testing.assert_allclose(out.data.sum(axis=0), np.ones(3), rtol=1e-6)

    def test_gradient(self):
        w = Tensor(RNG.normal(size=(3, 5)), dtype=np.float64)
        check_gradient(lambda x: (F.softmax(x, axis=-1) * w).sum(), (3, 5), RNG)

    def test_gradient_axis0(self):
        w = Tensor(RNG.normal(size=(3, 5)), dtype=np.float64)
        check_gradient(lambda x: (F.softmax(x, axis=0) * w).sum(), (3, 5), RNG)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = RNG.normal(size=(2, 6))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data),
            atol=1e-6,
        )

    def test_gradient(self):
        w = Tensor(RNG.normal(size=(3, 4)), dtype=np.float64)
        check_gradient(lambda x: (F.log_softmax(x, axis=-1) * w).sum(), (3, 4), RNG)


class TestActivations:
    def test_gelu_values(self):
        # GELU(0) = 0; GELU is close to identity for large positive x.
        out = F.gelu(Tensor([0.0, 5.0, -5.0]))
        np.testing.assert_allclose(out.data[0], 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data[1], 5.0, atol=1e-3)
        np.testing.assert_allclose(out.data[2], 0.0, atol=1e-3)
        # Float32 GELU tracks a float64 tanh-GELU reference on a grid.
        x = np.linspace(-10, 10, 4001)
        ref = 0.5 * x * (1.0 + np.tanh(
            np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
        out = F.gelu(Tensor(x.astype(np.float32)))
        assert out.data.dtype == np.float32
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-6)

    def test_gelu_extremes_saturate_without_warnings(self):
        # The float32 cube overflows to +/-inf here; the output must still
        # degenerate to x (or 0) and the overflow must stay silent.
        x = np.array([1e20, -1e20, 3.0e38, -3.0e38], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = F.gelu(Tensor(x)).data
        np.testing.assert_array_equal(out, [x[0], 0.0, x[2], 0.0])

    def test_gelu_gradient(self):
        check_gradient(lambda x: F.gelu(x).sum(), (6,), RNG)

    def test_relu_tanh_sigmoid_aliases(self):
        x = Tensor([0.5, -0.5])
        np.testing.assert_allclose(F.relu(x).data, [0.5, 0.0])
        np.testing.assert_allclose(F.tanh(x).data, np.tanh([0.5, -0.5]), rtol=1e-6)
        np.testing.assert_allclose(
            F.sigmoid(x).data, 1 / (1 + np.exp([-0.5, 0.5])), rtol=1e-6
        )


class TestLayerNorm:
    def test_output_statistics(self):
        x = Tensor(RNG.normal(2.0, 3.0, size=(4, 8)))
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = F.layer_norm(x, w, b).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)

    def test_affine_applied(self):
        x = Tensor(RNG.normal(size=(2, 4)))
        w = Tensor(np.full(4, 2.0))
        b = Tensor(np.full(4, 1.0))
        plain = F.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        scaled = F.layer_norm(x, w, b).data
        np.testing.assert_allclose(scaled, plain * 2.0 + 1.0, atol=1e-6)

    def test_gradient_input(self):
        w = Tensor(RNG.normal(size=(5,)), dtype=np.float64)
        b = Tensor(RNG.normal(size=(5,)), dtype=np.float64)
        coeff = Tensor(RNG.normal(size=(3, 5)), dtype=np.float64)
        check_gradient(lambda x: (F.layer_norm(x, w, b) * coeff).sum(), (3, 5), RNG)

    def test_gradient_weight_and_bias(self):
        x_val = RNG.normal(size=(3, 5))
        coeff = Tensor(RNG.normal(size=(3, 5)), dtype=np.float64)

        def via_weight(w):
            x = Tensor(x_val, dtype=np.float64)
            b = Tensor(np.zeros(5), dtype=np.float64)
            return (F.layer_norm(x, w, b) * coeff).sum()

        check_gradient(via_weight, (5,), RNG)

        def via_bias(b):
            x = Tensor(x_val, dtype=np.float64)
            w = Tensor(np.ones(5), dtype=np.float64)
            return (F.layer_norm(x, w, b) * coeff).sum()

        check_gradient(via_bias, (5,), RNG)


class TestDropout:
    def test_identity_in_eval(self):
        x = Tensor(RNG.normal(size=(10,)))
        out = F.dropout(x, 0.5, training=False, rng=RNG)
        assert out is x

    def test_identity_for_p_zero(self):
        x = Tensor(RNG.normal(size=(10,)))
        assert F.dropout(x, 0.0, training=True, rng=RNG) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, training=True, rng=RNG)

    def test_mask_zeroes_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones(100), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        dropped = out.data == 0
        assert dropped.any()
        np.testing.assert_allclose(x.grad[dropped], 0.0)


class TestEmbedding:
    def test_lookup_values(self):
        w = Tensor(np.arange(12.0).reshape(4, 3))
        out = F.embedding(w, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_gradient_scatter_add(self):
        w = Tensor(RNG.normal(size=(5, 3)), requires_grad=True, dtype=np.float64)
        idx = np.array([[1, 1], [4, 1]])
        out = F.embedding(w, idx)
        out.sum().backward()
        expected_counts = np.array([0, 3, 0, 0, 1], dtype=np.float64)
        np.testing.assert_allclose(w.grad.sum(axis=1), expected_counts * 3)

    def test_2d_index_shape(self):
        w = Tensor(np.zeros((10, 4)))
        out = F.embedding(w, np.zeros((2, 7), dtype=np.int64))
        assert out.shape == (2, 7, 4)


class TestMasking:
    def test_masked_fill_values(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = F.masked_fill(x, np.array([[True, False], [False, True]]), -9.0)
        np.testing.assert_allclose(out.data, [[-9, 2], [3, -9]])

    def test_masked_fill_gradient_blocked(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True, dtype=np.float64)
        out = F.masked_fill(x, np.array([[True, False]]), 0.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0]])

    def test_attention_mask_bias(self):
        bias = F.attention_mask_bias(np.array([1, 0, 1]))
        np.testing.assert_allclose(bias, [0.0, -1e9, 0.0])


class TestLinearAndPooling:
    def test_linear_matches_manual(self):
        x = Tensor(RNG.normal(size=(2, 3)))
        w = Tensor(RNG.normal(size=(4, 3)))
        b = Tensor(RNG.normal(size=(4,)))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data, rtol=1e-5)

    def test_linear_no_bias(self):
        x = Tensor(np.ones((1, 2)))
        w = Tensor(np.ones((3, 2)))
        np.testing.assert_allclose(F.linear(x, w).data, np.full((1, 3), 2.0))

    def test_mean_pool_respects_mask(self):
        x = Tensor(np.array([[[1.0, 1.0], [3.0, 3.0], [100.0, 100.0]]]))
        mask = np.array([[1, 1, 0]])
        out = F.mean_pool(x, mask)
        np.testing.assert_allclose(out.data, [[2.0, 2.0]])

    def test_mean_pool_gradient(self):
        mask = np.array([[1, 1, 0], [1, 0, 0]])

        def fn(x):
            return (F.mean_pool(x, mask) ** 2).sum()

        check_gradient(fn, (2, 3, 4), RNG)

    def test_mean_pool_all_masked_is_finite(self):
        x = Tensor(np.ones((1, 2, 3)))
        out = F.mean_pool(x, np.zeros((1, 2)))
        assert np.isfinite(out.data).all()


class TestGradcheckAuditRegressions:
    """Edge cases pinned by the verify-subsystem gradcheck audit."""

    def test_gelu_backward_saturates_at_float64_extremes(self):
        # Regression: d_inner overflows to inf while sech^2 underflows to
        # exactly 0, and 0 * inf used to poison the gradient with NaN.
        x = Tensor(np.array([1e200, -1e200, 40.0, -40.0]),
                   requires_grad=True, dtype=np.float64)
        F.gelu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0, 0.0])

    def test_gelu_backward_finite_at_float32_extremes(self):
        x = Tensor(np.array([1e20, -1e20], dtype=np.float32),
                   requires_grad=True)
        F.gelu(x).sum().backward()
        assert np.isfinite(x.grad).all()
        np.testing.assert_allclose(x.grad, [1.0, 0.0])

    def test_tanh_backward_saturates_without_nan(self):
        x = Tensor(np.array([40.0, -40.0, 1e30, -1e30]),
                   requires_grad=True, dtype=np.float64)
        F.tanh(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 0.0, 0.0])

    def test_mean_pool_all_masked_row_zero_output_and_gradient(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True, dtype=np.float64)
        mask = np.array([[0, 0, 0], [1, 1, 0]], dtype=np.float64)
        out = F.mean_pool(x, mask)
        np.testing.assert_allclose(out.data[0], 0.0)   # empty row -> zeros
        out.sum().backward()
        assert np.isfinite(x.grad).all()
        np.testing.assert_allclose(x.grad[0], 0.0)     # and zero gradient
        assert x.grad[1, 0].sum() > 0.0                # live rows still flow

    def test_dropout_p_zero_is_identity(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        assert F.dropout(x, 0.0, True, np.random.default_rng(0)) is x
        assert F.dropout(x, 0.5, False, np.random.default_rng(0)) is x


# The composed float32 formulas that softmax, layer_norm, gelu and linear
# replaced, kept here so the one-buffer rewrites stay bitwise identical.
def _softmax_reference(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        inner = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - inner))

    return x._make_child(out.astype(x.dtype), (x,), backward)


def _layer_norm_reference(x, weight, bias, eps=1e-5):
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv_std

    def backward(grad):
        n = x.shape[-1]
        g_sum = grad.sum(axis=-1, keepdims=True)
        gx_sum = (grad * normalized).sum(axis=-1, keepdims=True)
        x._accumulate(inv_std * (grad - g_sum / n - normalized * gx_sum / n))

    return x._make_child(normalized.astype(x.dtype), (x,), backward) * weight + bias


def _gelu_reference(x):
    c = math.sqrt(2.0 / math.pi)
    x3 = x.data * x.data * x.data
    tanh_inner = np.tanh(c * (x.data + 0.044715 * x3))
    out = 0.5 * x.data * (1.0 + tanh_inner)

    def backward(grad):
        sech2 = 1.0 - tanh_inner * tanh_inner
        d_inner = c * (1.0 + 3 * 0.044715 * x.data * x.data)
        tail = np.where(sech2 == 0.0, 0.0, sech2 * d_inner)
        x._accumulate(grad * (0.5 * (1.0 + tanh_inner) + 0.5 * x.data * tail))

    return x._make_child(out.astype(x.dtype), (x,), backward)


def _linear_reference(x, weight, bias):
    return x.matmul(weight.transpose()) + bias


class TestBitwiseAgainstComposedReference:
    # op -> (rewrite, composed reference, shapes of its parameter leaves)
    CASES = {
        "softmax": (F.softmax, _softmax_reference, []),
        "layer_norm": (F.layer_norm, _layer_norm_reference, [(64,), (64,)]),
        "gelu": (F.gelu, _gelu_reference, []),
        "linear": (F.linear, _linear_reference, [(16, 64), (16,)]),
    }

    @pytest.mark.parametrize("shape", [(4, 54, 64), (16, 64)], ids=["3d", "2d"])
    @pytest.mark.parametrize("op", sorted(CASES))
    def test_outputs_and_grads_equal(self, op, shape):
        fn, reference, param_shapes = self.CASES[op]
        rng = np.random.default_rng(3)
        inputs = [(rng.normal(size=shape) * 3).astype(np.float32)] + [
            rng.normal(size=s).astype(np.float32) for s in param_shapes]
        upstream = None
        results = []
        for impl in (fn, reference):
            leaves = [Tensor(a, requires_grad=True) for a in inputs]
            out = impl(*leaves)
            if upstream is None:
                upstream = rng.normal(size=out.shape).astype(np.float32)
            out.backward(upstream)
            results.append([out.data] + [leaf.grad for leaf in leaves])
        assert results[0][0].dtype == np.float32
        for got, want in zip(*results):
            assert np.array_equal(got, want)
