"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.imbalance import lrid
from repro.eval.metrics import accuracy, binary_f1
from repro.models.aoa import AttentionOverAttention
from repro.nn import functional as F
from repro.nn.tensor import Tensor

SMALL_FLOATS = st.floats(min_value=-5.0, max_value=5.0,
                         allow_nan=False, allow_infinity=False, width=32)


def arrays(shape):
    return hnp.arrays(np.float32, shape, elements=SMALL_FLOATS)


class TestSoftmaxProperties:
    @given(arrays((3, 6)))
    @settings(max_examples=60, deadline=None)
    def test_softmax_is_distribution(self, data):
        out = F.softmax(Tensor(data), axis=-1).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-4)

    @given(arrays((2, 5)), st.floats(min_value=-50, max_value=50,
                                     allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, data, shift):
        a = F.softmax(Tensor(data)).data
        b = F.softmax(Tensor(data + np.float32(shift))).data
        np.testing.assert_allclose(a, b, atol=1e-4)

    @given(arrays((2, 5)))
    @settings(max_examples=60, deadline=None)
    def test_log_softmax_consistent(self, data):
        log = F.log_softmax(Tensor(data)).data
        soft = F.softmax(Tensor(data)).data
        np.testing.assert_allclose(np.exp(log), soft, atol=1e-4)


class TestLayerNormProperties:
    @given(arrays((4, 8)))
    @settings(max_examples=60, deadline=None)
    def test_normalized_statistics(self, data):
        w = Tensor(np.ones(8, dtype=np.float32))
        b = Tensor(np.zeros(8, dtype=np.float32))
        out = F.layer_norm(Tensor(data), w, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)


class TestAoAProperties:
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_gamma_always_a_distribution(self, m, n, seed):
        rng = np.random.default_rng(seed)
        seq_len = 1 + m + 1 + n + 1
        sequence = Tensor(rng.normal(size=(1, seq_len, 8)).astype(np.float32))
        mask1 = np.zeros((1, seq_len), dtype=np.float32)
        mask2 = np.zeros((1, seq_len), dtype=np.float32)
        mask1[0, 1:1 + m] = 1
        mask2[0, 2 + m:2 + m + n] = 1
        x, gamma = AttentionOverAttention()(sequence, mask1, mask2)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=1e-4)
        np.testing.assert_allclose(gamma * (1 - mask1), 0.0, atol=1e-5)
        assert np.isfinite(x.data).all()

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_output_in_record1_convex_hull_bounds(self, seed):
        # x = gamma^T E1 with gamma a distribution over record1 tokens, so
        # every coordinate lies within record1's coordinate-wise min/max.
        rng = np.random.default_rng(seed)
        sequence = Tensor(rng.normal(size=(1, 10, 4)).astype(np.float32))
        mask1 = np.zeros((1, 10), dtype=np.float32)
        mask2 = np.zeros((1, 10), dtype=np.float32)
        mask1[0, 1:5] = 1
        mask2[0, 6:9] = 1
        x, _ = AttentionOverAttention()(sequence, mask1, mask2)
        span = sequence.data[0, 1:5]
        assert (x.data[0] <= span.max(axis=0) + 1e-5).all()
        assert (x.data[0] >= span.min(axis=0) - 1e-5).all()


class TestMetricProperties:
    @given(hnp.arrays(np.int64, st.integers(1, 60), elements=st.integers(0, 1)),
           st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_f1_symmetry_under_permutation(self, truth, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 2, size=truth.shape)
        order = rng.permutation(len(truth))
        assert binary_f1(truth, preds) == binary_f1(truth[order], preds[order])

    @given(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 4)))
    @settings(max_examples=80, deadline=None)
    def test_perfect_prediction_maxima(self, truth):
        assert accuracy(truth, truth) == 1.0

    @given(st.lists(st.integers(1, 300), min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_lrid_zero_iff_balanced(self, counts):
        balanced = [counts[0]] * len(counts)
        assert abs(lrid(balanced)) < 1e-9
        if len(set(counts)) > 1:
            assert lrid(counts) > 0


class TestTensorProperties:
    @given(arrays((3, 4)), arrays((3, 4)))
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, a, b):
        left = (Tensor(a) + Tensor(b)).data
        right = (Tensor(b) + Tensor(a)).data
        np.testing.assert_array_equal(left, right)

    @given(arrays((2, 3)), arrays((3, 4)), arrays((4, 2)))
    @settings(max_examples=40, deadline=None)
    def test_matmul_associative(self, a, b, c):
        left = ((Tensor(a) @ Tensor(b)) @ Tensor(c)).data
        right = (Tensor(a) @ (Tensor(b) @ Tensor(c))).data
        np.testing.assert_allclose(left, right, atol=1e-2, rtol=1e-2)

    @given(arrays((4, 5)))
    @settings(max_examples=60, deadline=None)
    def test_double_transpose_identity(self, a):
        np.testing.assert_array_equal(Tensor(a).T.T.data, a)

    @given(arrays((6,)))
    @settings(max_examples=60, deadline=None)
    def test_gradient_of_sum_is_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(a))
