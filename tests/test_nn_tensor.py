"""Unit and gradient-check tests for the autodiff Tensor core."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, concat, no_grad, stack, tensor
from tests.helpers import check_gradient

RNG = np.random.default_rng(7)


class TestBasics:
    def test_construction_defaults_to_float32(self):
        t = tensor([1.0, 2.0])
        assert t.dtype == np.float32
        assert t.shape == (2,)
        assert not t.requires_grad

    def test_requires_grad_flag(self):
        t = tensor([1.0], requires_grad=True)
        assert t.requires_grad

    def test_detach_cuts_tape(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_item_scalar(self):
        assert tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_requires_scalar_or_grad(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        out = a * 2
        with pytest.raises(RuntimeError):
            out.backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_shape_mismatch_raises(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        out = a * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_no_grad_context(self):
        a = tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad


class TestArithmetic:
    def test_add_values(self):
        out = tensor([1.0, 2.0]) + tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_scalar_coercion(self):
        out = 2.0 + tensor([1.0]) * 3.0 - 1.0
        np.testing.assert_allclose(out.data, [4.0])

    def test_gradient_accumulates_across_uses(self):
        a = tensor([2.0], requires_grad=True)
        out = a * a + a  # d/da = 2a + 1 = 5
        out.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [5.0])

    def test_add_grad(self):
        check_gradient(lambda x: (x + x * 3).sum(), (4, 3), RNG)

    def test_sub_grad(self):
        check_gradient(lambda x: (x - x * 0.5).sum(), (5,), RNG)

    def test_mul_broadcast_grad(self):
        other = Tensor(RNG.uniform(-1, 1, size=(1, 3)), dtype=np.float64)
        check_gradient(lambda x: (x * other).sum(), (4, 3), RNG)

    def test_div_grad(self):
        check_gradient(lambda x: (1.0 / (x + 3.0)).sum(), (4,), RNG)

    def test_pow_grad(self):
        check_gradient(lambda x: (x ** 3).sum(), (4,), RNG)

    def test_neg_grad(self):
        check_gradient(lambda x: (-x).sum(), (4,), RNG)

    def test_rsub_rdiv(self):
        a = tensor([2.0], requires_grad=True, dtype=np.float64)
        out = (10.0 - a) / a  # = 10/a - 1; d/da = -10/a^2 = -2.5
        out.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [-2.5])


class TestBroadcastingGradients:
    def test_broadcast_add_row(self):
        row = Tensor(RNG.uniform(-1, 1, size=(3,)), dtype=np.float64)
        check_gradient(lambda x: (x + row).sum(), (4, 3), RNG)

    def test_broadcast_into_param(self):
        # The small tensor is the differentiated one.
        big = Tensor(RNG.uniform(-1, 1, size=(4, 3)), dtype=np.float64)
        check_gradient(lambda x: (big * x).sum(), (3,), RNG)

    def test_broadcast_keepdim_axis(self):
        big = Tensor(RNG.uniform(-1, 1, size=(4, 3)), dtype=np.float64)
        check_gradient(lambda x: (big + x).sum(), (4, 1), RNG)


class TestTranscendental:
    def test_exp_grad(self):
        check_gradient(lambda x: x.exp().sum(), (4,), RNG)

    def test_log_grad(self):
        check_gradient(lambda x: x.log().sum(), (4,), RNG, low=0.5, high=2.0)

    def test_sqrt_grad(self):
        check_gradient(lambda x: x.sqrt().sum(), (4,), RNG, low=0.5, high=2.0)

    def test_tanh_grad(self):
        check_gradient(lambda x: x.tanh().sum(), (4,), RNG)

    def test_sigmoid_grad(self):
        check_gradient(lambda x: x.sigmoid().sum(), (4,), RNG)

    def test_sigmoid_extreme_values_stable(self):
        out = tensor([500.0, -500.0]).sigmoid()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_relu_grad(self):
        # Avoid the kink at zero.
        check_gradient(lambda x: x.relu().sum(), (6,), RNG, low=0.1, high=1.0)
        check_gradient(lambda x: x.relu().sum(), (6,), RNG, low=-1.0, high=-0.1)

    def test_abs_grad(self):
        check_gradient(lambda x: x.abs().sum(), (5,), RNG, low=0.2, high=1.0)


class TestReductions:
    def test_sum_axis_values(self):
        t = tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(t.sum(axis=0).data, [4.0, 6.0])
        np.testing.assert_allclose(t.sum(axis=1, keepdims=True).data, [[3.0], [7.0]])

    def test_sum_grad(self):
        check_gradient(lambda x: (x.sum(axis=1) ** 2).sum(), (3, 4), RNG)

    def test_sum_keepdims_grad(self):
        check_gradient(lambda x: (x.sum(axis=0, keepdims=True) ** 2).sum(), (3, 4), RNG)

    def test_mean_grad(self):
        check_gradient(lambda x: (x.mean(axis=1) ** 2).sum(), (3, 4), RNG)

    def test_mean_all_grad(self):
        check_gradient(lambda x: x.mean(), (3, 4), RNG)

    def test_max_grad_unique(self):
        values = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        x = Tensor(values, requires_grad=True, dtype=np.float64)
        x.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=np.float64)
        np.testing.assert_allclose(x.grad, expected)

    def test_max_grad_ties_split(self):
        values = np.array([[2.0, 2.0]])
        x = Tensor(values, requires_grad=True, dtype=np.float64)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestMatmul:
    def test_matmul_values(self):
        a = tensor([[1.0, 2.0]])
        b = tensor([[3.0], [4.0]])
        np.testing.assert_allclose((a @ b).data, [[11.0]])

    def test_matmul_grad_2d(self):
        b = Tensor(RNG.uniform(-1, 1, size=(4, 2)), dtype=np.float64)
        check_gradient(lambda x: (x @ b).sum(), (3, 4), RNG)

    def test_matmul_grad_rhs(self):
        a = Tensor(RNG.uniform(-1, 1, size=(3, 4)), dtype=np.float64)
        check_gradient(lambda x: (a @ x).sum(), (4, 2), RNG)

    def test_matmul_grad_batched(self):
        b = Tensor(RNG.uniform(-1, 1, size=(2, 4, 3)), dtype=np.float64)
        check_gradient(lambda x: (x @ b).sum(), (2, 5, 4), RNG)

    def test_matmul_grad_batched_rhs(self):
        a = Tensor(RNG.uniform(-1, 1, size=(2, 5, 4)), dtype=np.float64)
        check_gradient(lambda x: (a @ x).sum(), (2, 4, 3), RNG)

    def test_matmul_broadcast_batch(self):
        # Batched lhs against unbatched rhs.
        b = Tensor(RNG.uniform(-1, 1, size=(4, 3)), dtype=np.float64)
        check_gradient(lambda x: (x @ b).sum(), (2, 5, 4), RNG)
        a = Tensor(RNG.uniform(-1, 1, size=(2, 5, 4)), dtype=np.float64)
        check_gradient(lambda x: (a @ x).sum(), (4, 3), RNG)

    def test_matvec_grad(self):
        v = Tensor(RNG.uniform(-1, 1, size=(4,)), dtype=np.float64)
        check_gradient(lambda x: (x @ v).sum(), (3, 4), RNG)

    def test_vecmat_grad(self):
        m = Tensor(RNG.uniform(-1, 1, size=(4, 3)), dtype=np.float64)
        check_gradient(lambda x: (x @ m).sum(), (4,), RNG)

    def test_vec_rhs_of_matrix_grad(self):
        a = Tensor(RNG.uniform(-1, 1, size=(3, 4)), dtype=np.float64)
        check_gradient(lambda x: (a @ x).sum(), (4,), RNG)


class TestShaping:
    def test_reshape_grad(self):
        check_gradient(lambda x: (x.reshape(2, 6) ** 2).sum(), (3, 4), RNG)

    def test_reshape_tuple_arg(self):
        t = tensor(np.arange(6.0))
        assert t.reshape((2, 3)).shape == (2, 3)

    def test_transpose_grad(self):
        check_gradient(lambda x: (x.transpose() ** 2).sum(), (3, 4), RNG)

    def test_transpose_axes_grad(self):
        check_gradient(lambda x: (x.transpose(1, 0, 2) ** 2).sum(), (2, 3, 4), RNG)

    def test_swapaxes_grad(self):
        check_gradient(lambda x: (x.swapaxes(0, 1) ** 2).sum(), (2, 3), RNG)

    def test_getitem_slice_grad(self):
        check_gradient(lambda x: (x[1:, :2] ** 2).sum(), (3, 4), RNG)

    def test_getitem_fancy_repeated_indices(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, dtype=np.float64)
        picked = x[np.array([0, 0, 2])]
        picked.sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_expand_squeeze_grad(self):
        check_gradient(lambda x: (x.expand_dims(1).squeeze(1) ** 2).sum(), (3,), RNG)

    def test_broadcast_to_grad(self):
        check_gradient(lambda x: (x.broadcast_to((4, 3)) ** 2).sum(), (1, 3), RNG)


class TestConcatStack:
    def test_concat_values(self):
        out = concat([tensor([1.0]), tensor([2.0, 3.0])])
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])

    def test_concat_grad(self):
        def fn(x):
            other = Tensor(np.ones((2, 3)), dtype=np.float64)
            return (concat([x, other], axis=0) ** 2).sum()

        check_gradient(fn, (2, 3), RNG)

    def test_concat_axis1_grad(self):
        def fn(x):
            other = Tensor(np.ones((2, 2)), dtype=np.float64)
            return (concat([other, x], axis=1) ** 2).sum()

        check_gradient(fn, (2, 3), RNG)

    def test_stack_grad(self):
        def fn(x):
            other = Tensor(np.ones(3), dtype=np.float64)
            return (stack([x, other], axis=0) ** 2).sum()

        check_gradient(fn, (3,), RNG)

    def test_stack_axis1_values(self):
        out = stack([tensor([1.0, 2.0]), tensor([3.0, 4.0])], axis=1)
        np.testing.assert_allclose(out.data, [[1.0, 3.0], [2.0, 4.0]])


class TestGraphTopology:
    def test_diamond_graph(self):
        # x feeds two paths that merge; gradient must sum both paths.
        x = tensor([3.0], requires_grad=True, dtype=np.float64)
        a = x * 2
        b = x * 5
        out = (a + b).sum()  # d/dx = 7
        out.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deep_chain(self):
        x = tensor([1.0], requires_grad=True, dtype=np.float64)
        y = x
        for _ in range(50):
            y = y * 1.01
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.01 ** 50], rtol=1e-10)

    def test_zero_grad(self):
        x = tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_second_backward_adds_one_more_gradient(self):
        # Each sweep must start from empty intermediate grads; a stale one
        # left by the first sweep would be pushed down again (30, not 12).
        x = tensor([1.0], requires_grad=True)
        mid = x * 2
        out = (mid * 3).sum()
        out.backward()
        out.backward()
        np.testing.assert_array_equal(x.grad, [12.0])
        assert mid.grad is None and out.grad is None

    def test_leaf_grad_does_not_alias_caller_grad(self):
        w = tensor([1.0, 2.0], requires_grad=True)
        g = np.array([1.0, 1.0], dtype=np.float32)
        (w + 0).backward(g)
        g *= 5.0
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])

    def test_shared_gradient_array_is_not_written_in_place(self):
        # The final ``u + h`` hands one array to both u and h; u's backward
        # hands it on to h (its second contribution) and then to w.  h
        # must not add into that array in place, or w receives 2g.
        x = tensor([1.0], requires_grad=True, dtype=np.float64)
        h = x * 2
        w = x * 3
        u = h + w
        (u + h).sum().backward()     # d/dx = 2 + 3 + 2
        np.testing.assert_array_equal(x.grad, [7.0])


def _copying_accumulate(self, grad):
    """Reference accumulation: every first contribution is copied."""
    grad = grad.astype(self.data.dtype, copy=False)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad += grad


class TestGradientOwnership:
    """Borrowing op-result gradients must leave every bit unchanged."""

    @pytest.fixture(scope="class")
    def emba_step(self):
        from repro.bert.config import PRESETS
        from repro.bert.model import BertModel
        from repro.data.loader import PairEncoder, collate
        from repro.data.registry import load_dataset
        from repro.models import Emba
        from repro.text import WordPieceTokenizer, train_wordpiece

        ds = load_dataset("wdc_computers", size="small", seed=0)
        texts = [r.text() for p in ds.train for r in (p.record1, p.record2)]
        tokenizer = WordPieceTokenizer(train_wordpiece(texts, vocab_size=500))
        config = PRESETS["mini-base"].with_vocab(len(tokenizer.vocab))
        encoder = PairEncoder(tokenizer, max_length=96)
        batch = collate(encoder.encode_many(ds.train, ds)[:16])

        def grads():
            model = Emba(BertModel(config, np.random.default_rng(0)),
                         config.hidden_size, max(ds.num_id_classes, 1),
                         np.random.default_rng(1))
            model.train()
            loss = model.loss(model(batch), batch)
            loss.backward()
            return {name: p.grad for name, p in model.named_parameters()
                    if p.grad is not None}

        return grads

    def test_emba_train_step_grads_bitwise_equal_copying_reference(
            self, emba_step, monkeypatch):
        borrowed = emba_step()
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "_accumulate", _copying_accumulate)
            copied = emba_step()
        assert borrowed.keys() == copied.keys()
        # Every head of Eq. 3's loss is reached; only the unused pooler isn't.
        for head in ("em_head", "id1_head", "id2_head", "encoder.embeddings",
                     "encoder.encoder.layer1"):
            assert any(name.startswith(head) for name in borrowed), head
        differ = [name for name in borrowed
                  if not np.array_equal(borrowed[name], copied[name])]
        assert not differ, f"gradients differ from the copying reference: {differ}"
