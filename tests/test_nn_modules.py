"""Tests for Module machinery, layers, RNN, losses, optimizers, schedules."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Sequential
from repro.nn.losses import binary_cross_entropy_with_logits, cross_entropy, nll_loss
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm_
from repro.nn.rnn import GRU, GRUCell
from repro.nn.schedules import LinearWarmupDecay
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.tensor import Tensor
from tests.helpers import check_gradient

RNG = np.random.default_rng(23)


class TwoLayer(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 8, rng)
        self.fc2 = Linear(8, 2, rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestModule:
    def test_parameter_registration(self):
        model = TwoLayer(RNG)
        names = [n for n, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        model = TwoLayer(RNG)
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5, RNG), Linear(2, 2, RNG))
        model.eval()
        assert all(not m.training for _, m in model.named_modules())
        model.train()
        assert all(m.training for _, m in model.named_modules())

    def test_zero_grad(self):
        model = TwoLayer(RNG)
        out = model(Tensor(np.ones((1, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self):
        a = TwoLayer(np.random.default_rng(1))
        b = TwoLayer(np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_strict_mismatch(self):
        model = TwoLayer(RNG)
        with pytest.raises(KeyError):
            model.load_state_dict({"nope": np.zeros(1)})

    def test_state_dict_shape_mismatch(self):
        model = TwoLayer(RNG)
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_serialization_roundtrip(self, tmp_path):
        a = TwoLayer(np.random.default_rng(1))
        b = TwoLayer(np.random.default_rng(2))
        path = tmp_path / "model.npz"
        save_state_dict(a, path)
        load_state_dict(b, path)
        x = Tensor(RNG.normal(size=(3, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(5, 3, RNG)
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_linear_gradients_flow_to_params(self):
        layer = Linear(3, 2, RNG)
        out = layer(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_embedding_padding_idx_zero_init(self):
        emb = Embedding(10, 4, RNG, padding_idx=0)
        np.testing.assert_array_equal(emb.weight.data[0], np.zeros(4))

    def test_embedding_out_of_range(self):
        emb = Embedding(5, 2, RNG)
        with pytest.raises(IndexError):
            emb(np.array([5]))

    def test_layernorm_forward(self):
        ln = LayerNorm(6)
        out = ln(Tensor(RNG.normal(size=(2, 6))))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(2), atol=1e-5)

    def test_dropout_eval_passthrough(self):
        d = Dropout(0.9, RNG)
        d.eval()
        x = Tensor(np.ones(5))
        assert d(x) is x

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.5, RNG)

    def test_sequential_order(self):
        model = Sequential(Linear(2, 3, RNG), Linear(3, 1, RNG))
        assert len(model) == 2
        assert model(Tensor(np.zeros((4, 2)))).shape == (4, 1)


class TestGRU:
    def test_cell_shapes(self):
        cell = GRUCell(4, 6, RNG)
        h = cell(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 6))))
        assert h.shape == (3, 6)

    def test_unidirectional_shapes(self):
        gru = GRU(4, 6, RNG)
        x = Tensor(RNG.normal(size=(2, 5, 4)))
        mask = np.ones((2, 5))
        outputs, final = gru(x, mask)
        assert outputs.shape == (2, 5, 6)
        assert final.shape == (2, 6)

    def test_bidirectional_shapes(self):
        gru = GRU(4, 6, RNG, bidirectional=True)
        x = Tensor(RNG.normal(size=(2, 5, 4)))
        outputs, final = gru(x, np.ones((2, 5)))
        assert outputs.shape == (2, 5, 12)
        assert final.shape == (2, 12)

    def test_padding_freezes_state(self):
        gru = GRU(3, 4, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(1, 4, 3)))
        mask = np.array([[1, 1, 0, 0]])
        outputs, final = gru(x, mask)
        # Final state must equal the state after the last real token.
        np.testing.assert_allclose(final.data, outputs.data[:, 1, :], atol=1e-6)
        np.testing.assert_allclose(outputs.data[:, 3, :], outputs.data[:, 1, :], atol=1e-6)

    def test_gradients_reach_parameters(self):
        gru = GRU(3, 4, RNG)
        x = Tensor(RNG.normal(size=(2, 3, 3)), requires_grad=True)
        outputs, final = gru(x, np.ones((2, 3)))
        final.sum().backward()
        assert x.grad is not None
        assert gru.forward_cell.gates_x.weight.grad is not None


class TestLosses:
    def test_bce_matches_reference(self):
        logits = Tensor(np.array([0.0, 2.0, -2.0]))
        targets = np.array([0.0, 1.0, 0.0])
        loss = binary_cross_entropy_with_logits(logits, targets)
        x = logits.data
        ref = np.mean(np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x))))
        np.testing.assert_allclose(loss.data, ref, rtol=1e-6)

    def test_bce_extreme_logits_finite(self):
        loss = binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss.data)
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-6)

    def test_bce_gradient(self):
        targets = np.array([1.0, 0.0, 1.0, 0.0])
        check_gradient(
            lambda x: binary_cross_entropy_with_logits(x, targets), (4,), RNG
        )

    def test_bce_pos_weight_gradient(self):
        targets = np.array([1.0, 0.0, 1.0])
        check_gradient(
            lambda x: binary_cross_entropy_with_logits(x, targets, pos_weight=3.0),
            (3,), RNG,
        )

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-6)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = cross_entropy(logits, np.array([0, 3]))
        np.testing.assert_allclose(loss.data, np.log(4.0), rtol=1e-6)

    def test_cross_entropy_gradient(self):
        targets = np.array([2, 0, 1])
        check_gradient(lambda x: cross_entropy(x, targets), (3, 4), RNG)

    def test_nll_loss_shape_validation(self):
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([0]))


class TestOptim:
    def test_sgd_decreases_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_sgd_momentum_faster_on_ravine(self):
        def run(momentum):
            p = Parameter(np.array([5.0, 5.0]))
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                loss = (p * p * Tensor(np.array([1.0, 0.05]))).sum()
                loss.backward()
                opt.step()
            return float(np.abs(p.data).sum())

        assert run(0.9) < run(0.0)

    def test_adam_converges_on_rosenbrock_like(self):
        p = Parameter(np.array([2.0, -2.0]))
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            loss = ((p - Tensor(np.array([1.0, 1.0]))) ** 2).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, 1.0], atol=1e-2)

    def test_adam_weight_decay_shrinks_unused(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01, weight_decay=0.1)
        for _ in range(100):
            opt.zero_grad()
            (p * 0.0).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1.0

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        p = Parameter(np.array([3.0, 4.0]))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        norm = clip_grad_norm_([p], max_norm=1.0)
        np.testing.assert_allclose(norm, 5.0, rtol=1e-6)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0, rtol=1e-5)

    def test_clip_noop_when_below(self):
        p = Parameter(np.array([0.3]))
        p.grad = np.array([0.3], dtype=np.float32)
        clip_grad_norm_([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3], rtol=1e-6)


class TestSchedules:
    def _optimizer(self):
        return SGD([Parameter(np.zeros(1))], lr=1.0)

    def test_warmup_then_decay(self):
        opt = self._optimizer()
        sched = LinearWarmupDecay(opt, peak_lr=1.0, warmup_steps=10, total_steps=110)
        lrs = [sched.step() for _ in range(110)]
        assert lrs[4] == pytest.approx(0.5)   # halfway through warmup
        assert max(lrs) == pytest.approx(1.0)
        assert lrs[-1] == pytest.approx(0.0)
        # Monotonic decay after warmup.
        assert all(a >= b for a, b in zip(lrs[10:], lrs[11:]))

    def test_zero_warmup(self):
        opt = self._optimizer()
        sched = LinearWarmupDecay(opt, peak_lr=2.0, warmup_steps=0, total_steps=4)
        assert sched.step() == pytest.approx(1.5)

    def test_validation(self):
        opt = self._optimizer()
        with pytest.raises(ValueError):
            LinearWarmupDecay(opt, 1.0, warmup_steps=5, total_steps=4)
        with pytest.raises(ValueError):
            LinearWarmupDecay(opt, 1.0, warmup_steps=0, total_steps=0)
