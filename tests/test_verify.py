"""Tests for the numerical-correctness subsystem (repro.verify)."""

import json

import numpy as np
import pytest

import repro.nn.functional as F
from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.data.loader import Batch
from repro.models import Emba
from repro.nn.tensor import Tensor
from repro.verify import (
    InvariantViolation,
    discover,
    gradcheck,
    guard_report,
    guarded,
    installed,
    run_case,
)
from repro.verify.invariants import (
    check_aoa_gamma,
    check_attention_no_leak,
    check_layer_norm,
    check_softmax_rows,
)
from repro.verify.registry import all_cases


def _leaf(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True,
                  dtype=np.float64)


class TestGradcheckPrimitive:
    def test_correct_backward_passes(self):
        x = _leaf((3, 4))
        result = gradcheck(lambda: (x * x).sum(axis=1), {"x": x})
        assert result.passed
        assert result.checked_elements == 12
        assert result.max_rel_error < 1e-6

    def test_wrong_backward_fails(self):
        x = _leaf((5,))

        def broken_square():
            def backward(grad):
                x._accumulate(grad * 3.0 * x.data)   # wrong: should be 2x
            return x._make_child(x.data * x.data, (x,), backward)

        result = gradcheck(broken_square, {"x": x}, name="broken")
        assert not result.passed
        assert result.failures
        assert result.worst_leaf == "x"

    def test_zero_gradient_leaf_detected(self):
        # A leaf that (incorrectly) never receives gradient must fail.
        x = _leaf((4,))
        y = _leaf((4,), seed=1)

        def drops_y():
            def backward(grad):
                x._accumulate(grad)   # forgets y entirely
            return x._make_child(x.data + 2.0 * y.data, (x, y), backward)

        result = gradcheck(drops_y, {"x": x, "y": y})
        assert not result.passed
        assert any("y[" in f for f in result.failures)

    def test_float32_leaf_rejected(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(TypeError, match="float64"):
            gradcheck(lambda: x * 2, {"x": x})

    def test_no_grad_leaf_rejected(self):
        x = Tensor(np.ones(3), dtype=np.float64)
        with pytest.raises(ValueError, match="require grad"):
            gradcheck(lambda: x * 2, {"x": x})

    def test_subsampling_bounds_work(self):
        x = _leaf((100,))
        result = gradcheck(lambda: (x * x).sum(), {"x": x},
                           max_elements_per_leaf=7)
        assert result.passed
        assert result.checked_elements == 7


class TestRegistry:
    def test_discovery_fully_covered(self):
        report = discover()
        assert report.ok, (f"missing cases: {report.missing}; "
                           f"stale targets: {report.stale}")
        assert len(report.ops) >= 15
        assert len(report.modules) >= 25

    def test_quick_sweep_passes(self):
        for case in all_cases(quick=True):
            result = run_case(case)
            assert result.passed, f"{result}\n" + "\n".join(result.failures[:5])
            assert result.max_rel_error < 1e-4

    @pytest.mark.slow
    def test_full_sweep_passes(self):
        for case in all_cases():
            result = run_case(case)
            assert result.passed, f"{result}\n" + "\n".join(result.failures[:5])
            assert result.max_rel_error < 1e-4

    def test_one_heavy_model_case(self):
        # Keep one full-model loss gradcheck in tier-1 (the paper's model).
        (case,) = [c for c in all_cases() if c.name == "models.Emba"]
        result = run_case(case)
        assert result.passed, "\n".join(result.failures[:5])


def _tiny_emba_batch():
    rng = np.random.default_rng(3)
    cfg = BertConfig(vocab_size=32, hidden_size=16, num_layers=1, num_heads=2,
                     intermediate_size=32, max_position=16, dropout=0.0,
                     attention_dropout=0.0)
    model = Emba(BertModel(cfg, rng), 16, 3, rng)
    model.eval()
    ids = rng.integers(5, 32, size=(2, 10))
    ids[:, 0] = 2
    att = np.ones((2, 10), dtype=np.float32)
    att[1, 7:] = 0.0
    mask1 = np.zeros((2, 10), dtype=np.float32)
    mask1[:, 1:4] = 1.0
    mask2 = np.zeros((2, 10), dtype=np.float32)
    mask2[:, 5:7] = 1.0
    batch = Batch(ids, np.zeros_like(ids), att, mask1, mask2,
                  np.array([1.0, 0.0], dtype=np.float32),
                  np.array([0, 1]), np.array([1, 2]))
    return model, batch


class TestInvariantGuards:
    def test_install_uninstall_restores_originals(self):
        original = F.softmax
        with guarded():
            assert installed()
            assert F.softmax is not original
        assert not installed()
        assert F.softmax is original   # zero cost once uninstalled

    def test_guards_fire_on_emba_forward_backward(self):
        model, batch = _tiny_emba_batch()
        with guarded():
            loss = model.loss(model(batch), batch)
            loss.backward()
            report = guard_report()
        assert report["softmax.rows_sum_to_one"] > 0
        assert report["log_softmax.rows_exp_sum_to_one"] > 0
        assert report["layer_norm.standardized"] > 0
        assert report["attention.no_padded_leak"] > 0
        assert report["aoa.gamma_distribution"] > 0
        assert report["tensor.finite_forward"] > 0
        assert report["tensor.finite_backward"] > 0

    def test_nan_in_forward_caught(self):
        with guarded(), pytest.raises(InvariantViolation,
                                      match="finite_forward"):
            t = Tensor(np.array([1.0, np.nan]), requires_grad=True)
            (t * 2.0).sum()

    def test_inf_in_backward_caught(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)

        def poisoned():
            def backward(grad):
                x._accumulate(grad * np.inf)
            return x._make_child(x.data * 2.0, (x,), backward)

        with guarded(), pytest.raises(InvariantViolation,
                                      match="finite_backward"):
            poisoned().sum().backward()

    def test_corrupted_softmax_caught(self):
        halved = np.full((2, 3), 1.0 / 6.0)    # rows sum to 0.5
        with pytest.raises(InvariantViolation, match="rows_sum_to_one"):
            check_softmax_rows(halved, axis=-1)

    def test_attention_leak_caught(self):
        probs = np.full((1, 2, 4, 4), 0.25)    # uniform over all 4 keys
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])  # but key 3 is padding
        with pytest.raises(InvariantViolation, match="no_padded_leak"):
            check_attention_no_leak(probs, mask)

    def test_attention_skips_fully_padded_rows(self):
        probs = np.full((1, 1, 3, 3), 1.0 / 3.0)
        mask = np.zeros((1, 3))
        check_attention_no_leak(probs, mask)   # must not raise

    def test_gamma_off_span_leak_caught(self):
        gamma = np.array([[0.5, 0.3, 0.2]])
        mask1 = np.array([[1.0, 1.0, 0.0]])    # 0.2 mass outside record1
        mask2 = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(InvariantViolation, match="gamma"):
            check_aoa_gamma(gamma, mask1, mask2)

    def test_valid_gamma_accepted(self):
        gamma = np.array([[0.6, 0.4, 0.0, 0.0]])
        mask1 = np.array([[1.0, 1.0, 0.0, 0.0]])
        mask2 = np.array([[0.0, 0.0, 1.0, 1.0]])
        check_aoa_gamma(gamma, mask1, mask2)   # must not raise

    def test_layer_norm_mismatch_caught(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8)).astype(np.float32)
        w = np.ones(8, dtype=np.float32)
        b = np.zeros(8, dtype=np.float32)
        wrong = x.copy()                       # not normalized at all
        with pytest.raises(InvariantViolation, match="layer_norm"):
            check_layer_norm(x, w, b, 1e-5, wrong)

    def test_layer_norm_constant_rows_skipped(self):
        # A constant row normalizes to ~0 (eps dominates); the
        # standardization check must skip it rather than fail.
        x = Tensor(np.full((2, 6), 3.0, dtype=np.float32))
        w = Tensor(np.ones(6, dtype=np.float32))
        b = Tensor(np.zeros(6, dtype=np.float32))
        with guarded():
            out = F.layer_norm(x, w, b)
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_env_flag_installs(self):
        import subprocess
        import sys

        code = ("import repro; from repro.verify.invariants import installed; "
                "print(installed())")
        for flag, expected in (("1", "True"), ("0", "False"), ("", "False")):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env={"REPRO_VERIFY": flag, "PYTHONPATH": "src"},
                capture_output=True, text=True, cwd=".",
            )
            assert proc.stdout.strip() == expected, proc.stderr


class TestSelfcheckCli:
    def test_selfcheck_quick_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["selfcheck", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "selfcheck: OK" in captured.out

    def test_selfcheck_reports_golden_mismatch(self, monkeypatch, capsys):
        from repro.verify import golden, selfcheck

        def broken_check(names=None):
            return {"engine_bucketed": ["engine_bucketed.stats.batches: 4 != 5"]}

        monkeypatch.setattr(golden, "check", broken_check)
        monkeypatch.setattr(golden, "run_parity", lambda seeds=(0,): {})
        monkeypatch.setattr(selfcheck, "all_cases", lambda quick=False: [])
        code = selfcheck.run_selfcheck(quick=True, out=lambda s: None)
        assert code == 1


class TestGoldenRegen:
    def test_regen_prints_fields_it_changes(self, monkeypatch, tmp_path,
                                            capsys):
        from repro.verify import golden

        monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
        name = "emba_multitask"
        digest = golden.WORKLOADS[name]()
        stale = json.loads(json.dumps(digest))
        stale["loss"] = digest["loss"] * (1 + 1e-3)
        golden.golden_path(name).write_text(json.dumps(stale),
                                            encoding="utf-8")

        assert golden.main(["--regen", name]) == 0
        out = capsys.readouterr().out
        assert f"{name}.loss: {stale['loss']!r} != {digest['loss']!r}" in out
        assert "1 field(s) changed" in out   # only the perturbed field
        rewritten = json.loads(golden.golden_path(name).read_text(
            encoding="utf-8"))
        assert rewritten == json.loads(json.dumps(digest))
