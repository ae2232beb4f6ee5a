"""Crash-recovery matrix: kill-and-resume must be byte-identical, and
injected faults (crashes, ENOSPC, NaN losses, poison pairs) must degrade
the pipeline gracefully instead of losing the run.

Fault injection is deterministic (``repro.ft.faults.FaultPlan``): every
scenario here fires at an exact site and hit count, so failures
reproduce exactly.
"""

import json

import numpy as np
import pytest

from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.data.loader import PairEncoder
from repro.data.registry import load_dataset
from repro.engine import EngineConfig, InferenceEngine
from repro.engine.core import QUARANTINE_SCORE
from repro.experiments.config import RunSpec
from repro.experiments.runner import (
    checkpoint_dir_for,
    progress_path_for,
    run_experiment,
)
from repro.ft import (
    Checkpointer,
    CheckpointError,
    FaultError,
    FaultPlan,
    PoisonError,
    PoisonPairs,
    collect_module_rngs,
    inject,
    restore_module_rngs,
)
from repro import obs
from repro.models import Emba, SingleTaskMatcher
from repro.models.trainer import EarlyStopping, TrainConfig, Trainer
from repro.nn.layers import Dropout, Linear
from repro.nn.optim import SGD, Adam
from repro.nn.schedules import LinearWarmupDecay
from repro.nn.serialization import load_arrays, save_arrays
from repro.runs import RunStore
from repro.runs import store as runstore
from repro.nn.tensor import Tensor
from repro.text import WordPieceTokenizer, train_wordpiece

CFG = BertConfig(vocab_size=300, hidden_size=16, num_layers=1, num_heads=2,
                 intermediate_size=32, max_position=80, dropout=0.1,
                 attention_dropout=0.1)


@pytest.fixture(scope="module")
def splits():
    ds = load_dataset("wdc_computers", size="small")
    texts = [r.text() for p in ds.all_pairs() for r in (p.record1, p.record2)]
    tok = WordPieceTokenizer(train_wordpiece(texts, vocab_size=500))
    cfg = CFG.with_vocab(len(tok.vocab))
    enc = PairEncoder(tok, max_length=cfg.max_position)
    return {
        "config": cfg,
        "num_ids": ds.num_id_classes,
        "train": enc.encode_many(ds.train, ds)[:32],
        "valid": enc.encode_many(ds.valid, ds)[:16],
    }


def build_model(splits, seed=0):
    cfg = splits["config"]
    return Emba(BertModel(cfg, np.random.default_rng(seed)), cfg.hidden_size,
                splits["num_ids"], np.random.default_rng(seed + 1))


TRAIN_CFG = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3, seed=0,
                        patience=10)


def run_to_completion(splits, checkpoint_dir, resume=False, config=TRAIN_CFG):
    model = build_model(splits)
    result = Trainer(config).fit(model, splits["train"], splits["valid"],
                                 checkpoint_dir=checkpoint_dir, resume=resume)
    return model, result


@pytest.fixture(scope="module")
def reference(splits, tmp_path_factory):
    """One uninterrupted checkpointed run to compare every scenario against."""
    ckpt_dir = tmp_path_factory.mktemp("reference")
    model, result = run_to_completion(splits, ckpt_dir)
    return {
        "weights": model.state_dict(),
        "result": result,
        "final": Checkpointer(ckpt_dir).load_latest(),
    }


def assert_matches_reference(reference, model, result, final):
    """Weights, Adam moments, RNG streams, and history: byte-identical."""
    ref_weights = reference["weights"]
    weights = model.state_dict()
    assert set(weights) == set(ref_weights)
    for name in ref_weights:
        assert weights[name].tobytes() == ref_weights[name].tobytes(), name
    ref_result = reference["result"]
    assert result.train_losses == ref_result.train_losses
    assert result.valid_f1s == ref_result.valid_f1s
    assert result.best_epoch == ref_result.best_epoch
    assert result.best_valid_f1 == ref_result.best_valid_f1
    assert result.epochs_run == ref_result.epochs_run
    ref_final = reference["final"]
    for slot in ("m", "v"):
        for a, b in zip(ref_final.optimizer[slot], final.optimizer[slot]):
            assert a.tobytes() == b.tobytes()
    assert final.optimizer["step"] == ref_final.optimizer["step"]
    assert final.trainer_rng == ref_final.trainer_rng
    assert final.module_rngs == ref_final.module_rngs


# ----------------------------------------------------------------------
# Kill-and-resume matrix
# ----------------------------------------------------------------------

class TestKillAndResume:
    @pytest.mark.parametrize("boundary", [0, 1])
    def test_kill_at_epoch_boundary(self, splits, reference, tmp_path, boundary):
        """Crash after each epoch's checkpoint; resume is byte-identical."""
        with pytest.raises(FaultError):
            with inject(FaultPlan().fail_at("trainer.epoch_end", hit=boundary)):
                run_to_completion(splits, tmp_path)
        model, result = run_to_completion(splits, tmp_path, resume=True)
        assert_matches_reference(reference, model, result,
                                 Checkpointer(tmp_path).load_latest())

    def test_kill_mid_epoch(self, splits, reference, tmp_path):
        """Crash on a mid-epoch batch; the partial epoch replays exactly."""
        # 32 train pairs / batch 16 = 2 batches per epoch; hit 3 is the
        # second batch of epoch 2.
        with pytest.raises(FaultError):
            with inject(FaultPlan().fail_at("trainer.loss", hit=3)):
                run_to_completion(splits, tmp_path)
        model, result = run_to_completion(splits, tmp_path, resume=True)
        assert_matches_reference(reference, model, result,
                                 Checkpointer(tmp_path).load_latest())

    def test_kill_mid_checkpoint_write(self, splits, reference, tmp_path):
        """Crash between npz write and manifest commit: the half-written
        checkpoint is invisible and resume falls back to the previous one."""
        with pytest.raises(FaultError):
            with inject(FaultPlan().fail_at("checkpoint.manifest", hit=1)):
                run_to_completion(splits, tmp_path)
        ckpt = Checkpointer(tmp_path)
        assert ckpt.saved_epochs() == [1]   # epoch 2's manifest never landed
        model, result = run_to_completion(splits, tmp_path, resume=True)
        assert_matches_reference(reference, model, result, ckpt.load_latest())

    def test_resume_without_checkpoint_is_fresh_run(self, splits, reference,
                                                    tmp_path):
        model, result = run_to_completion(splits, tmp_path, resume=True)
        assert_matches_reference(reference, model, result,
                                 Checkpointer(tmp_path).load_latest())

    def test_resume_of_completed_run_is_stable(self, splits, reference, tmp_path):
        run_to_completion(splits, tmp_path)
        model, result = run_to_completion(splits, tmp_path, resume=True)
        assert_matches_reference(reference, model, result,
                                 Checkpointer(tmp_path).load_latest())

    def test_early_stop_survives_resume(self, splits, tmp_path):
        """A run that early-stopped must not train further after resume."""
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3,
                             seed=0, patience=1)
        _, uninterrupted = run_to_completion(splits, tmp_path / "a",
                                             config=config)
        with pytest.raises(FaultError):
            with inject(FaultPlan().fail_at("trainer.epoch_end", hit=0)):
                run_to_completion(splits, tmp_path / "b", config=config)
        _, resumed = run_to_completion(splits, tmp_path / "b", resume=True,
                                       config=config)
        assert resumed.epochs_run == uninterrupted.epochs_run
        assert resumed.stopped == uninterrupted.stopped
        assert resumed.valid_f1s == uninterrupted.valid_f1s


# ----------------------------------------------------------------------
# Corruption fallback
# ----------------------------------------------------------------------

class TestCorruptionFallback:
    def test_corrupt_manifest_falls_back(self, splits, tmp_path):
        run_to_completion(splits, tmp_path)
        ckpt = Checkpointer(tmp_path)
        newest = ckpt.saved_epochs()[-1]
        ckpt.manifest_path(newest).write_text("{not json", encoding="utf-8")
        state = ckpt.load_latest()
        assert state is not None
        assert state.epoch == newest - 1
        assert ckpt.corrupt_skipped == [newest]

    def test_truncated_npz_falls_back(self, splits, tmp_path):
        run_to_completion(splits, tmp_path)
        ckpt = Checkpointer(tmp_path)
        newest = ckpt.saved_epochs()[-1]
        blob = ckpt.npz_path(newest).read_bytes()
        ckpt.npz_path(newest).write_bytes(blob[:len(blob) // 2])
        state = ckpt.load_latest()
        assert state is not None
        assert state.epoch == newest - 1
        with pytest.raises(CheckpointError):
            ckpt.load_epoch(newest)

    def test_bitflip_detected_by_checksum(self, splits, tmp_path):
        run_to_completion(splits, tmp_path)
        ckpt = Checkpointer(tmp_path)
        newest = ckpt.saved_epochs()[-1]
        blob = bytearray(ckpt.npz_path(newest).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.npz_path(newest).write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            ckpt.load_epoch(newest)
        assert ckpt.load_latest().epoch == newest - 1

    def test_all_checkpoints_corrupt_returns_none(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        (tmp_path / "ckpt-00001.json").write_text("junk", encoding="utf-8")
        assert ckpt.load_latest() is None
        assert ckpt.corrupt_skipped == [1]

    def test_retention_keeps_last_k(self, splits, tmp_path):
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3,
                             seed=0, patience=10, keep_checkpoints=2)
        run_to_completion(splits, tmp_path, config=config)
        assert Checkpointer(tmp_path).saved_epochs() == [2, 3]


# ----------------------------------------------------------------------
# Non-finite-loss guards and checkpoint-write failures
# ----------------------------------------------------------------------

class TestTrainingGuards:
    def test_nan_loss_batches_are_skipped_and_counted(self, splits, tmp_path):
        with inject(FaultPlan().nanify_loss_at(1).nanify_loss_at(2)):
            model, result = run_to_completion(splits, tmp_path)
        assert result.nonfinite_skipped == 2
        assert result.lr_halvings == 0
        assert all(np.isfinite(loss) for loss in result.train_losses)
        assert result.epochs_run == TRAIN_CFG.epochs

    def test_divergence_rolls_back_with_halved_lr(self, splits, tmp_path):
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3,
                             seed=0, patience=10, max_nonfinite_batches=0)
        plan = FaultPlan()
        for hit in (2, 3, 4):
            plan.nanify_loss_at(hit)
        with inject(plan):
            model, result = run_to_completion(splits, tmp_path, config=config)
        assert result.lr_halvings >= 1
        assert result.nonfinite_skipped >= 1
        assert result.epochs_run == config.epochs
        assert all(np.isfinite(loss) for loss in result.train_losses)

    def test_enospc_checkpoint_write_does_not_kill_training(self, splits,
                                                            tmp_path):
        with inject(FaultPlan().enospc_at("checkpoint.write", hit=1)):
            model, result = run_to_completion(splits, tmp_path)
        assert result.checkpoint_failures == 1
        assert result.epochs_run == TRAIN_CFG.epochs
        # Epoch 2's checkpoint is missing but the run is resumable from
        # the surviving ones.
        epochs = Checkpointer(tmp_path).saved_epochs()
        assert 2 not in epochs and epochs[-1] == 3
        assert Checkpointer(tmp_path).load_latest().epoch == 3


# ----------------------------------------------------------------------
# Run-registry integration: telemetry and time series survive crashes
# ----------------------------------------------------------------------

class TestRunRegistryCrashSafety:
    def test_obs_counters_survive_kill_and_resume(self, splits, tmp_path):
        """Cumulative health counters ride in the checkpoint manifest.

        A NaN skip in epoch 1 must still be visible after a crash, an
        ``obs.reset()`` simulating a fresh process, and a resume —
        otherwise the watchdog's health gate undercounts faults that
        happened before the last checkpoint.
        """
        obs.enable()
        obs.reset()
        try:
            plan = (FaultPlan().nanify_loss_at(0)
                    .fail_at("trainer.epoch_end", hit=1))
            with pytest.raises(FaultError), inject(plan):
                run_to_completion(splits, tmp_path)
            skipped = obs.snapshot()["counters"]["trainer.nonfinite_skipped"]
            assert skipped == 1
            obs.reset()       # fresh process: in-memory telemetry is gone
            assert "trainer.nonfinite_skipped" not in (
                obs.snapshot()["counters"])
            run_to_completion(splits, tmp_path, resume=True)
            counters = obs.snapshot()["counters"]
            assert counters["trainer.nonfinite_skipped"] == 1
        finally:
            obs.disable()
            obs.reset()

    def test_run_series_contiguous_after_kill_and_resume(self, splits,
                                                         tmp_path):
        """Resume reattaches to the crashed run and truncates the replay
        span, so every global step appears exactly once, in order."""
        store = RunStore(tmp_path / "runs")
        writer = store.create(name="killed", config={"case": "contiguity"})
        # 32 pairs / batch 16 = 2 steps per epoch; hit 3 dies on the
        # second batch of epoch 2, after steps 0..2 hit the series.
        with pytest.raises(FaultError):
            with runstore.recording(writer), \
                    inject(FaultPlan().fail_at("trainer.loss", hit=3)):
                run_to_completion(splits, tmp_path / "ckpt")
        assert store.get(writer.id).status == "failed"

        resumed = store.reattach_incomplete({"case": "contiguity"})
        assert resumed is not None and resumed.id == writer.id
        with runstore.recording(resumed):
            run_to_completion(splits, tmp_path / "ckpt", resume=True)
        resumed.finish()

        record = store.get(writer.id)
        assert record.status == "completed"
        steps, _ = record.channel("loss")
        assert steps == [float(s) for s in range(6)]
        # Epoch-level channels land on each epoch's last batch step, so
        # the kept prefix only ever contains fully validated epochs.
        assert record.channel("valid_f1")[0] == [1.0, 3.0, 5.0]
        assert "resume" in [e["name"] for e in record.events()]


# ----------------------------------------------------------------------
# State-dict round trips
# ----------------------------------------------------------------------

class TestStateDicts:
    def test_adam_roundtrip_continues_identically(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(6)]

        def steps(opt, layer, grads):
            for g in grads:
                layer.weight.grad = g.copy()
                opt.step()

        layer_a = Linear(4, 3, np.random.default_rng(1), bias=False)
        opt_a = Adam(layer_a.parameters(), lr=1e-2, weight_decay=0.01)
        steps(opt_a, layer_a, grads)

        layer_b = Linear(4, 3, np.random.default_rng(1), bias=False)
        opt_b = Adam(layer_b.parameters(), lr=1e-2, weight_decay=0.01)
        steps(opt_b, layer_b, grads[:3])
        saved = opt_b.state_dict()
        layer_c = Linear(4, 3, np.random.default_rng(2), bias=False)
        layer_c.weight.data = layer_b.weight.data.copy()
        opt_c = Adam(layer_c.parameters(), lr=9.9)
        opt_c.load_state_dict(saved)
        steps(opt_c, layer_c, grads[3:])
        assert layer_c.weight.data.tobytes() == layer_a.weight.data.tobytes()

    def test_sgd_roundtrip(self):
        layer = Linear(4, 3, np.random.default_rng(1), bias=False)
        opt = SGD(layer.parameters(), lr=0.1, momentum=0.9)
        layer.weight.grad = np.ones_like(layer.weight.data)
        opt.step()
        saved = opt.state_dict()
        opt2 = SGD(layer.parameters(), lr=0.5)
        opt2.load_state_dict(saved)
        assert opt2.lr == 0.1 and opt2.momentum == 0.9
        assert opt2._velocity[0].tobytes() == opt._velocity[0].tobytes()

    def test_slot_shape_mismatch_rejected(self):
        layer = Linear(4, 3, np.random.default_rng(1), bias=False)
        opt = Adam(layer.parameters(), lr=1e-3)
        saved = opt.state_dict()
        other = Linear(5, 2, np.random.default_rng(1), bias=False)
        with pytest.raises(ValueError, match="shape"):
            Adam(other.parameters(), lr=1e-3).load_state_dict(saved)

    def test_schedule_roundtrip_restores_lr_and_peak(self):
        layer = Linear(4, 3, np.random.default_rng(1), bias=False)
        opt = Adam(layer.parameters(), lr=1e-3)
        sched = LinearWarmupDecay(opt, peak_lr=1e-3, warmup_steps=4,
                                  total_steps=20)
        for _ in range(6):
            sched.step()
        sched.peak_lr = 5e-4          # as after a divergence rollback
        saved = sched.state_dict()
        opt2 = Adam(layer.parameters(), lr=1e-3)
        sched2 = LinearWarmupDecay(opt2, peak_lr=1e-3, warmup_steps=4,
                                   total_steps=20)
        sched2.load_state_dict(saved)
        assert sched2._count == 6
        assert sched2.peak_lr == 5e-4
        assert opt2.lr == sched2.lr_at(6)

    def test_early_stopping_roundtrip(self):
        stopper = EarlyStopping(patience=3)
        stopper.update(0.5, 0)
        stopper.update(0.4, 1)
        clone = EarlyStopping(patience=1)
        clone.load_state_dict(stopper.state_dict())
        assert clone.best == 0.5 and clone.best_epoch == 0
        assert clone.update(0.45, 2) is False
        assert clone.update(0.44, 3) is True   # patience 3 reached

    def test_module_rng_sharing_preserved(self):
        shared = np.random.default_rng(7)
        own = np.random.default_rng(8)
        from repro.nn.layers import Sequential

        model = Sequential(Dropout(0.5, shared), Dropout(0.5, shared),
                           Dropout(0.5, own))
        shared.random(5)
        payload = collect_module_rngs(model)
        assert len(payload["states"]) == 2   # one per distinct generator
        expect_shared = shared.random(3).tobytes()
        expect_own = own.random(3).tobytes()

        shared2 = np.random.default_rng(0)
        own2 = np.random.default_rng(0)
        model2 = Sequential(Dropout(0.5, shared2), Dropout(0.5, shared2),
                            Dropout(0.5, own2))
        restore_module_rngs(model2, json.loads(json.dumps(payload)))
        assert shared2.random(3).tobytes() == expect_shared
        assert own2.random(3).tobytes() == expect_own


# ----------------------------------------------------------------------
# Serialization satellites
# ----------------------------------------------------------------------

class TestSerializationHardening:
    def test_failed_write_leaves_no_stale_tmp(self, tmp_path, monkeypatch):
        def boom(handle, **arrays):
            handle.write(b"partial bytes")
            raise OSError(28, "no space left on device")

        monkeypatch.setattr(np, "savez", boom)
        with pytest.raises(OSError):
            save_arrays(tmp_path / "state.npz", {"w": np.zeros(3)})
        assert list(tmp_path.iterdir()) == []

    def test_truncated_archive_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "state.npz"
        save_arrays(path, {"w": np.arange(100, dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_arrays(path)

    def test_missing_archive_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_arrays(tmp_path / "absent.npz")

    def test_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.array([1, 2], dtype=np.int64)}
        save_arrays(tmp_path / "ok.npz", arrays)
        loaded = load_arrays(tmp_path / "ok.npz")
        assert set(loaded) == {"a", "b"}
        assert loaded["a"].tobytes() == arrays["a"].tobytes()


# ----------------------------------------------------------------------
# No-validation best_epoch semantics (satellite)
# ----------------------------------------------------------------------

class TestNoValidationSemantics:
    def test_best_epoch_reports_final_epoch(self, splits):
        model = build_model(splits)
        result = Trainer(TRAIN_CFG).fit(model, splits["train"], [])
        assert result.epochs_run == TRAIN_CFG.epochs
        assert result.best_epoch == result.epochs_run - 1
        assert result.best_valid_f1 == 0.0
        assert result.valid_f1s == [0.0] * TRAIN_CFG.epochs


# ----------------------------------------------------------------------
# Engine degradation: poison-pair bisection
# ----------------------------------------------------------------------

def _single_task_model(splits, seed=0):
    cfg = splits["config"]
    return SingleTaskMatcher(BertModel(cfg, np.random.default_rng(seed)),
                             cfg.hidden_size, np.random.default_rng(seed + 1))


class TestEngineQuarantine:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_poison_isolated(self, splits, seed):
        """Healthy pairs score byte-identically; poison is quarantined."""
        encoded = (splits["train"] + splits["valid"])[:40]
        model = _single_task_model(splits)
        clean = InferenceEngine(
            model, config=EngineConfig(batch_size=7)).score_encoded(encoded)

        rng = np.random.default_rng(seed)
        poison = sorted(rng.choice(len(encoded), size=4, replace=False))
        engine = InferenceEngine(
            PoisonPairs(model, [encoded[i] for i in poison]),
            config=EngineConfig(batch_size=7))
        out = engine.score_encoded(encoded)

        assert engine.stats.quarantined == len(poison)
        assert sorted(np.flatnonzero(out["quarantined"])) == poison
        healthy = ~out["quarantined"]
        # Bisection re-collates sub-batches, so BLAS kernel choice may
        # differ by a ULP on healthy rows — equal to tight tolerance.
        np.testing.assert_allclose(out["em_prob"][healthy],
                                   clean["em_prob"][healthy],
                                   rtol=1e-5, atol=1e-7)
        assert (out["em_prob"][~healthy]
                == QUARANTINE_SCORE).all()
        assert len(engine.quarantine_log) == len(poison)

    def test_quarantine_disabled_reraises(self, splits):
        encoded = splits["train"][:8]
        model = _single_task_model(splits)
        engine = InferenceEngine(PoisonPairs(model, [encoded[3]]),
                                 config=EngineConfig(batch_size=4,
                                                     quarantine=False))
        with pytest.raises(PoisonError):
            engine.score_encoded(encoded)

    def test_all_pairs_poisoned_still_completes(self, splits):
        encoded = splits["train"][:6]
        model = _single_task_model(splits)
        engine = InferenceEngine(PoisonPairs(model, encoded),
                                 config=EngineConfig(batch_size=4))
        out = engine.score_encoded(encoded)
        assert out["quarantined"].all()
        assert engine.stats.quarantined == len(encoded)
        assert (out["em_prob"] == 0.0).all()
        assert (out["em_pred"] == 0).all()

    def test_clean_run_has_empty_quarantine(self, splits):
        encoded = splits["train"][:10]
        engine = InferenceEngine(_single_task_model(splits),
                                 config=EngineConfig(batch_size=4))
        out = engine.score_encoded(encoded)
        assert not out["quarantined"].any()
        assert engine.stats.quarantined == 0
        assert engine.quarantine_log == []

    def test_assertion_errors_always_propagate(self, splits):
        """Invariant violations are harness bugs, never quarantined."""
        encoded = splits["train"][:4]

        class Exploding:
            training = False

            def eval(self):
                return self

            def train(self, mode=True):
                return self

            def __call__(self, batch):
                raise AssertionError("invariant violated")

        engine = InferenceEngine(Exploding(), config=EngineConfig(batch_size=2))
        with pytest.raises(AssertionError):
            engine.score_encoded(encoded)


# ----------------------------------------------------------------------
# Experiment runner: bounded retry + progress records
# ----------------------------------------------------------------------

class TestRunnerResume:
    # deepmatcher needs no encoder pre-training, so these runs are cheap.
    SPEC = RunSpec(dataset="wdc_computers", model="deepmatcher", size="small",
                   seed=0, epochs=2, vocab_size=400, max_length=96)

    def test_transient_fault_absorbed_by_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clean = run_experiment(self.SPEC, use_cache=False)
        plan = FaultPlan().fail_at("trainer.epoch_end", hit=0, transient=True)
        with inject(plan):
            metrics = run_experiment(self.SPEC, use_cache=False,
                                     checkpoint=True, max_retries=1)
        assert plan.fired == [("trainer.epoch_end", 0)]
        assert metrics["train_attempts"] == 2
        assert metrics["em_f1"] == clean["em_f1"]
        assert metrics["epochs_run"] == clean["epochs_run"]
        progress = json.loads(
            progress_path_for(self.SPEC).read_text(encoding="utf-8"))
        assert progress["stage"] == "done"
        assert checkpoint_dir_for(self.SPEC).is_dir()

    def test_nontransient_fault_propagates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plan = FaultPlan().fail_at("runner.train", hit=0)  # not transient
        with inject(plan), pytest.raises(FaultError):
            run_experiment(self.SPEC, use_cache=False, checkpoint=True,
                           max_retries=3)
        progress = json.loads(
            progress_path_for(self.SPEC).read_text(encoding="utf-8"))
        assert progress["stage"] == "failed"

    def test_retry_budget_exhausted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plan = (FaultPlan()
                .fail_at("runner.train", hit=0, transient=True)
                .fail_at("runner.train", hit=1, transient=True))
        with inject(plan), pytest.raises(FaultError):
            run_experiment(self.SPEC, use_cache=False, checkpoint=True,
                           max_retries=1)


# ----------------------------------------------------------------------
# Fault plan mechanics
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_fires_at_exact_hit(self):
        plan = FaultPlan().fail_at("site", hit=2)
        with inject(plan):
            from repro.ft import fault_point

            fault_point("site")
            fault_point("site")
            with pytest.raises(FaultError):
                fault_point("site")
            fault_point("site")   # exhausted: fires once only
        assert plan.hits("site") == 4
        assert plan.fired == [("site", 2)]

    def test_mutation_transforms_value(self):
        plan = FaultPlan().mutate_at("loss", 1, lambda v: v * 10)
        with inject(plan):
            from repro.ft import fault_point

            assert fault_point("loss", 5) == 5
            assert fault_point("loss", 5) == 50

    def test_inactive_plan_is_inert(self):
        from repro.ft import fault_point

        sentinel = object()
        assert fault_point("anything", sentinel) is sentinel

    def test_nanify_loss_produces_nonfinite_tensor(self):
        plan = FaultPlan().nanify_loss_at(0)
        with inject(plan):
            from repro.ft import fault_point

            loss = fault_point("trainer.loss", Tensor(np.float32(1.0)))
        assert not np.isfinite(float(loss.data))
