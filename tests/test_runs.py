"""The run registry: store, probes, diffing, watchdog, CLI.

Covers the persistence contract (atomic manifests, append-only series,
truncation for contiguity), the observation-only probe guarantee
(byte-identical weights with probes on or off), the regression watchdog
semantics, and the ``repro runs`` CLI end-to-end on real (tiny) runs.
"""

import json

import numpy as np
import pytest

from benchmarks.helpers import paired_overhead
from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.cli import main
from repro.data.loader import PairEncoder
from repro.data.registry import load_dataset
from repro.experiments.config import RunSpec
from repro.experiments.runner import run_experiment
from repro.ft import FaultPlan, inject
from repro.models import Emba
from repro.models.trainer import TrainConfig, Trainer
from repro.runs import (
    ProbeConfig,
    Prober,
    RunStore,
    Tolerance,
    attention_entropy,
    check_regression,
    diff_runs,
    entropy,
    gamma_concentration,
    load_baseline,
    render_curve,
    render_list,
    render_show,
)
from repro.runs import store as runstore
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


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------

class TestStore:
    def test_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        writer = store.create(name="alpha", kind="train",
                              config={"seed": 3}, argv=["repro", "run"],
                              model="emba", seed=3)
        writer.log_step(0, loss=2.0, lr=1e-3)
        writer.log_step(1, loss=1.5, lr=9e-4)
        writer.log_event("resume", epoch=1)
        writer.add_artifact("note.txt", "hello")
        writer.finish(em_f1=0.5)

        record = store.get(writer.id)
        assert record.status == "completed"
        assert record.name == "alpha"
        assert record.manifest["model"] == "emba"
        assert record.manifest["config_hash"]
        assert record.metrics == {"em_f1": 0.5}
        assert record.manifest["wall_seconds"] > 0
        steps, values = record.channel("loss")
        assert steps == [0.0, 1.0] and values == [2.0, 1.5]
        assert record.channels() == ["loss", "lr"]
        assert [e["name"] for e in record.events()] == ["resume"]
        assert [p.name for p in record.artifacts()] == ["note.txt"]

    def test_running_status_until_finished(self, tmp_path):
        store = RunStore(tmp_path)
        writer = store.create(name="crashy")
        assert store.get(writer.id).status == "running"
        writer.fail(ValueError("boom"))
        record = store.get(writer.id)
        assert record.status == "failed"
        assert "boom" in record.manifest["error"]

    def test_torn_final_line_tolerated(self, tmp_path):
        store = RunStore(tmp_path)
        writer = store.create()
        writer.log_step(0, loss=1.0)
        writer.finish()
        series = store.get(writer.id).path / "series.jsonl"
        series.write_text(series.read_text() + '{"step": 1, "lo',
                          encoding="utf-8")
        assert store.get(writer.id).channel("loss") == ([0.0], [1.0])

    def test_truncate_drops_replayed_steps(self, tmp_path):
        writer = RunStore(tmp_path).create()
        for step in range(6):
            writer.log_step(step, loss=float(step))
        writer.log_event("marker")
        writer.truncate(3)
        writer.log_step(3, loss=30.0)
        writer.finish()
        record = RunStore(tmp_path).get(writer.id)
        assert record.channel("loss") == ([0.0, 1.0, 2.0, 3.0],
                                          [0.0, 1.0, 2.0, 30.0])
        assert len(record.events()) == 1  # events survive truncation

    def test_resolve_by_id_name_latest(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.create(name="first")
        a.finish()
        b = store.create(name="second")
        b.finish()
        assert store.resolve(a.id).id == a.id
        assert store.resolve("first").id == a.id
        assert store.resolve("latest").id == b.id
        with pytest.raises(KeyError):
            store.resolve("no-such-run")

    def test_prune_keeps_newest(self, tmp_path):
        store = RunStore(tmp_path)
        ids = []
        for _ in range(4):
            w = store.create()
            w.finish()
            ids.append(w.id)
        removed = store.prune(keep_last=2)
        assert removed == ids[:2]
        assert [r.id for r in store.list()] == ids[2:]

    def test_reattach_incomplete_matches_config(self, tmp_path):
        store = RunStore(tmp_path)
        crashed = store.create(name="crashed", config={"seed": 1})
        crashed.log_step(0, loss=1.0)
        done = store.create(name="done", config={"seed": 2})
        done.finish()
        assert store.reattach_incomplete({"seed": 2}) is None  # completed
        writer = store.reattach_incomplete({"seed": 1})
        assert writer is not None and writer.id == crashed.id
        writer.log_step(1, loss=0.5)
        writer.finish()
        record = store.get(crashed.id)
        assert record.status == "completed"
        assert record.channel("loss")[0] == [0.0, 1.0]

    def test_active_run_fast_path(self, tmp_path):
        runstore.record_step(0, loss=1.0)   # no active run: no-op
        runstore.record_event("noop")
        runstore.truncate_active(0)
        writer = RunStore(tmp_path).create()
        with runstore.recording(writer):
            assert runstore.active() is writer
            runstore.record_step(0, loss=1.0)
        assert runstore.active() is None
        writer.finish()
        assert RunStore(tmp_path).get(writer.id).channel("loss") == ([0.0],
                                                                     [1.0])

    def test_recording_seals_failed_run(self, tmp_path):
        writer = RunStore(tmp_path).create()
        with pytest.raises(RuntimeError):
            with runstore.recording(writer):
                raise RuntimeError("died mid-run")
        record = RunStore(tmp_path).get(writer.id)
        assert record.status == "failed"
        assert runstore.active() is None


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------

class TestProbeMath:
    def test_entropy_uniform_and_point_mass(self):
        assert entropy(np.full(8, 1 / 8)) == pytest.approx(np.log(8))
        assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_attention_entropy_ignores_padded_queries(self):
        # One batch row, one head, 3 positions; the last is padding.
        uniform = np.full(3, 1 / 3)
        point = np.array([1.0, 0.0, 0.0])
        attn = np.stack([uniform, point, uniform])[None, None]  # (1,1,3,3)
        mask = np.array([[1.0, 1.0, 0.0]])
        per_head = attention_entropy(attn, mask)
        assert per_head.shape == (1,)
        assert per_head[0] == pytest.approx(np.log(3) / 2)

    def test_gamma_concentration_renormalizes_per_row(self):
        gamma = np.array([[0.2, 0.2, 0.1, 0.5]])
        mask1 = np.array([[True, True, False, False]])  # renorm to 1/2, 1/2
        ent, mass = gamma_concentration(gamma, mask1, topk=1)
        assert ent == pytest.approx(np.log(2))
        assert mass == pytest.approx(0.5)

    def test_gamma_concentration_empty_rows(self):
        ent, mass = gamma_concentration(np.ones((2, 3)), np.zeros((2, 3)))
        assert np.isnan(ent) and np.isnan(mass)

    def test_group_of_splits_encoder_one_level(self):
        assert Prober._group_of("em_head.weight") == "em_head"
        assert Prober._group_of("encoder.layers.0.attn.w") == "encoder.layers"
        assert Prober._group_of("encoder.norm") == "encoder"

    def test_should_sample_interval(self):
        cfg = ProbeConfig(interval=4)
        prober = ProbeConfig(interval=0)
        assert cfg.enabled and not prober.enabled
        probe = Prober.__new__(Prober)
        probe.config = cfg
        assert [s for s in range(9) if probe.should_sample(s)] == [0, 4, 8]

    def test_attn_drift_measured_against_first_sample(self):
        """probe.attn_drift.h* is |entropy - first sampled entropy|."""

        class _Out:
            def __init__(self, attn):
                self.attentions = [attn]
                self.aoa_gamma = None

        class _Batch:
            attention_mask = np.ones((1, 3))

        probe = Prober.__new__(Prober)
        probe.config = ProbeConfig(interval=1, saturation=False,
                                   gamma_concentration=False)
        probe._entropy_ref = None
        uniform = np.full((1, 1, 3, 3), 1 / 3)         # entropy ln 3
        point = np.zeros((1, 1, 3, 3))
        point[..., 0] = 1.0                            # entropy 0
        first = probe.forward_stats(_Out(uniform), _Batch())
        assert first["probe.attn_drift"] == pytest.approx(0.0)
        second = probe.forward_stats(_Out(point), _Batch())
        assert second["probe.attn_drift.h0"] == pytest.approx(np.log(3))
        # The reference stays pinned to the first sample.
        third = probe.forward_stats(_Out(uniform), _Batch())
        assert third["probe.attn_drift"] == pytest.approx(0.0)

    def test_attn_drift_disabled_by_config(self):
        class _Out:
            def __init__(self):
                self.attentions = [np.full((1, 1, 3, 3), 1 / 3)]
                self.aoa_gamma = None

        class _Batch:
            attention_mask = np.ones((1, 3))

        probe = Prober.__new__(Prober)
        probe.config = ProbeConfig(interval=1, saturation=False,
                                   gamma_concentration=False,
                                   attention_drift=False)
        probe._entropy_ref = None
        stats = probe.forward_stats(_Out(), _Batch())
        assert not any(key.startswith("probe.attn_drift") for key in stats)


class TestProbesInTraining:
    def test_probe_channels_recorded(self, splits, tmp_path):
        writer = RunStore(tmp_path).create()
        model = build_model(splits)
        with runstore.recording(writer):
            Trainer(TrainConfig(epochs=1, batch_size=16, seed=0)).fit(
                model, splits["train"], splits["valid"],
                probes=ProbeConfig(interval=1))
        writer.finish()
        record = RunStore(tmp_path).get(writer.id)
        channels = record.channels()
        for expected in ("loss", "lr", "valid_f1", "probe.grad_norm",
                         "probe.sat.em", "probe.attn_entropy",
                         "probe.attn_drift",
                         "probe.gamma_entropy", "probe.gamma_top3_mass",
                         "probe.update_ratio.em_head"):
            assert expected in channels, expected
        # Per-head attention entropy and drift for every last-layer head.
        for prefix in ("probe.attn_entropy.h", "probe.attn_drift.h"):
            heads = [c for c in channels if c.startswith(prefix)]
            assert len(heads) == CFG.num_heads, prefix
        # Gradient groups split the encoder one level deep.
        assert "probe.grad_norm.encoder.embeddings" in channels

    def test_probes_are_observation_only(self, splits, tmp_path):
        """Weights after training are byte-identical, probes on or off."""
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
        plain = build_model(splits)
        Trainer(cfg).fit(plain, splits["train"], splits["valid"])

        probed = build_model(splits)
        writer = RunStore(tmp_path).create()
        with runstore.recording(writer):
            Trainer(cfg).fit(probed, splits["train"], splits["valid"],
                             probes=ProbeConfig(interval=1))
        writer.finish()

        a, b = plain.state_dict(), probed.state_dict()
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key]), key


# ----------------------------------------------------------------------
# Compare / watchdog
# ----------------------------------------------------------------------

def _manifest(status="completed", **metrics):
    return {"id": "run-000001", "status": status, "metrics": metrics}


class TestWatchdog:
    def test_passes_within_tolerance(self):
        base = _manifest(em_f1=0.80, nonfinite_skipped=0)
        cand = _manifest(em_f1=0.795, nonfinite_skipped=0)
        assert check_regression(base, cand, Tolerance(f1_drop=0.01)) == []

    def test_f1_drop_trips(self):
        base = _manifest(em_f1=0.80)
        cand = _manifest(em_f1=0.70)
        violations = check_regression(base, cand, Tolerance(f1_drop=0.01))
        assert any("em_f1 regressed" in v for v in violations)

    def test_f1_gate_disabled_by_nonpositive_tolerance(self):
        base = _manifest(em_f1=0.80)
        cand = _manifest(em_f1=0.10)
        assert check_regression(base, cand, Tolerance(f1_drop=0.0)) == []

    def test_missing_candidate_f1_is_a_violation(self):
        violations = check_regression(_manifest(em_f1=0.8), _manifest())
        assert any("no em_f1" in v for v in violations)

    def test_health_counter_rise_trips(self):
        base = _manifest(em_f1=0.5, nonfinite_skipped=0, quarantined=0)
        cand = _manifest(em_f1=0.5, nonfinite_skipped=3, quarantined=0)
        violations = check_regression(base, cand)
        assert any("nonfinite_skipped rose: 0 -> 3" in v for v in violations)
        assert check_regression(base, cand, Tolerance(health=False)) == []

    def test_incomplete_candidate_is_a_violation(self):
        cand = _manifest(status="running", em_f1=0.9)
        violations = check_regression(_manifest(em_f1=0.5), cand)
        assert any("not 'completed'" in v for v in violations)

    def test_throughput_gate_off_by_default(self):
        base = _manifest(em_f1=0.5, infer_pairs_per_s=1000.0)
        cand = _manifest(em_f1=0.5, infer_pairs_per_s=10.0)
        assert check_regression(base, cand) == []

    def test_faithfulness_gate(self):
        base = _manifest(em_f1=0.8, faithfulness_gap=0.24)
        cand = _manifest(em_f1=0.8, faithfulness_gap=0.05)
        # Off by default; trips only under an explicit tolerance.
        assert check_regression(base, cand) == []
        violations = check_regression(
            base, cand, Tolerance(faithfulness_drop=0.05))
        assert any("faithfulness regressed" in v for v in violations)
        assert check_regression(
            base, cand, Tolerance(faithfulness_drop=0.5)) == []

    def test_faithfulness_gate_requires_candidate_metric(self):
        base = _manifest(em_f1=0.8, faithfulness_gap=0.24)
        violations = check_regression(
            base, _manifest(em_f1=0.8), Tolerance(faithfulness_drop=0.05))
        assert any("no faithfulness_gap" in v for v in violations)

    def test_faithfulness_gate_skips_non_explain_baselines(self):
        """A baseline that never recorded the metric cannot gate on it."""
        base = _manifest(em_f1=0.8)
        cand = _manifest(em_f1=0.8)
        assert check_regression(
            base, cand, Tolerance(faithfulness_drop=0.05,
                                  agreement_drop=0.05)) == []

    def test_agreement_gate(self):
        base = _manifest(em_f1=0.8, aoa_lime_spearman=0.4)
        cand = _manifest(em_f1=0.8, aoa_lime_spearman=-0.1)
        assert check_regression(base, cand) == []
        violations = check_regression(
            base, cand, Tolerance(agreement_drop=0.3))
        assert any("LIME/AoA agreement regressed" in v for v in violations)

    def test_load_baseline_from_file_and_store(self, tmp_path):
        store = RunStore(tmp_path / "store")
        writer = store.create(name="named")
        writer.finish(em_f1=0.7)
        assert load_baseline("named", store)["metrics"]["em_f1"] == 0.7
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(_manifest(em_f1=0.9)), encoding="utf-8")
        assert load_baseline(str(path), store)["metrics"]["em_f1"] == 0.9
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(str(bad), store)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

class TestRendering:
    def test_render_curve_shape(self):
        out = render_curve(list(range(100)), [float(i) for i in range(100)],
                           title="loss", width=40, height=5)
        lines = out.splitlines()
        assert lines[0].startswith("loss")
        assert "99" in lines[1] and "0" in lines[-2]  # y-axis labels
        assert all(len(line) <= 52 for line in lines)

    def test_render_curve_empty(self):
        assert "(no data)" in render_curve([], [], title="loss")

    def test_render_list_and_show(self, tmp_path):
        store = RunStore(tmp_path)
        assert "(no runs recorded)" in render_list(store.list())
        writer = store.create(name="shown", model="emba",
                              dataset="bikes", seed=0)
        writer.log_step(0, loss=2.0)
        writer.log_step(1, loss=1.0, valid_f1=0.5)
        writer.log_event("resume", epoch=1)
        writer.finish(em_f1=0.25)
        listing = render_list(store.list())
        assert "shown" in listing and "0.2500" in listing
        shown = render_show(store.get(writer.id))
        assert "loss" in shown and "valid_f1" in shown
        assert "em_f1" in shown and "resume" in shown

    def test_diff_runs(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.create(name="a", config={"seed": 0}, seed=0)
        a.log_step(0, loss=2.0)
        a.finish(em_f1=0.5)
        b = store.create(name="b", config={"seed": 1}, seed=1)
        b.log_step(0, loss=1.8)
        b.finish(em_f1=0.6)
        out = diff_runs(store.get(a.id), store.get(b.id))
        assert "config.seed: 0 -> 1" in out
        assert "em_f1" in out and "+0.1" in out


# ----------------------------------------------------------------------
# End-to-end through the runner and the CLI
# ----------------------------------------------------------------------

SPEC = RunSpec(dataset="wdc_computers", model="deepmatcher", size="small",
               seed=0, epochs=2, vocab_size=400, max_length=96)


class TestEndToEnd:
    def test_run_experiment_records_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        metrics = run_experiment(SPEC, use_cache=False, probe_every=2)
        store = RunStore()
        record = store.resolve("latest")
        assert record.status == "completed"
        assert record.name == "deepmatcher-wdc_computers-small-s0"
        assert record.metrics["em_f1"] == metrics["em_f1"]
        assert record.manifest["config"]["epochs"] == 2
        steps, _ = record.channel("loss")
        assert len(steps) == len(set(steps)) > 0
        assert record.channel("valid_f1")[0]  # one point per epoch
        assert any(c.startswith("probe.grad_norm") for c in record.channels())
        stages = [e["stage"] for e in record.events()
                  if e.get("name") == "stage"]
        assert stages[0] == "load_data" and stages[-1] == "done"

    def test_cache_hit_records_no_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_experiment(SPEC, use_cache=True)
        n_runs = len(RunStore().list())
        run_experiment(SPEC, use_cache=True)      # served from cache
        assert len(RunStore().list()) == n_runs

    def test_failed_run_sealed_as_failed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plan = FaultPlan().fail_at("runner.train", hit=0)
        with inject(plan), pytest.raises(Exception):
            run_experiment(SPEC, use_cache=False)
        record = RunStore().resolve("latest")
        assert record.status == "failed"
        assert record.manifest["error"]

    def test_cli_list_show_diff_check(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        base_args = ["run", "--dataset", "wdc_computers", "--size", "small",
                     "--model", "deepmatcher", "--profile", "smoke",
                     "--no-cache", "--probe-every", "2"]
        assert main(base_args + ["--seed", "0", "--name", "base"]) == 0
        assert main(base_args + ["--seed", "1", "--name", "cand"]) == 0
        capsys.readouterr()

        assert main(["runs", "list"]) == 0
        listing = capsys.readouterr().out
        assert "base" in listing and "cand" in listing

        assert main(["runs", "show", "base"]) == 0
        shown = capsys.readouterr().out
        assert "loss" in shown and "metrics:" in shown

        assert main(["runs", "diff", "base", "cand"]) == 0
        diffed = capsys.readouterr().out
        assert "config.seed: 0 -> 1" in diffed

        # Identical rerun regresses nothing: same config, served fresh.
        assert main(["runs", "check", "cand", "--baseline", "base",
                     "--f1-tol", "1.0"]) == 0
        assert "ok:" in capsys.readouterr().out

        assert main(["runs", "show", "no-such-run"]) == 2
        capsys.readouterr()

        assert main(["runs", "prune", "--keep", "1"]) == 0
        assert len(RunStore().list()) == 1

    def test_watchdog_catches_injected_regression(self, tmp_path,
                                                  monkeypatch, capsys):
        """A NaN-skipping run trips the health gate against a clean baseline."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_experiment(SPEC, use_cache=False, run_name="clean")
        plan = FaultPlan().nanify_loss_at(0).nanify_loss_at(1)
        with inject(plan):
            run_experiment(SPEC, use_cache=False, run_name="faulty")
        record = RunStore().resolve("faulty")
        assert record.metrics["nonfinite_skipped"] == 2

        assert main(["runs", "check", "faulty", "--baseline", "clean",
                     "--f1-tol", "0"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "nonfinite_skipped rose" in out
        # The same candidate passes with the health gate off.
        assert main(["runs", "check", "faulty", "--baseline", "clean",
                     "--f1-tol", "0", "--no-health"]) == 0


class TestPairedOverheadGate:
    """The recording-overhead bar of ``benchmarks/bench_ext_runs.py``:
    the median of 10 paired per-round ratios against a 3% bound, on
    synthetic fit times with host drift, per-fit noise and load spikes."""

    BOUND = 0.03

    @staticmethod
    def rounds(seed: int, overhead: float, count: int = 10):
        rng = np.random.default_rng(seed)
        drift = np.exp(rng.normal(0.0, 0.15, count))   # shared by a round

        def fits(scale):
            noise = np.exp(rng.normal(0.0, 0.02, count))
            spikes = np.where(rng.random(count) < 0.1, 1.3, 1.0)
            return 0.7 * scale * drift * noise * spikes

        return fits(1.0), fits(1.0 + overhead)

    def test_ten_percent_overhead_trips(self):
        for seed in range(20):
            assert paired_overhead(*self.rounds(seed, 0.10)) >= self.BOUND

    def test_aa_noise_does_not_trip(self):
        for seed in range(20):
            assert paired_overhead(*self.rounds(seed, 0.0)) < self.BOUND

    def test_pairs_cancel_drift(self):
        plain = [1.0, 2.0, 0.5]
        assert paired_overhead(plain, [1.1 * t for t in plain]) == \
            pytest.approx(0.1)

    def test_needs_one_pair_per_round(self):
        with pytest.raises(ValueError):
            paired_overhead([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            paired_overhead([], [])
