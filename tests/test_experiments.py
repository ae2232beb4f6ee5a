"""Integration tests for the experiment harness (smoke profile)."""

import os

import numpy as np
import pytest

from repro.experiments.config import (
    MODEL_SPECS,
    PROFILES,
    RunSpec,
    TABLE2_MODELS,
    TABLE4_MODELS,
    active_profile,
)
from repro.experiments.runner import run_experiment
from repro.experiments.tables import table1


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


SMOKE = RunSpec(dataset="wdc_computers", model="emba", size="small", seed=0,
                epochs=2, pretrain_steps=20, vocab_size=400, max_length=96)


class TestConfig:
    def test_all_table_models_defined(self):
        for model in TABLE2_MODELS + TABLE4_MODELS:
            assert model in MODEL_SPECS

    def test_digest_stable_and_distinct(self):
        a = RunSpec(dataset="bikes", model="emba")
        b = RunSpec(dataset="bikes", model="emba")
        c = RunSpec(dataset="bikes", model="emba", seed=1)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_cache_keys_change_with_numerics_version(self, monkeypatch):
        # A warm cache must not hand back weights or scores produced by
        # older numerics: both on-disk keys carry the numerics version.
        from repro.bert import cache
        from repro.bert.config import PRESETS
        from repro.experiments import config

        spec = RunSpec(dataset="bikes", model="emba")
        preset = PRESETS["mini-small"]
        before = (spec.digest(), cache._digest(preset, ["a b"], 0))
        monkeypatch.setattr(config, "NUMERICS_VERSION",
                            config.NUMERICS_VERSION + 1)
        monkeypatch.setattr(cache, "NUMERICS_VERSION",
                            cache.NUMERICS_VERSION + 1)
        after = (spec.digest(), cache._digest(preset, ["a b"], 0))
        assert before[0] != after[0]
        assert before[1] != after[1]

    def test_profiles(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert active_profile().name == "smoke"
        monkeypatch.delenv("REPRO_PROFILE")
        assert active_profile().name == "quick"
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(KeyError):
            active_profile()

    def test_full_profile_covers_paper_grid(self):
        assert len(PROFILES["full"].grid) == 22
        assert len(PROFILES["full"].seeds_main) == 5


class TestRunner:
    def test_run_experiment_metrics(self):
        metrics = run_experiment(SMOKE, use_cache=False)
        for key in ("em_f1", "em_precision", "em_recall", "acc1", "acc2",
                    "id_micro_f1", "epochs_run", "train_seconds"):
            assert key in metrics
        assert 0.0 <= metrics["em_f1"] <= 1.0
        assert 0.0 <= metrics["acc1"] <= 1.0

    def test_single_task_has_no_id_metrics(self):
        spec = RunSpec(dataset="wdc_computers", model="bert", size="small",
                       seed=0, epochs=2, pretrain_steps=20, vocab_size=400)
        metrics = run_experiment(spec, use_cache=False)
        assert "acc1" not in metrics

    def test_result_cache_roundtrip(self):
        first = run_experiment(SMOKE, use_cache=True)
        second = run_experiment(SMOKE, use_cache=True)
        assert first == second

    def test_failed_cache_write_leaves_no_partial_entry(self, tmp_path,
                                                        monkeypatch):
        from repro.experiments import runner

        def killed(src, dst):
            raise OSError("killed before the rename")

        replace = os.replace
        monkeypatch.setattr(runner, "_execute",
                            lambda spec, **_: {"em_f1": 0.5})
        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            run_experiment(SMOKE, record_run=False)
        assert list((tmp_path / "results").iterdir()) == []
        # The next run misses the cache cleanly and fills it.
        monkeypatch.setattr(os, "replace", replace)
        assert run_experiment(SMOKE, record_run=False) == {"em_f1": 0.5}
        assert [p.name for p in (tmp_path / "results").iterdir()] == [
            f"{SMOKE.digest()}.json"]

    def test_subsampling_applied(self):
        spec = RunSpec(dataset="wdc_computers", model="deepmatcher",
                       size="small", seed=0, epochs=2, subsample_positives=5,
                       vocab_size=400)
        metrics = run_experiment(spec, use_cache=False)
        assert metrics["spec_subsample_positives"] == 5

    def test_fasttext_encoder_path(self):
        spec = RunSpec(dataset="wdc_computers", model="emba_ft", size="small",
                       seed=0, epochs=2, vocab_size=400)
        metrics = run_experiment(spec, use_cache=False)
        assert "em_f1" in metrics


class TestTables:
    def test_table1_covers_all_configs(self):
        result = table1()
        assert len(result.rows) == 22
        assert "lrid" in result.headers
        assert "Table 1" in result.rendered

    def test_table1_save(self, tmp_path):
        result = table1()
        out = result.save(tmp_path)
        assert out.exists()
        assert out.read_text().startswith("Table 1")

    def test_table1_wdc_lrid_below_dblp(self):
        result = table1()
        by_name = {}
        for row in result.rows:
            by_name[(row[0], row[1])] = row[4]
        assert by_name[("wdc_computers", "xlarge")] < by_name[("dblp_scholar", "default")]


class TestExtensionModelSpecs:
    def test_unmasked_aoa_model_runs(self):
        spec = RunSpec(dataset="wdc_computers", model="emba_unmasked_aoa",
                       size="small", seed=0, epochs=2, pretrain_steps=20,
                       vocab_size=400)
        metrics = run_experiment(spec, use_cache=False)
        assert "em_f1" in metrics and "acc1" in metrics

    def test_described_serialization_models_run(self):
        for model in ("bert_described", "emba_described"):
            spec = RunSpec(dataset="wdc_computers", model=model,
                           size="small", seed=0, epochs=2, pretrain_steps=20,
                           vocab_size=400)
            metrics = run_experiment(spec, use_cache=False)
            assert 0.0 <= metrics["em_f1"] <= 1.0
