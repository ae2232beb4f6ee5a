"""Tests for remaining utilities: RandomState, corpus builder, throughput,
import layering."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.registry import load_dataset
from repro.nn.random import RandomState, seed_all
from repro.text.corpus import build_corpus


class TestRandomState:
    def test_children_independent(self):
        rs = RandomState(0)
        a = rs.child("init").random(5)
        b = rs.child("data").random(5)
        assert not np.allclose(a, b)

    def test_children_reproducible(self):
        a = RandomState(7).child("init").random(5)
        b = RandomState(7).child("init").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomState(1).child("x").random(5)
        b = RandomState(2).child("x").random(5)
        assert not np.allclose(a, b)

    def test_seed_all(self):
        a = seed_all(3).random(4)
        b = seed_all(3).random(4)
        np.testing.assert_array_equal(a, b)


class TestCorpus:
    def test_deduplicates(self):
        ds = load_dataset("bikes")
        corpus = build_corpus([ds, ds])
        assert len(corpus) == len(set(corpus))

    def test_excludes_test_texts(self):
        ds = load_dataset("bikes")
        corpus = set(build_corpus([ds]))
        train_texts = {r.text() for p in ds.train for r in (p.record1, p.record2)}
        # Every train text present...
        assert train_texts <= corpus
        # ...and nothing beyond train+valid.
        allowed = {r.text() for p in ds.train + ds.valid
                   for r in (p.record1, p.record2)}
        assert corpus <= allowed

    def test_no_empty_texts(self):
        ds = load_dataset("baby_products")
        assert all(build_corpus([ds]))


class TestModelThroughput:
    def test_deepmatcher_throughput(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.efficiency import measure_model_throughput

        result = measure_model_throughput("deepmatcher", min_seconds=0.05)
        assert result["train_pairs_per_s"] > 0
        assert result["infer_pairs_per_s"] > result["train_pairs_per_s"]

    def test_emba_ft_inference_uses_token_table(self, tmp_path, monkeypatch):
        """Table 7's EMBA(FT) row times the engine's fastText token table."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.efficiency import measure_model_throughput

        result = measure_model_throughput("emba_ft", min_seconds=0.05)
        assert result["infer_encoder_hit_rate"] > 0
        assert result["infer_pairs_per_s"] > result["train_pairs_per_s"]

    def test_table7_reads_models_in_alternation_and_takes_medians(
            self, monkeypatch):
        from repro.experiments import efficiency

        calls = []
        scripted = {"a": iter([10.0, 500.0, 30.0, 40.0, 20.0]),
                    "b": iter([20.0, 20.0, 1.0, 25.0, 2.0])}

        def probe(name):
            def reading():
                calls.append(name)
                rate = next(scripted[name])
                return {"model": name, "train_pairs_per_s": rate,
                        "infer_pairs_per_s": 2 * rate}
            return reading

        monkeypatch.setattr(efficiency, "_throughput_probe", probe)
        monkeypatch.setattr(efficiency, "_READINGS", 5)
        result = efficiency.measure_models_throughput(["a", "b"])
        assert calls == ["a", "b"] * 5
        # One outlier reading per model cannot move its row.
        assert result["a"]["train_pairs_per_s"] == 30.0
        assert result["a"]["infer_pairs_per_s"] == 60.0
        assert result["b"]["train_pairs_per_s"] == 20.0


class TestImportLayering:
    """Importing a subsystem loads only what it uses, in a fresh process."""

    @staticmethod
    def _loaded_after(module: str) -> list[str]:
        """Every module that ``import module`` loads."""
        code = (f"import sys; before = set(sys.modules); import {module}; "
                f"print(*sorted(set(sys.modules) - before))")
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    @pytest.mark.parametrize("module", ["repro.engine", "repro.blocking",
                                        "repro.models", "repro.stream",
                                        "repro.serve", "repro.eval"])
    def test_loads_no_dependency_but_numpy(self, module):
        loaded = self._loaded_after(module)
        packages = {m.split(".")[0] for m in loaded if not m.startswith("__")}
        assert packages - set(sys.stdlib_module_names) - {"repro"} <= {"numpy"}
        if module == "repro.engine":
            # The engine must not reach the evaluation layer either.
            assert "repro.eval" not in loaded

    @pytest.mark.parametrize("module", ["repro.data", "repro.resolution",
                                        "repro.stream"])
    def test_clustering_loads_no_networkx(self, module):
        assert not [m for m in self._loaded_after(module)
                    if m.split(".")[0] == "networkx"]
