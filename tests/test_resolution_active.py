"""Tests for cluster resolution and active learning."""

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.models.active import active_learn, uncertainty
from repro.resolution import resolve_clusters


class TestResolveClusters:
    def test_connected_components(self):
        resolution = resolve_clusters(
            ["a", "b", "c", "d"],
            [("a", "b", 0.9), ("b", "c", 0.8), ("c", "d", 0.1)],
        )
        assignment = resolution.cluster_of()
        assert assignment["a"] == assignment["b"] == assignment["c"]
        assert assignment["d"] != assignment["a"]

    def test_threshold_respected(self):
        resolution = resolve_clusters(["a", "b"], [("a", "b", 0.4)],
                                      threshold=0.5)
        assert resolution.num_clusters == 2

    def test_unmatched_records_are_singletons(self):
        resolution = resolve_clusters(["a", "b", "lonely"], [("a", "b", 0.9)])
        assert {"lonely"} in resolution.clusters

    def test_transitivity_repair_splits_giant_cluster(self):
        # One weak false-positive edge chains two true clusters together.
        pairs = [("a", "b", 0.95), ("b", "c", 0.9),
                 ("c", "x", 0.55),  # the false positive
                 ("x", "y", 0.95), ("y", "z", 0.9)]
        naive = resolve_clusters("abcxyz", pairs)
        assert naive.num_clusters == 1
        repaired = resolve_clusters("abcxyz", pairs, max_cluster_size=3)
        assert repaired.num_clusters == 2
        assignment = repaired.cluster_of()
        assert assignment["a"] == assignment["c"]
        assert assignment["x"] == assignment["z"]
        assert assignment["a"] != assignment["x"]

    def test_max_cluster_size_validation(self):
        with pytest.raises(ValueError):
            resolve_clusters(["a"], [], max_cluster_size=0)

    def test_split_is_arrival_order_invariant(self):
        """Transitivity repair must shed the same edge regardless of the
        order edges were added: ``_split_oversized`` previously tie-broke
        equal-weight edges by networkx adjacency iteration order."""
        # A 5-chain with every edge at the same weight: the dropped edge
        # is decided purely by the deterministic tie-break.
        pairs = [("a", "b", 0.9), ("b", "c", 0.9), ("c", "d", 0.9),
                 ("d", "e", 0.9)]
        reference = resolve_clusters("abcde", pairs, max_cluster_size=3)
        for order in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
            permuted = [pairs[i] for i in order]
            again = resolve_clusters("edcba", permuted, max_cluster_size=3)
            assert again.clusters == reference.clusters


class TestActiveLearning:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.bert.config import BertConfig
        from repro.bert.model import BertModel
        from repro.data.loader import PairEncoder
        from repro.models import SingleTaskMatcher
        from repro.text import WordPieceTokenizer, train_wordpiece

        ds = load_dataset("wdc_computers", size="medium")
        texts = [r.text() for p in ds.all_pairs() for r in (p.record1, p.record2)]
        tok = WordPieceTokenizer(train_wordpiece(texts, vocab_size=500))
        cfg = BertConfig(vocab_size=len(tok.vocab), hidden_size=16,
                         num_layers=1, num_heads=2, intermediate_size=32,
                         max_position=96, dropout=0.0, attention_dropout=0.0)
        enc = PairEncoder(tok, max_length=96)
        encoded = enc.encode_many(ds.train, ds)

        def factory():
            bert = BertModel(cfg, np.random.default_rng(0))
            return SingleTaskMatcher(bert, 16, np.random.default_rng(1))

        return {"factory": factory, "labeled": encoded[:24],
                "unlabeled": encoded[24:80],
                "valid": enc.encode_many(ds.valid, ds)}

    def test_uncertainty_function(self):
        scores = uncertainty(np.array([0.5, 0.9, 0.1]))
        np.testing.assert_allclose(scores, [0.0, 0.4, 0.4])

    def test_pool_grows_each_round(self, setup):
        from repro.models import TrainConfig

        result = active_learn(setup["factory"], setup["labeled"],
                              setup["unlabeled"], setup["valid"],
                              TrainConfig(epochs=1, seed=0),
                              rounds=2, budget_per_round=8)
        assert result.rounds_run == 2
        assert result.labeled_per_round == [24, 32]
        assert len(result.valid_f1_per_round) == 2

    def test_validation(self, setup):
        from repro.models import TrainConfig

        with pytest.raises(ValueError):
            active_learn(setup["factory"], [], [], [], TrainConfig(), rounds=0)
        with pytest.raises(ValueError):
            active_learn(setup["factory"], [], [], [], TrainConfig(),
                         budget_per_round=0)
