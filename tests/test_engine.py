"""Tests for the batched inference engine (bucketing, memo, no_grad)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.blocking import MatchingPipeline, TokenBlocker
from repro.data.loader import (
    PairEncoder,
    collate,
    plan_buckets,
)
from repro.data.schema import EntityPair, EntityRecord
from repro.engine import EngineConfig, EngineStats, InferenceEngine, LRUCache
from repro.explain.lime import LimeExplainer
from repro.fasttext import FastTextEncoder
from repro.models import Emba, EmbaDual
from repro.models.base import EMModel, EMOutput
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.text import SubwordHasher, WordPieceTokenizer, train_wordpiece

VOCAB_WORDS = ("sandisk ultra compactflash card 4gb retail transcend 300x "
               "samsung evo ssd 1tb lexar pro sd 32gb usb stick flash").split()

CORPUS = [" ".join(VOCAB_WORDS[i:i + 6]) for i in range(0, len(VOCAB_WORDS), 3)] * 2

CFG = BertConfig(vocab_size=400, hidden_size=16, num_layers=1, num_heads=2,
                 intermediate_size=32, max_position=96, dropout=0.0,
                 attention_dropout=0.0)


@pytest.fixture(scope="module")
def tokenizer():
    return WordPieceTokenizer(train_wordpiece(CORPUS, vocab_size=400))


@pytest.fixture(scope="module")
def encoder(tokenizer):
    return PairEncoder(tokenizer, max_length=CFG.max_position)


def _random_records(rng, count, min_words=1, max_words=12):
    records = []
    for _ in range(count):
        n = int(rng.integers(min_words, max_words + 1))
        words = rng.choice(VOCAB_WORDS, size=n)
        records.append(EntityRecord.from_dict({"t": " ".join(words)}))
    return records


def _random_pairs(rng, num_records=10, num_pairs=30):
    records = _random_records(rng, num_records)
    return [
        EntityPair(records[int(rng.integers(num_records))],
                   records[int(rng.integers(num_records))],
                   int(rng.integers(2)))
        for _ in range(num_pairs)
    ]


@pytest.fixture(scope="module")
def bert_model(tokenizer):
    cfg = CFG.with_vocab(len(tokenizer.vocab))
    bert = BertModel(cfg, np.random.default_rng(0))
    model = Emba(bert, cfg.hidden_size, 4, np.random.default_rng(1))
    model.eval()
    return model


@pytest.fixture(scope="module")
def fasttext_model(tokenizer):
    hasher = SubwordHasher(num_buckets=256)
    ft = FastTextEncoder(tokenizer.vocab, hasher, 24, np.random.default_rng(2))
    model = Emba(ft, 24, 4, np.random.default_rng(3))
    model.eval()
    return model


@pytest.fixture(scope="module")
def dual_model(tokenizer):
    cfg = CFG.with_vocab(len(tokenizer.vocab))
    bert = BertModel(cfg, np.random.default_rng(0))
    model = EmbaDual(bert, cfg.hidden_size, 4, np.random.default_rng(1))
    model.eval()
    return model


class _SpyModel(EMModel):
    """Minimal model recording grad mode and tape size of its outputs."""

    def __init__(self):
        super().__init__()
        self.w = Parameter(np.array([0.05], dtype=np.float32))
        self.grad_flags = []
        self.tape_sizes = []

    def forward(self, batch):
        self.grad_flags.append(is_grad_enabled())
        lengths = Tensor(batch.attention_mask.sum(axis=1, keepdims=True))
        logits = (lengths * self.w).sum(axis=1)
        self.tape_sizes.append(len(logits._parents))
        return EMOutput(em_logits=logits)


# ----------------------------------------------------------------------
# Bucket planning (pure function -> property-based)
# ----------------------------------------------------------------------
class TestPlanBuckets:
    @given(st.lists(st.integers(min_value=1, max_value=120), min_size=0,
                    max_size=60),
           st.integers(min_value=1, max_value=9),
           st.floats(min_value=0.0, max_value=0.9, exclude_max=True))
    @settings(max_examples=80, deadline=None)
    def test_partition_and_bounds(self, lengths, batch_size, waste):
        buckets = plan_buckets(lengths, batch_size, max_pad_waste=waste)
        flat = np.concatenate([b for b in buckets]) if buckets else np.array([])
        assert sorted(flat.tolist()) == list(range(len(lengths)))
        for bucket in buckets:
            assert 1 <= len(bucket) <= batch_size
            longest = max(lengths[i] for i in bucket)
            cells = longest * len(bucket)
            real = sum(lengths[i] for i in bucket)
            assert 1.0 - real / cells <= waste + 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_buckets([1, 2], 0)
        with pytest.raises(ValueError):
            plan_buckets([1, 2], 4, max_pad_waste=1.0)


# ----------------------------------------------------------------------
# Engine scoring equivalence (the tentpole guarantee)
# ----------------------------------------------------------------------
class TestScoringEquivalence:
    @pytest.mark.parametrize("seed,batch_size,waste", [
        (0, 1, 0.25), (1, 4, 0.0), (2, 7, 0.5), (3, 32, 0.25),
    ])
    def test_bert_engine_matches_one_at_a_time(self, bert_model, encoder,
                                               seed, batch_size, waste):
        rng = np.random.default_rng(seed)
        pairs = _random_pairs(rng, num_pairs=17)
        naive = np.concatenate([
            bert_model.predict(collate([encoder.encode(p)]))["em_prob"]
            for p in pairs
        ])
        engine = InferenceEngine(bert_model, encoder, EngineConfig(
            batch_size=batch_size, max_pad_waste=waste))
        out = engine.score_pairs(pairs)
        np.testing.assert_allclose(out["em_prob"], naive, atol=1e-6)
        # Multi-task heads and batch-side fields scatter back in order.
        assert out["id1_pred"].shape == (len(pairs),)
        np.testing.assert_array_equal(out["labels"],
                                      [p.label for p in pairs])

    def test_fasttext_memoized_matches_per_pair(self, fasttext_model, encoder):
        rng = np.random.default_rng(11)
        pairs = _random_pairs(rng, num_records=6, num_pairs=25)
        expected = np.concatenate([
            fasttext_model.predict(collate([encoder.encode(p)]))["em_prob"]
            for p in pairs
        ])
        memo = InferenceEngine(fasttext_model, encoder,
                               EngineConfig(batch_size=8))
        cold = memo.score_pairs(pairs)["em_prob"]
        np.testing.assert_allclose(cold, expected, atol=1e-6)
        assert memo.stats.encoder_hits > 0
        # 25 pairs over 6 records, like blocking output: records recur,
        # so the tokenization memo hits and bucketing bounds the padding.
        assert memo.stats.encode_hits > 0
        assert memo.stats.pad_waste_ratio < 0.25
        # Warm pass: every token id is already in the table.
        misses = memo.stats.encoder_misses
        warm = memo.score_pairs(pairs)["em_prob"]
        np.testing.assert_array_equal(warm, cold)
        assert memo.stats.encoder_misses == misses
        # The model still owns its real encoder after scoring.
        assert fasttext_model.encoder.position_independent

    def test_fasttext_oov_pair_quarantined_without_partial_rows(
            self, fasttext_model, encoder):
        """An out-of-vocabulary id poisons only its pair; the failed
        batches write no table rows, so healthy scores never change."""
        rng = np.random.default_rng(17)
        healthy = [encoder.encode(p)
                   for p in _random_pairs(rng, num_records=8, num_pairs=15)]
        poison = encoder.encode(_random_pairs(rng, num_pairs=1)[0])
        poison.input_ids[1] = fasttext_model.encoder.vocab_size + 3
        encoded = healthy[:7] + [poison] + healthy[7:]
        # One bucket: the first failing batch holds every healthy id too.
        engine = InferenceEngine(fasttext_model, encoder, EngineConfig(
            batch_size=len(encoded), max_pad_waste=0.9))
        out = engine.score_encoded(encoded)
        assert np.flatnonzero(out["quarantined"]).tolist() == [7]
        first = np.delete(out["em_prob"], 7)
        again = engine.score_encoded(healthy)
        assert not again["quarantined"].any()
        np.testing.assert_array_equal(again["em_prob"], first)
        expected = np.concatenate([fasttext_model.predict(collate([e]))["em_prob"]
                                   for e in healthy])
        np.testing.assert_allclose(first, expected, atol=1e-6)

    def test_repeat_scoring_is_deterministic(self, fasttext_model, encoder):
        rng = np.random.default_rng(13)
        pairs = _random_pairs(rng, num_pairs=12)
        engine = InferenceEngine(fasttext_model, encoder)
        first = engine.score_pairs(pairs)["em_prob"]
        second = engine.score_pairs(pairs)["em_prob"]
        np.testing.assert_array_equal(first, second)

    def test_empty_input(self, bert_model):
        engine = InferenceEngine(bert_model)
        out = engine.score_encoded([])
        assert out["em_prob"].shape == (0,)
        assert out["em_pred"].shape == (0,)


# ----------------------------------------------------------------------
# Dual-encoder output is bit-identical to the naive per-pair recompute,
# through both memo miss and memo hit paths.
# ----------------------------------------------------------------------
class TestDualEncoderParity:
    @pytest.mark.parametrize("seed,batch_size", [(0, 1), (1, 4), (2, 16)])
    def test_engine_bitwise_equals_naive(self, dual_model, encoder,
                                         seed, batch_size):
        rng = np.random.default_rng(seed)
        pairs = _random_pairs(rng)
        naive = np.concatenate([
            dual_model.predict(collate([encoder.encode(p)]))["em_prob"]
            for p in pairs
        ])
        engine = InferenceEngine(dual_model, encoder,
                                 EngineConfig(batch_size=batch_size))
        cold = engine.score_pairs(pairs)   # record cache empty: miss path
        warm = engine.score_pairs(pairs)   # record cache full: hit path
        np.testing.assert_array_equal(cold["em_prob"], naive)
        np.testing.assert_array_equal(warm["em_prob"], naive)
        # ID heads ride the same stitched sequence: identical too.
        np.testing.assert_array_equal(cold["id1_pred"], warm["id1_pred"])
        np.testing.assert_array_equal(cold["id2_pred"], warm["id2_pred"])

    def test_training_forward_matches_engine(self, dual_model, encoder):
        """model(batch) (the training path) agrees with the engine."""
        rng = np.random.default_rng(3)
        pairs = _random_pairs(rng, num_pairs=9)
        batch = collate([encoder.encode(p) for p in pairs])
        direct = dual_model.predict(batch)["em_prob"]
        engine = InferenceEngine(dual_model, encoder,
                                 EngineConfig(batch_size=4))
        np.testing.assert_array_equal(engine.score_pairs(pairs)["em_prob"],
                                      direct)

    def test_record_memo_bitwise_equals_per_pair(self, dual_model, encoder):
        rng = np.random.default_rng(4)
        pairs = _random_pairs(rng, num_pairs=11)
        naive = np.concatenate([
            dual_model.predict(collate([encoder.encode(p)]))["em_prob"]
            for p in pairs
        ])
        on = InferenceEngine(dual_model, encoder,
                             EngineConfig(batch_size=4))
        np.testing.assert_array_equal(on.score_pairs(pairs)["em_prob"],
                                      naive)
        assert on.stats.record_misses > 0

    def test_record_memo_hits_on_blocking_shape(self, dual_model, encoder):
        """Each record in many pairs => far fewer encodes than 2x pairs."""
        rng = np.random.default_rng(5)
        pairs = _random_pairs(rng, num_records=5, num_pairs=30)
        engine = InferenceEngine(dual_model, encoder,
                                 EngineConfig(batch_size=8))
        engine.score_pairs(pairs)
        stats = engine.stats
        assert stats.record_hits + stats.record_misses == 2 * len(pairs)
        assert stats.record_misses <= 2 * 5 * 2   # ~records x few lengths
        assert stats.record_hit_rate > 0.5


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------
class TestMemo:
    def test_record_memo_bit_identical_on_hits(self, bert_model, encoder):
        engine = InferenceEngine(bert_model, encoder)
        record1 = EntityRecord.from_dict({"t": "sandisk ultra card 4gb"})
        record2 = EntityRecord.from_dict({"t": "transcend card 4gb retail"},
                                         source="b")
        pair = EntityPair(record1, record2, 1)
        cold = engine.encode_pair(pair)
        assert engine.stats.encode_hits == 0
        warm = engine.encode_pair(pair)
        assert engine.stats.encode_hits == 2  # both records hit
        np.testing.assert_array_equal(cold.input_ids, warm.input_ids)
        np.testing.assert_array_equal(cold.segment_ids, warm.segment_ids)
        np.testing.assert_array_equal(cold.mask1, warm.mask1)
        np.testing.assert_array_equal(cold.mask2, warm.mask2)
        assert cold.tokens == warm.tokens
        assert (cold.label, cold.id1, cold.id2) == (warm.label, warm.id1, warm.id2)
        # And matches the unmemoized encoder exactly.
        direct = encoder.encode(pair)
        np.testing.assert_array_equal(cold.input_ids, direct.input_ids)

    def test_lru_eviction_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)          # evicts "b" (least recently used)
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.hits == 2 and cache.misses == 1

    def test_stats_snapshot(self, fasttext_model, encoder):
        engine = InferenceEngine(fasttext_model, encoder)
        rng = np.random.default_rng(5)
        engine.score_pairs(_random_pairs(rng, num_pairs=9))
        stats = engine.stats
        assert isinstance(stats, EngineStats)
        assert stats.pairs_scored == 9
        assert stats.batches >= 1
        assert 0.0 <= stats.pad_waste_ratio < 1.0
        assert stats.real_tokens <= stats.token_cells
        assert stats.wall_seconds > 0
        engine.reset_stats()
        empty = engine.stats
        assert empty.pairs_scored == 0 and empty.encode_hits == 0


# ----------------------------------------------------------------------
# no_grad guarantee (satellite: autodiff-tape leak audit)
# ----------------------------------------------------------------------
class TestNoGradGuarantee:
    def test_engine_score_never_records_tape(self, encoder):
        model = _SpyModel()
        engine = InferenceEngine(model, encoder)
        rng = np.random.default_rng(3)
        engine.score_pairs(_random_pairs(rng, num_pairs=8))
        assert model.grad_flags and not any(model.grad_flags)
        assert all(size == 0 for size in model.tape_sizes)
        assert all(p.grad is None for p in model.parameters())

    def test_lime_scoring_never_records_tape(self, encoder):
        model = _SpyModel()
        explainer = LimeExplainer(model, encoder, num_samples=12, seed=0)
        pair = EntityPair(
            EntityRecord.from_dict({"t": "sandisk ultra card"}),
            EntityRecord.from_dict({"t": "transcend card retail"}, source="b"),
            0,
        )
        explainer.explain(pair)
        assert model.grad_flags and not any(model.grad_flags)
        assert all(size == 0 for size in model.tape_sizes)

    def test_pipeline_scoring_never_records_tape(self, encoder):
        model = _SpyModel()
        pipeline = MatchingPipeline(TokenBlocker(), model, encoder)
        rng = np.random.default_rng(4)
        left = _random_records(rng, 5)
        right = _random_records(rng, 5)
        pipeline.match(left, right)
        assert model.grad_flags and not any(model.grad_flags)
        assert all(size == 0 for size in model.tape_sizes)

    def test_training_mode_restored(self, encoder):
        model = _SpyModel()
        model.train()
        engine = InferenceEngine(model, encoder)
        rng = np.random.default_rng(6)
        engine.score_pairs(_random_pairs(rng, num_pairs=4))
        assert model.training


# ----------------------------------------------------------------------
# Pipeline threshold (satellite bugfix)
# ----------------------------------------------------------------------
class TestPipelineThreshold:
    def _pipeline(self, encoder, threshold):
        class _Constant(EMModel):
            """Logit proportional to left-record length: probs straddle 0.5."""

            def __init__(self):
                super().__init__()
                self.w = Parameter(np.array([1.0], dtype=np.float32))

            def forward(self, batch):
                n1 = Tensor(batch.mask1.sum(axis=1, keepdims=True))
                logits = ((n1 - 4.0) * 0.4 * self.w).sum(axis=1)
                return EMOutput(em_logits=logits)

        return MatchingPipeline(TokenBlocker(), _Constant(), encoder,
                                threshold=threshold)

    def test_decision_carries_configured_threshold(self, encoder):
        rng = np.random.default_rng(9)
        left = _random_records(rng, 6, min_words=2, max_words=10)
        right = _random_records(rng, 6, min_words=2, max_words=10)
        pipeline = self._pipeline(encoder, threshold=0.9)
        decisions = pipeline.match(left, right)
        assert decisions
        for d in decisions:
            assert d.threshold == 0.9
            assert d.is_match == (d.probability >= 0.9)
        # A mid-probability decision must NOT count as a match at 0.9.
        mid = [d for d in decisions if 0.5 <= d.probability < 0.9]
        if mid:
            assert not any(d.is_match for d in mid)
        assert pipeline.matches(left, right) == [d for d in decisions
                                                 if d.is_match]

    def test_matches_agrees_with_is_match_at_default(self, encoder):
        rng = np.random.default_rng(10)
        left = _random_records(rng, 5)
        right = _random_records(rng, 5)
        pipeline = self._pipeline(encoder, threshold=0.5)
        for d in pipeline.match(left, right):
            assert d.is_match == (d.probability >= 0.5)
