"""Tests for the blocking subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    MatchingPipeline,
    MinHashBlocker,
    SortedNeighborhoodBlocker,
    TokenBlocker,
    evaluate_blocking,
)
from repro.blocking.base import BlockingResult, CandidatePair
from repro.data.registry import load_dataset
from repro.data.schema import EntityRecord


def rec(text: str, source="a") -> EntityRecord:
    return EntityRecord.from_dict({"t": text}, source=source)


LEFT = [
    rec("sandisk ultra sdcfh compactflash card"),
    rec("samsung 850 evo ssd terabyte"),
    rec("kingston datatraveler usb drive"),
    rec("nike air zoom running shoe"),
]
RIGHT = [
    rec("sandisk sdcfh cf card ultra", source="b"),
    rec("samsung evo ssd 850 retail", source="b"),
    rec("canon eos dslr camera kit", source="b"),
    rec("nike zoom shoe mens", source="b"),
]
GOLD = [(0, 0), (1, 1), (3, 3)]


class TestMetrics:
    def test_perfect_blocking(self):
        result = BlockingResult([CandidatePair(*g) for g in GOLD], 4, 4)
        metrics = evaluate_blocking(result, GOLD)
        assert metrics["pair_completeness"] == 1.0
        assert metrics["reduction_ratio"] == pytest.approx(1 - 3 / 16)

    def test_missing_matches(self):
        result = BlockingResult([CandidatePair(0, 0)], 4, 4)
        metrics = evaluate_blocking(result, GOLD)
        assert metrics["pair_completeness"] == pytest.approx(1 / 3)

    def test_empty_gold(self):
        result = BlockingResult([], 4, 4)
        assert evaluate_blocking(result, [])["pair_completeness"] == 1.0


class TestTokenBlocker:
    def test_finds_gold_matches(self):
        result = TokenBlocker().block(LEFT, RIGHT)
        metrics = evaluate_blocking(result, GOLD)
        assert metrics["pair_completeness"] == 1.0

    def test_prunes_cross_product(self):
        result = TokenBlocker().block(LEFT, RIGHT)
        assert result.comparison_count < result.full_cross_product

    def test_min_common_raises_precision(self):
        loose = TokenBlocker(min_common=1).block(LEFT, RIGHT)
        strict = TokenBlocker(min_common=2).block(LEFT, RIGHT)
        assert strict.comparison_count <= loose.comparison_count

    def test_stop_words_filtered(self):
        # 'retail' on every record must not create candidates by itself.
        left = [rec(f"item{i} retail") for i in range(10)]
        right = [rec(f"thing{i} retail", source="b") for i in range(10)]
        result = TokenBlocker(max_token_frequency=0.5).block(left, right)
        assert result.comparison_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBlocker(min_common=0)
        with pytest.raises(ValueError):
            TokenBlocker(max_token_frequency=0.0)

    def test_deduplicated_sorted_candidates(self):
        result = TokenBlocker().block(LEFT, RIGHT)
        pairs = [(c.left, c.right) for c in result.candidates]
        assert pairs == sorted(set(pairs))


class TestMinHashBlocker:
    def test_finds_similar_pairs(self):
        result = MinHashBlocker(num_hashes=64, bands=32).block(LEFT, RIGHT)
        metrics = evaluate_blocking(result, GOLD)
        assert metrics["pair_completeness"] >= 2 / 3

    def test_signature_deterministic(self):
        blocker = MinHashBlocker(seed=1)
        tokens = {"sandisk", "card", "ultra"}
        np.testing.assert_array_equal(blocker.signature(tokens),
                                      blocker.signature(tokens))

    def test_identical_sets_identical_signature(self):
        blocker = MinHashBlocker()
        a = blocker.signature({"x", "y", "z"})
        b = blocker.signature({"z", "y", "x"})
        np.testing.assert_array_equal(a, b)

    def test_bands_divisibility_validated(self):
        with pytest.raises(ValueError):
            MinHashBlocker(num_hashes=10, bands=3)

    @given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4),
                   min_size=3, max_size=12),
           st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4),
                   min_size=3, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_jaccard_estimate_roughly_unbiased(self, set_a, set_b):
        blocker = MinHashBlocker(num_hashes=256, bands=8, seed=0)
        true_jaccard = len(set_a & set_b) / len(set_a | set_b)
        estimate = blocker.estimated_jaccard(
            blocker.signature(set_a), blocker.signature(set_b)
        )
        assert abs(estimate - true_jaccard) < 0.25

    def test_empty_tokens_signature(self):
        blocker = MinHashBlocker()
        sig = blocker.signature(set())
        assert sig.shape == (blocker.num_hashes,)


class TestMinHashExactArithmetic:
    """The int64-overflow fix: signatures must equal exact universal hashing.

    The pre-fix implementation computed ``(a * x + b) mod p`` in wrapping
    int64 arithmetic, so any product past 2^63 silently corrupted the
    minima.  These tests pin the mod-safe path against unbounded
    Python-int arithmetic.
    """

    @staticmethod
    def exact_signature(blocker, tokens):
        from repro.blocking.minhash import _MERSENNE
        from repro.text.subword import fnv1a

        values = [fnv1a(t) for t in tokens]
        return [
            min((int(a) * v + int(b)) % _MERSENNE for v in values)
            for a, b in zip(blocker._a, blocker._b)
        ]

    @given(st.sets(st.text(alphabet="abcdefgh0123-/.éß中\u200b😀",
                           min_size=1, max_size=6),
                   min_size=1, max_size=30),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_signature_matches_exact_minima(self, tokens, seed):
        blocker = MinHashBlocker(num_hashes=48, bands=12, seed=seed)
        assert blocker.signature(tokens).tolist() == \
            self.exact_signature(blocker, tokens)

    def test_pinned_regression_signature(self):
        # Frozen output of seed-7 exact arithmetic; a reintroduced
        # overflow (or a changed a/b stream) breaks these values.
        blocker = MinHashBlocker(num_hashes=8, bands=4, seed=7)
        sig = blocker.signature({"sandisk", "ultra", "cf", "card"})
        assert sig.tolist() == [
            1287661493878756680, 44993262091473166, 346678567773571877,
            87802411236806980, 324877583824537944, 555785601297972605,
            587489269562786492, 230239323508036448,
        ]

    @staticmethod
    def with_params(blocker, a, b):
        """Force the hash parameters ``a`` and ``b`` (one per hash).

        Only on an unused blocker: memoized rows were hashed with the
        old parameters, and forced ones must never meet them.
        """
        assert not blocker._memo, "with_params on a blocker with rows"
        blocker._a = np.array(a, dtype=np.uint64)
        blocker._b = np.array(b, dtype=np.uint64)
        blocker._a_hi = blocker._a >> np.uint64(32)
        blocker._a_lo = blocker._a & np.uint64(2**32 - 1)
        return blocker

    def test_extreme_operands_match_python_ints(self, monkeypatch):
        # Token hashes forced to the edges of the 32-bit range and
        # (a, b) to the edges of [1, p) x [0, p): every fold reaches its
        # bound, and a*x + b = p (a = x = 1, b = p - 1) leaves exactly p
        # before the final reduction.
        from repro.blocking import minhash
        from repro.blocking.minhash import _MERSENNE as p

        monkeypatch.setattr(minhash, "fnv1a", int)
        a_values = [1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**61 - 2**32,
                    p - 2, p - 1]
        b_values = [0, 1, 2**32, p - 2, p - 1]
        pairs = [(a, b) for a in a_values for b in b_values]
        blocker = self.with_params(
            MinHashBlocker(num_hashes=len(pairs), bands=1),
            [a for a, _ in pairs], [b for _, b in pairs])
        xs = [0, 1, 2, 7, 2**29, 2**31, 2**32 - 2, 2**32 - 1]
        for token_set in [{str(x)} for x in xs] + [{str(x) for x in xs}]:
            values = [int(t) for t in token_set]
            expected = [min((a * v + b) % p for v in values)
                        for a, b in pairs]
            assert blocker.signature(token_set).tolist() == expected

    def test_pinned_offer_stream_digest(self):
        # sha256 of the signatures of 500 WDC offers, recorded before the
        # integer-fold rewrite of ``signature``.  Any changed bit breaks
        # stream == batch parity, and recovery re-hashes every snapshot
        # record: ``_load_state`` refuses a snapshot whose rebuild emits a
        # pair.  One blocker hashes all 500 offers, so most signatures
        # here come from memoized token rows: the digest pins that path.
        import hashlib

        from repro.data.generators.wdc import wdc_offer_stream
        from repro.text.normalize import basic_tokenize

        blocker = MinHashBlocker(num_hashes=96, bands=8, seed=0)
        digest = hashlib.sha256()
        for _key, record in wdc_offer_stream("computers", 500, seed=0):
            tokens = set(basic_tokenize(record.text()))
            digest.update(blocker.signature(tokens).tobytes())
        assert digest.hexdigest() == (
            "f94a15803ea04062f4d2bb46b6e2b89061a83b5b871f5c6d32f16eea330a3649")

    def test_memo_hits_and_misses_stay_exact(self):
        # Overlapping sets in both orders: each set is all-miss, all-hit
        # or mixed against the rows its predecessors left memoized.
        sets = [{"ssd", "evo", "1tb"}, {"evo", "ssd"}, {"1tb", "hdd", "wd"},
                {"wd", "evo"}, {"red"}, {"red", "ssd", "blue", "hdd"}]
        for order in (sets, sets[::-1]):
            blocker = MinHashBlocker(num_hashes=24, bands=6, seed=3)
            seen: set[str] = set()
            kinds = set()
            for tokens in order:
                missing = len(tokens - seen)
                kinds.add("miss" if missing == len(tokens)
                          else "hit" if missing == 0 else "mixed")
                sig = blocker.signature(tokens)
                assert sig.tolist() == self.exact_signature(blocker, tokens)
                seen |= tokens
                assert set(blocker._memo) == seen
                sig[:] = 0  # a returned signature never aliases a row
            assert kinds == {"miss", "hit", "mixed"}
            for tokens in order:
                assert blocker.signature(tokens).tolist() == \
                    self.exact_signature(blocker, tokens)

    def test_memo_eviction_stays_exact_and_bounded(self, monkeypatch):
        from repro.blocking import minhash

        monkeypatch.setattr(minhash, "_MEMO_TOKENS", 8)
        rng = np.random.default_rng(0)
        vocab = [f"tok{i}" for i in range(20)]
        blocker = MinHashBlocker(num_hashes=16, bands=4, seed=1)
        sizes = []
        for _ in range(50):
            tokens = set(rng.choice(vocab, size=int(rng.integers(1, 11))))
            sig = blocker.signature(tokens)
            assert sig.tolist() == self.exact_signature(blocker, tokens)
            assert len(blocker._memo) <= 8
            sizes.append(len(blocker._memo))
        # The memo both filled and was cleared along the way.
        assert max(sizes) == 8
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_signatures_below_prime(self):
        from repro.blocking.minhash import _MERSENNE

        blocker = MinHashBlocker(num_hashes=32, bands=8, seed=5)
        sig = blocker.signature({"a", "bb", "ccc", "dddd"})
        assert sig.dtype == np.uint64
        assert int(sig.max()) < _MERSENNE

    def test_identical_sets_estimate_exactly_one(self):
        blocker = MinHashBlocker(num_hashes=128, bands=16, seed=0)
        tokens = {"samsung", "850", "evo", "ssd", "1tb"}
        sig = blocker.signature(tokens)
        assert blocker.estimated_jaccard(sig, sig.copy()) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        blocker = MinHashBlocker(num_hashes=256, bands=16, seed=0)
        a = blocker.signature({f"left{i}" for i in range(20)})
        b = blocker.signature({f"right{i}" for i in range(20)})
        assert blocker.estimated_jaccard(a, b) < 0.05


class TestEmptyCollections:
    """All blockers must tolerate empty record collections."""

    @pytest.mark.parametrize("blocker", [
        TokenBlocker(),
        MinHashBlocker(num_hashes=16, bands=4),
        SortedNeighborhoodBlocker(window=2),
    ], ids=lambda b: type(b).__name__)
    def test_empty_sides(self, blocker):
        for left, right in ([], []), (LEFT, []), ([], RIGHT):
            result = blocker.block(left, right)
            assert result.candidates == []
            assert result.comparison_count == 0

    def test_empty_signatures_collide(self):
        # Two token-less records share the sentinel signature: their
        # Jaccard estimate is 1.0 by convention (0/0 sets).
        blocker = MinHashBlocker()
        a, b = blocker.signature(set()), blocker.signature(set())
        assert blocker.estimated_jaccard(a, b) == 1.0


class TestSortedNeighborhood:
    def test_adjacent_keys_paired(self):
        left = [rec("aaa product"), rec("zzz product")]
        right = [rec("aaa produkt", source="b"), rec("mmm other", source="b")]
        result = SortedNeighborhoodBlocker(window=2).block(left, right)
        assert (0, 0) in result.candidate_set()

    def test_window_bounds_candidates(self):
        small = SortedNeighborhoodBlocker(window=2).block(LEFT, RIGHT)
        large = SortedNeighborhoodBlocker(window=8).block(LEFT, RIGHT)
        assert small.comparison_count <= large.comparison_count

    def test_only_cross_collection_pairs(self):
        result = SortedNeighborhoodBlocker(window=4).block(LEFT, RIGHT)
        for c in result.candidates:
            assert 0 <= c.left < len(LEFT)
            assert 0 <= c.right < len(RIGHT)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocker(window=1)

    def test_custom_key(self):
        # Key by last token pulls 'card'-final records together.
        blocker = SortedNeighborhoodBlocker(
            window=2, key=lambda r: r.text().split()[-1])
        result = blocker.block([rec("sandisk card")], [rec("lexar card", source="b")])
        assert (0, 0) in result.candidate_set()


class TestPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.bert.config import BertConfig
        from repro.bert.model import BertModel
        from repro.data.loader import PairEncoder
        from repro.models import SingleTaskMatcher
        from repro.text import WordPieceTokenizer, train_wordpiece

        ds = load_dataset("wdc_computers", size="small")
        texts = [r.text() for p in ds.all_pairs() for r in (p.record1, p.record2)]
        tok = WordPieceTokenizer(train_wordpiece(texts, vocab_size=400))
        cfg = BertConfig(vocab_size=len(tok.vocab), hidden_size=16,
                         num_layers=1, num_heads=2, intermediate_size=32,
                         max_position=96, dropout=0.0, attention_dropout=0.0)
        model = SingleTaskMatcher(BertModel(cfg, np.random.default_rng(0)),
                                  16, np.random.default_rng(1))
        model.eval()
        return MatchingPipeline(TokenBlocker(), model, PairEncoder(tok, 96))

    def test_decisions_sorted_by_probability(self, pipeline):
        decisions = pipeline.match(LEFT, RIGHT)
        probs = [d.probability for d in decisions]
        assert probs == sorted(probs, reverse=True)

    def test_matches_respect_threshold(self, pipeline):
        for d in pipeline.matches(LEFT, RIGHT):
            assert d.probability >= pipeline.threshold

    def test_only_blocked_candidates_scored(self, pipeline):
        blocked = pipeline.blocker.block(LEFT, RIGHT).candidate_set()
        decisions = pipeline.match(LEFT, RIGHT)
        assert {(d.left, d.right) for d in decisions} <= blocked

    def test_threshold_validation(self, pipeline):
        with pytest.raises(ValueError):
            MatchingPipeline(pipeline.blocker, pipeline.model,
                             pipeline.encoder, threshold=1.5)

    def test_empty_candidates(self, pipeline):
        # Completely disjoint vocabularies produce no candidates.
        assert pipeline.match([rec("qqq www")], [rec("eee rrr", source="b")]) == []
