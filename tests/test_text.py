"""Tests for the tokenization substrate (repro.text)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    CLS_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    SPECIAL_TOKENS,
    SubwordHasher,
    UNK_TOKEN,
    Vocabulary,
    WordPieceTokenizer,
    basic_tokenize,
    normalize_text,
    train_wordpiece,
)
from repro.text.subword import fnv1a

CORPUS = [
    "sandisk ultra compactflash card 4gb retail",
    "sandisk extreme compactflash card 8gb",
    "transcend compactflash card 4gb industrial",
    "samsung 850 evo 1tb ssd retail box",
    "samsung 860 evo 500gb ssd",
    "kingston datatraveler usb flash drive 16gb",
] * 4


class TestNormalize:
    def test_lowercases(self):
        assert normalize_text("SanDisk ULTRA") == "sandisk ultra"

    def test_collapses_whitespace(self):
        assert normalize_text("a \t b\n\nc") == "a b c"

    def test_strip(self):
        assert normalize_text("  hello  ") == "hello"

    def test_basic_tokenize_splits_punctuation(self):
        assert basic_tokenize("SanDisk SDCFH-004G!") == [
            "sandisk", "sdcfh", "-", "004g", "!",
        ]

    def test_basic_tokenize_keeps_alnum_runs(self):
        assert basic_tokenize("4gb 50p mz-75e1t0bw") == [
            "4gb", "50p", "mz", "-", "75e1t0bw",
        ]

    def test_empty(self):
        assert basic_tokenize("") == []

    @given(st.text(alphabet=st.sampled_from(
        ["\x00", "\t", "\n", " ", "\u200b", "\x7f", "\x85", "a", "B",
         "z", "0", "-", "É", "İ", "中"]), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_character_filter(self, text):
        # The printable fast path must equal filtering every character.
        filtered = "".join(ch for ch in text.lower()
                           if ch.isprintable() or ch in "\t\n ")
        assert normalize_text(text) == re.sub(r"\s+", " ", filtered).strip()


class TestVocabulary:
    def test_specials_first(self):
        vocab = Vocabulary(["apple", "banana"])
        for i, token in enumerate(SPECIAL_TOKENS):
            assert vocab.id_to_token(i) == token
        assert vocab.pad_id == 0

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["apple"])
        assert vocab.token_to_id("zebra") == vocab.unk_id

    def test_duplicates_ignored(self):
        vocab = Vocabulary(["a", "a", "b"])
        assert len(vocab) == len(SPECIAL_TOKENS) + 2

    def test_roundtrip(self, tmp_path):
        vocab = Vocabulary(["x", "y", "##z"])
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens() == vocab.tokens()

    def test_special_ids(self):
        vocab = Vocabulary(["a"])
        assert len(vocab.special_ids()) == len(SPECIAL_TOKENS)


class TestWordPieceTraining:
    def test_vocab_size_respected(self):
        vocab = train_wordpiece(CORPUS, vocab_size=80)
        assert len(vocab) <= 80

    def test_learns_frequent_words(self):
        vocab = train_wordpiece(CORPUS, vocab_size=300)
        tokenizer = WordPieceTokenizer(vocab)
        # A word appearing many times should become a single piece.
        assert tokenizer.tokenize_word("sandisk") == ["sandisk"]

    def test_contains_character_alphabet(self):
        vocab = train_wordpiece(CORPUS, vocab_size=200)
        assert "s" in vocab
        assert "##s" in vocab

    def test_too_small_vocab_raises(self):
        with pytest.raises(ValueError):
            train_wordpiece(CORPUS, vocab_size=3)

    def test_deterministic(self):
        a = train_wordpiece(CORPUS, vocab_size=120).tokens()
        b = train_wordpiece(CORPUS, vocab_size=120).tokens()
        assert a == b


class TestWordPieceEncoding:
    @pytest.fixture(scope="class")
    def tokenizer(self):
        return WordPieceTokenizer(train_wordpiece(CORPUS, vocab_size=250))

    def test_roundtrip_known_text(self, tokenizer):
        text = "sandisk compactflash card"
        assert tokenizer.decode(tokenizer.encode(text)) == text

    def test_unknown_chars_yield_unk(self, tokenizer):
        assert UNK_TOKEN in tokenizer.tokenize("日本語")

    def test_continuation_pieces_marked(self, tokenizer):
        pieces = tokenizer.tokenize("sandiskish")  # unseen suffix
        assert pieces[0] != UNK_TOKEN
        assert all(p.startswith("##") for p in pieces[1:] if p != UNK_TOKEN)

    def test_very_long_word_is_unk(self, tokenizer):
        assert tokenizer.tokenize_word("x" * 100) == [UNK_TOKEN]

    def test_encode_returns_valid_ids(self, tokenizer):
        ids = tokenizer.encode("samsung 850 evo ssd")
        assert all(0 <= i < len(tokenizer.vocab) for i in ids)

    @given(st.text(alphabet="abcdefgh0123456789 -", max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_tokenize_never_crashes(self, text):
        tokenizer = WordPieceTokenizer(train_wordpiece(CORPUS, vocab_size=150))
        pieces = tokenizer.tokenize(text)
        assert isinstance(pieces, list)

    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_pieces_reassemble_word(self, word):
        tokenizer = WordPieceTokenizer(train_wordpiece(CORPUS, vocab_size=250))
        pieces = tokenizer.tokenize_word(word)
        if UNK_TOKEN not in pieces:
            rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
            assert rebuilt == word


class TestSubwordHasher:
    def test_fnv1a_known_value(self):
        # FNV-1a of empty string is the offset basis.
        assert fnv1a("") == 0x811C9DC5

    def test_ngrams_include_full_word(self):
        hasher = SubwordHasher(min_n=3, max_n=4)
        grams = hasher.ngrams("cat")
        assert "<cat>" in grams
        assert "<ca" in grams

    def test_buckets_in_range(self):
        hasher = SubwordHasher(num_buckets=128)
        assert all(0 <= b < 128 for b in hasher.word_buckets("compactflash"))

    def test_deterministic(self):
        hasher = SubwordHasher()
        assert hasher.word_buckets("sandisk") == hasher.word_buckets("sandisk")

    def test_similar_words_share_buckets(self):
        hasher = SubwordHasher(num_buckets=1 << 20)
        a = set(hasher.word_buckets("compactflash"))
        b = set(hasher.word_buckets("compactflashcard"))
        c = set(hasher.word_buckets("zzzzz"))
        assert len(a & b) > len(a & c)

    def test_validation(self):
        with pytest.raises(ValueError):
            SubwordHasher(min_n=0)
        with pytest.raises(ValueError):
            SubwordHasher(num_buckets=0)

    def test_text_buckets_per_word(self):
        hasher = SubwordHasher()
        out = hasher.text_buckets("two words")
        assert len(out) == 2
