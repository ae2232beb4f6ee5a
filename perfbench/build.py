"""Tokenizer and random-initialised model builders shared by workloads.

Every workload builds from its seed alone: no MLM pre-training cache,
no file outside the benchmark's own temporary directory.
"""

from __future__ import annotations

import numpy as np

from repro.bert.config import PRESETS
from repro.bert.model import BertModel
from repro.data.loader import PairEncoder
from repro.text import WordPieceTokenizer, train_wordpiece

TOKENIZER_TEXTS = 400     # WordPiece training cost grows with the corpus
VOCAB = 1000
MAX_LENGTH = 96


def pair_encoder(texts) -> PairEncoder:
    """A WordPiece pair encoder trained on the first distinct texts."""
    corpus = list(dict.fromkeys(texts))[:TOKENIZER_TEXTS]
    tokenizer = WordPieceTokenizer(train_wordpiece(corpus, vocab_size=VOCAB))
    return PairEncoder(tokenizer, max_length=MAX_LENGTH)


def model(cls, preset: str, encoder: PairEncoder, classes: int, seed: int):
    """``cls(bert, hidden, classes, rng)`` over a random-init ``preset``."""
    config = PRESETS[preset].with_vocab(len(encoder.tokenizer.vocab))
    bert = BertModel(config, np.random.default_rng(seed))
    return cls(bert, config.hidden_size, classes,
               np.random.default_rng(seed + 1))
