"""Pair encoding and batching.

:class:`PairEncoder` turns an :class:`~repro.data.schema.EntityPair` into
the BERT sequence-pair layout the paper uses::

    [CLS] record1 tokens [SEP] record2 tokens [SEP]

with segment ids (0 for the first segment, 1 for the second) and boolean
span masks marking which positions belong to each record's description —
the masks drive EMBA's token-level heads and the AoA module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.data.schema import EMDataset, EntityPair, EntityRecord
from repro.data.serialize import serialize_record
from repro.text.special_tokens import CLS_TOKEN, SEP_TOKEN
from repro.text.wordpiece import WordPieceTokenizer


@dataclass
class EncodedPair:
    """A single encoded pair (unpadded)."""

    input_ids: np.ndarray      # (L,) int64
    segment_ids: np.ndarray    # (L,) int64
    mask1: np.ndarray          # (L,) bool — record1 description tokens
    mask2: np.ndarray          # (L,) bool — record2 description tokens
    tokens: list[str]          # wordpiece strings, for explainability
    label: int
    id1: int                   # entity-ID class index of record1
    id2: int                   # entity-ID class index of record2

    @property
    def length(self) -> int:
        return len(self.input_ids)


@dataclass
class Batch:
    """A padded batch ready for the models."""

    input_ids: np.ndarray       # (B, L) int64
    segment_ids: np.ndarray     # (B, L) int64
    attention_mask: np.ndarray  # (B, L) float — 1 for real tokens
    mask1: np.ndarray           # (B, L) float — record1 span
    mask2: np.ndarray           # (B, L) float — record2 span
    labels: np.ndarray          # (B,) float
    id1: np.ndarray             # (B,) int64
    id2: np.ndarray             # (B,) int64

    @property
    def size(self) -> int:
        return self.input_ids.shape[0]


class PairEncoder:
    """Encode pairs with a WordPiece tokenizer under a length budget.

    The two records share the ``max_length`` budget (minus the three
    special tokens); when the combined length overflows, both segments
    are truncated proportionally, mirroring HuggingFace's
    ``longest_first`` strategy.
    """

    def __init__(self, tokenizer: WordPieceTokenizer, max_length: int = 128,
                 style: str = "plain"):
        if max_length < 8:
            raise ValueError("max_length must be at least 8")
        self.tokenizer = tokenizer
        self.max_length = max_length
        self.style = style
        vocab = tokenizer.vocab
        self._cls = vocab.token_to_id(CLS_TOKEN)
        self._sep = vocab.token_to_id(SEP_TOKEN)

    def _truncate(self, tokens1: list[str], tokens2: list[str]) -> tuple[list[str], list[str]]:
        # Closed form of the one-token-at-a-time longest_first loop
        # (trim the longer list, ties trim tokens1): a list short enough
        # to never be the longer one survives whole and the other gets
        # the remaining budget; otherwise both converge to half, with
        # the tie rule giving tokens2 the odd token.
        budget = self.max_length - 3
        n1, n2 = len(tokens1), len(tokens2)
        if n1 + n2 <= budget:
            return tokens1, tokens2
        half = budget // 2
        if n1 <= half:
            l1, l2 = n1, budget - n1
        elif n2 <= budget - half:
            l1, l2 = budget - n2, n2
        else:
            l1, l2 = half, budget - half
        return tokens1[:l1], tokens2[:l2]

    def record_text(self, record: EntityRecord) -> str:
        """The serialized text of one record under this encoder's style."""
        return serialize_record(record, style=self.style)

    def record_tokens(self, record: EntityRecord) -> list[str]:
        """Untruncated wordpiece tokens of one record's serialized text."""
        return self.tokenizer.tokenize(self.record_text(record))

    def build(self, tokens1: Sequence[str], tokens2: Sequence[str],
              label: int = 0, id1: int = 0, id2: int = 0) -> EncodedPair:
        """Assemble an :class:`EncodedPair` from per-record token lists.

        Applies the shared-budget truncation and packs the
        ``[CLS] r1 [SEP] r2 [SEP]`` layout.  The inputs are not mutated,
        so callers may pass cached token lists.
        """
        tokens1, tokens2 = self._truncate(list(tokens1), list(tokens2))

        tokens = [CLS_TOKEN] + tokens1 + [SEP_TOKEN] + tokens2 + [SEP_TOKEN]
        ids = np.array([self.tokenizer.vocab.token_to_id(t) for t in tokens], dtype=np.int64)
        segments = np.array(
            [0] * (len(tokens1) + 2) + [1] * (len(tokens2) + 1), dtype=np.int64
        )
        mask1 = np.zeros(len(tokens), dtype=bool)
        mask1[1:1 + len(tokens1)] = True
        mask2 = np.zeros(len(tokens), dtype=bool)
        start2 = len(tokens1) + 2
        mask2[start2:start2 + len(tokens2)] = True
        return EncodedPair(
            input_ids=ids, segment_ids=segments, mask1=mask1, mask2=mask2,
            tokens=tokens, label=label, id1=id1, id2=id2,
        )

    def encode(self, pair: EntityPair, dataset: EMDataset | None = None) -> EncodedPair:
        id1 = dataset.id_index(pair.record1.entity_id) if dataset else 0
        id2 = dataset.id_index(pair.record2.entity_id) if dataset else 0
        return self.build(
            self.record_tokens(pair.record1), self.record_tokens(pair.record2),
            label=pair.label, id1=id1, id2=id2,
        )

    def encode_many(self, pairs: Sequence[EntityPair],
                    dataset: EMDataset | None = None) -> list[EncodedPair]:
        return [self.encode(p, dataset) for p in pairs]


def collate(encoded: Sequence[EncodedPair], pad_id: int = 0) -> Batch:
    """Pad a list of encoded pairs into one batch."""
    if not encoded:
        raise ValueError("cannot collate an empty batch")
    max_len = max(e.length for e in encoded)
    batch = len(encoded)
    input_ids = np.full((batch, max_len), pad_id, dtype=np.int64)
    segment_ids = np.zeros((batch, max_len), dtype=np.int64)
    attention = np.zeros((batch, max_len), dtype=np.float32)
    mask1 = np.zeros((batch, max_len), dtype=np.float32)
    mask2 = np.zeros((batch, max_len), dtype=np.float32)
    labels = np.zeros(batch, dtype=np.float32)
    id1 = np.zeros(batch, dtype=np.int64)
    id2 = np.zeros(batch, dtype=np.int64)
    for i, e in enumerate(encoded):
        n = e.length
        input_ids[i, :n] = e.input_ids
        segment_ids[i, :n] = e.segment_ids
        attention[i, :n] = 1.0
        mask1[i, :n] = e.mask1
        mask2[i, :n] = e.mask2
        labels[i] = e.label
        id1[i] = e.id1
        id2[i] = e.id2
    return Batch(input_ids, segment_ids, attention, mask1, mask2, labels, id1, id2)


def iter_batches(encoded: Sequence[EncodedPair], batch_size: int,
                 rng: np.random.Generator | None = None,
                 pad_id: int = 0) -> Iterator[Batch]:
    """Yield shuffled (if ``rng`` given) padded batches."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = np.arange(len(encoded))
    if rng is not None:
        order = rng.permutation(len(encoded))
    for start in range(0, len(encoded), batch_size):
        chunk = [encoded[i] for i in order[start:start + batch_size]]
        yield collate(chunk, pad_id=pad_id)


def plan_buckets(lengths: Sequence[int], batch_size: int,
                 max_pad_waste: float = 0.25) -> list[np.ndarray]:
    """Length-bucketed batch plan over ``lengths``.

    Items are sorted by length (stable, so equal lengths keep their input
    order) and cut into buckets of at most ``batch_size`` items.  A bucket
    is also cut early when admitting the next (longer) item would push the
    bucket's padding waste — the fraction of padded cells in the resulting
    ``(B, max_len)`` matrix — above ``max_pad_waste``.

    Returns index arrays into the original sequence; their concatenation
    is a permutation of ``range(len(lengths))``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not 0.0 <= max_pad_waste < 1.0:
        raise ValueError("max_pad_waste must be in [0, 1)")
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(lengths, kind="stable")
    buckets: list[np.ndarray] = []
    current: list[int] = []
    tokens = 0
    for idx in order:
        n = int(lengths[idx])
        if current:
            # Ascending order: n is the running max, so the projected
            # matrix is (len+1) x n cells holding tokens + n real tokens.
            cells = n * (len(current) + 1)
            waste = 1.0 - (tokens + n) / cells if cells else 0.0
            if len(current) >= batch_size or waste > max_pad_waste:
                buckets.append(np.array(current, dtype=np.int64))
                current, tokens = [], 0
        current.append(int(idx))
        tokens += n
    if current:
        buckets.append(np.array(current, dtype=np.int64))
    return buckets
