"""LRU memoization primitives for the inference engine.

Three memo granularities back :class:`~repro.engine.core.InferenceEngine`:

- a *record token* cache mapping the content digest of a serialized
  record to its wordpiece token tuple (tokenization is pure Python and
  dominates encode cost when the same record appears in many candidate
  pairs, as blocking output does);
- a *token table* (in :mod:`repro.engine.core`, no LRU) holding the
  encoder output of every token id seen so far, valid only for
  decomposable (position-independent) encoders and bounded by their
  vocabulary;
- a *record encoder-output* cache for late-interaction models (e.g.
  :class:`~repro.models.emba_dual.EmbaDual`): each record's full
  independent-encode token activations, reused across every pair the
  record appears in.

The two record caches are plain bounded LRUs; all three keep hit/miss
counters that feed :class:`~repro.engine.stats.EngineStats`.

Keys are bare content digests (:func:`text_digest`,
:func:`array_digest`) or token ids.  That is sound because every engine
builds its own memos around one model and one pair encoder that it
never reassigns: new weights mean a new engine (a serving hot-swap
builds a fresh one), so a memo never outlives the weights that filled
it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Hashable

import numpy as np

_MISSING = object()


class LRUCache:
    """Bounded least-recently-used mapping with hit/miss counters."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._items: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def get(self, key: Hashable):
        """Return the cached value or ``None`` (counts a hit or miss)."""
        value = self._items.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        self._items.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def clear(self) -> None:
        self._items.clear()
        self.hits = 0
        self.misses = 0


def text_digest(text: str) -> str:
    """Stable content digest of a serialized record."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def array_digest(array: np.ndarray) -> str:
    """Stable content digest of a (contiguous) integer id array."""
    data = np.ascontiguousarray(array)
    return hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
