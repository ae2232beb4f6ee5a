"""LRU memoization primitives for the inference engine.

Three cache granularities back :class:`~repro.engine.core.InferenceEngine`:

- a *record token* cache mapping the content digest of a serialized
  record to its wordpiece token tuple (tokenization is pure Python and
  dominates encode cost when the same record appears in many candidate
  pairs, as blocking output does);
- a *span encoder-output* cache mapping the digest of a record's token
  ids to that span's encoder activations, valid only for decomposable
  (position-independent) encoders;
- a *record encoder-output* cache for late-interaction models (e.g.
  :class:`~repro.models.emba_dual.EmbaDual`): each record's full
  independent-encode token activations, reused across every pair the
  record appears in.

All are plain bounded LRUs with hit/miss counters that feed
:class:`~repro.engine.stats.EngineStats`.

Cache keys are bare content digests (:func:`text_digest`,
:func:`array_digest`).  That is sound because every engine builds its
own caches around one model and one pair encoder that it never
reassigns: new weights mean a new engine (a serving hot-swap builds a
fresh one), so a cache never outlives the weights that filled it.
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

    def peek(self, key: Hashable):
        """Return the cached value without touching the hit/miss counters."""
        return self._items.get(key)

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
