"""MinHash / LSH blocking for approximate-Jaccard candidate generation.

Each record's token set is summarized by a MinHash signature of
``num_hashes`` universal-hash minima; signatures are cut into ``bands``
bands of equal width, and two records become candidates when they
collide in at least one band.  The usual S-curve applies: pairs with
Jaccard similarity above roughly ``(1/bands)^(1/rows_per_band)`` are
likely to collide.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.blocking.base import Blocker, BlockingResult
from repro.data.schema import EntityRecord
from repro.text.normalize import basic_tokenize
from repro.text.subword import fnv1a

_MERSENNE = (1 << 61) - 1
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64((1 << 32) - 1)
_P = np.uint64(_MERSENNE)
_29, _32, _61 = np.uint64(29), np.uint64(32), np.uint64(61)
# Token rows one blocker memoizes before it clears them (12.6 MB at 96 hashes).
_MEMO_TOKENS = 1 << 14


class MinHashBlocker(Blocker):
    """LSH banding over MinHash signatures of record token sets."""

    def __init__(self, num_hashes: int = 48, bands: int = 12, seed: int = 0):
        if num_hashes % bands != 0:
            raise ValueError(f"num_hashes {num_hashes} not divisible by bands {bands}")
        self.num_hashes = num_hashes
        self.bands = bands
        self.rows = num_hashes // bands
        rng = np.random.default_rng(seed)
        # Universal hashing: h_i(x) = (a_i * x + b_i) mod p.
        self._a = rng.integers(1, _MERSENNE, size=num_hashes,
                               dtype=np.int64).astype(np.uint64)
        self._b = rng.integers(0, _MERSENNE, size=num_hashes,
                               dtype=np.int64).astype(np.uint64)
        # Halves of a (a_hi < 2^29, a_lo < 2^32), broadcast against a
        # column of token hashes in :meth:`_rows`.
        self._a_hi = self._a >> _32
        self._a_lo = self._a & _MASK32
        # token -> its row of ``num_hashes`` residues (see :meth:`signature`).
        self._memo: dict[str, np.ndarray] = {}

    def signature(self, tokens: set[str]) -> np.ndarray:
        """MinHash signature (``num_hashes`` minima) of a token set.

        The element-wise minimum of the tokens' rows (:meth:`_rows`).
        A row is a pure function of its token, so each blocker memoizes
        it per token: tokens repeat across records (10k WDC offers use
        about 3.4k distinct tokens 154k times), and a record whose
        tokens are all known costs one ``min``.  The memo holds at most
        ``_MEMO_TOKENS`` rows (768 bytes each at 96 hashes) and is
        cleared when an insert would pass that bound.  It lives on the
        instance, so every index and every stream pipeline starts cold.
        """
        if not tokens:
            return np.full(self.num_hashes, _MERSENNE, dtype=np.uint64)
        memo = self._memo
        missing = [t for t in tokens if t not in memo]
        if len(memo) + len(missing) > _MEMO_TOKENS:
            memo.clear()
            missing = list(tokens)
            if len(missing) > _MEMO_TOKENS:  # one set larger than the memo
                return self._rows(missing).min(axis=0)
        if missing:
            memo.update(zip(missing, self._rows(missing)))
        return np.minimum.reduce([memo[t] for t in tokens])

    def _rows(self, tokens: Sequence[str]) -> np.ndarray:
        """``(len(tokens), num_hashes)`` residues ``(a * x + b) mod p``.

        Exact in uint64 arithmetic that never wraps, with ``p = 2^61 - 1``.
        It relies on ``x < 2^32`` (token hashes are 32-bit FNV-1a), so
        ``a * x = a_lo*x + (a_hi*x)*2^32`` with ``a_lo*x < 2^64`` and
        ``a_hi*x < 2^61``.  Both parts fold by ``2^61 ≡ 1 (mod p)``:
        ``v ≡ (v & p) + (v >> 61)``, and for ``mid = a_hi*x``,
        ``mid*2^32 ≡ (mid >> 29) + ((mid & mask29) << 32)``.
        With ``b`` added the sum stays below 2^63; one more fold leaves
        ``h < p + 4``, and ``min(h, h - p)`` (``h - p`` wraps when
        ``h < p``) is ``h mod p``.
        """
        x = np.array([fnv1a(t) for t in tokens], dtype=np.uint64)[:, None]
        low = x * self._a_lo
        mid = x * self._a_hi
        h = ((low & _P) + (low >> _61) + (mid >> _29)
             + ((mid & _MASK29) << _32) + self._b)
        h = (h & _P) + (h >> _61)
        return np.minimum(h, h - _P)

    def estimated_jaccard(self, sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Fraction of agreeing minima — an unbiased Jaccard estimate."""
        return float((sig_a == sig_b).mean())

    def block(self, left: Sequence[EntityRecord],
              right: Sequence[EntityRecord]) -> BlockingResult:
        left_sigs = [self.signature(set(basic_tokenize(r.text()))) for r in left]
        right_sigs = [self.signature(set(basic_tokenize(r.text()))) for r in right]

        pairs: set[tuple[int, int]] = set()
        for band in range(self.bands):
            lo, hi = band * self.rows, (band + 1) * self.rows
            buckets: dict[bytes, list[int]] = defaultdict(list)
            for j, sig in enumerate(right_sigs):
                buckets[sig[lo:hi].tobytes()].append(j)
            for i, sig in enumerate(left_sigs):
                for j in buckets.get(sig[lo:hi].tobytes(), ()):
                    pairs.add((i, j))
        return self._result(pairs, len(left), len(right))
