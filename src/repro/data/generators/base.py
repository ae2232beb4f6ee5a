"""Shared machinery for the synthetic dataset generators.

The generators simulate the regime that drives the paper's analysis: two
descriptions of the same real-world entity share most of their tokens
but differ in phrasing and noise, while descriptions of *different*
entities from the same domain can also share many tokens (same brand,
same specs) — so correct matching hinges on a small subset of
discriminative tokens (model numbers, brand names), exactly the paper's
Section 4.7 case study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.schema import EntityPair, EntityRecord

CONSONANTS = "bcdfghjklmnpqrstvwz"
VOWELS = "aeiou"
DIGITS = "0123456789"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_word(rng: np.random.Generator, syllables: int = 2) -> str:
    """Pronounceable random word (for brand and vocabulary pools)."""
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(list(CONSONANTS)))
        parts.append(rng.choice(list(VOWELS)))
    if rng.random() < 0.5:
        parts.append(rng.choice(list(CONSONANTS)))
    return "".join(parts)


def model_code(rng: np.random.Generator, blocks: tuple[int, ...] = (4, 4)) -> str:
    """Alphanumeric model number like ``sdcfh-004g`` (split by WordPiece)."""
    alphabet = list(LETTERS + DIGITS)
    pieces = ["".join(rng.choice(alphabet, size=n)) for n in blocks]
    return "-".join(pieces)


# ----------------------------------------------------------------------
# Noise model: how two offers for the same entity differ
# ----------------------------------------------------------------------

def typo(word: str, rng: np.random.Generator) -> str:
    """Swap two adjacent characters (extraction-noise typo)."""
    if len(word) < 3:
        return word
    i = int(rng.integers(0, len(word) - 1))
    chars = list(word)
    chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def corrupt_tokens(tokens: list[str], rng: np.random.Generator,
                   drop_prob: float = 0.12, typo_prob: float = 0.05,
                   shuffle_prob: float = 0.15) -> list[str]:
    """Apply the offer-level noise model to a token list.

    Tokens are independently dropped or typo-corrupted; occasionally a
    local swap reorders neighbours (web-extraction artifacts).  At least
    one token always survives.
    """
    out: list[str] = []
    for token in tokens:
        roll = rng.random()
        if roll < drop_prob:
            continue
        if roll < drop_prob + typo_prob:
            out.append(typo(token, rng))
        else:
            out.append(token)
    if not out:
        out = [tokens[0]]
    if len(out) > 2 and rng.random() < shuffle_prob:
        i = int(rng.integers(0, len(out) - 1))
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


@dataclass
class CatalogEntity:
    """One real-world entity with its canonical attribute values."""

    entity_id: str
    attributes: dict[str, str]
    # Group label usable as an auxiliary class (brand, category, venue...).
    group: str = ""


@dataclass
class OfferPool:
    """Noisy per-source descriptions for every catalog entity."""

    offers: dict[str, list[EntityRecord]] = field(default_factory=dict)

    def add(self, entity_id: str, record: EntityRecord) -> None:
        self.offers.setdefault(entity_id, []).append(record)

    def entity_ids(self) -> list[str]:
        return list(self.offers)


def sample_pairs(pool: OfferPool, num_positives: int, num_negatives: int,
                 rng: np.random.Generator,
                 hard_negative_groups: dict[str, str] | None = None,
                 hard_fraction: float = 0.6,
                 forbidden: set[tuple] | None = None) -> list[EntityPair]:
    """Sample distinct labeled pairs from an offer pool.

    Positives pair two distinct offers of the same entity.  Negatives pair
    offers of different entities; a ``hard_fraction`` of them are drawn
    from the same group (same brand / category), which is what makes the
    matching decision depend on the discriminative tokens.  Sampled pairs
    are deduplicated (unordered), and pairs whose keys appear in
    ``forbidden`` are skipped — callers use this to keep the train,
    validation, and test splits non-overlapping while still covering the
    same entities (as in the WDC benchmark).
    """
    ids = pool.entity_ids()
    if len(ids) < 2:
        raise ValueError("need at least two entities to sample negatives")

    eligible = [e for e in ids if len(pool.offers[e]) >= 2]
    if not eligible:
        raise ValueError("no entity has two offers; cannot sample positives")

    seen: set[tuple] = set(forbidden) if forbidden else set()

    def pair_key(a: EntityRecord, b: EntityRecord) -> tuple:
        ka = (a.source, a.attributes)
        kb = (b.source, b.attributes)
        return (ka, kb) if ka <= kb else (kb, ka)

    pairs: list[EntityPair] = []
    attempts = 0
    max_attempts = 50 * (num_positives + 1)
    while sum(p.label for p in pairs) < num_positives and attempts < max_attempts:
        attempts += 1
        entity = eligible[int(rng.integers(0, len(eligible)))]
        offers = pool.offers[entity]
        i, j = rng.choice(len(offers), size=2, replace=False)
        key = pair_key(offers[i], offers[j])
        if key in seen:
            continue
        seen.add(key)
        pairs.append(EntityPair(offers[i], offers[j], 1))

    by_group: dict[str, list[str]] = {}
    if hard_negative_groups:
        for entity_id, group in hard_negative_groups.items():
            by_group.setdefault(group, []).append(entity_id)

    negatives = 0
    attempts = 0
    max_attempts = 50 * (num_negatives + 1)
    while negatives < num_negatives and attempts < max_attempts:
        attempts += 1
        first = ids[int(rng.integers(0, len(ids)))]
        second = None
        if hard_negative_groups and rng.random() < hard_fraction:
            group = hard_negative_groups.get(first)
            candidates = [e for e in by_group.get(group, []) if e != first]
            if candidates:
                second = candidates[int(rng.integers(0, len(candidates)))]
        if second is None:
            while True:
                second = ids[int(rng.integers(0, len(ids)))]
                if second != first:
                    break
        offers1 = pool.offers[first]
        offers2 = pool.offers[second]
        rec1 = offers1[int(rng.integers(0, len(offers1)))]
        rec2 = offers2[int(rng.integers(0, len(offers2)))]
        key = pair_key(rec1, rec2)
        if key in seen:
            continue
        seen.add(key)
        pairs.append(EntityPair(rec1, rec2, 0))
        negatives += 1

    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def pair_keys(pairs: list[EntityPair]) -> set[tuple]:
    """Unordered dedupe keys for already-sampled pairs (for ``forbidden``)."""
    keys: set[tuple] = set()
    for p in pairs:
        ka = (p.record1.source, p.record1.attributes)
        kb = (p.record2.source, p.record2.attributes)
        keys.add((ka, kb) if ka <= kb else (kb, ka))
    return keys
