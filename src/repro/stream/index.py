"""Incremental MinHash-LSH candidate index with exactly-once emission.

The streaming counterpart of :class:`repro.blocking.minhash.MinHashBlocker`:
the same exact mod-(2^61-1) universal hashing and banding (signatures
are bit-identical to the batch blocker's), but maintained as a live
index that accepts record ``insert`` / ``update`` / ``delete`` and
returns, per mutation, only the candidate pairs that mutation *newly*
created.

Exactly-once discipline: every pair the index has ever surfaced lives
in an ``emitted`` set keyed by the canonical (sorted) key pair.  A
collision that re-occurs — the same two records meeting in another
band, a record deleted and re-inserted, a journaled op re-applied
during crash replay — emits nothing.  This is what makes WAL replay
idempotent: re-applying an op after a crash cannot hand the scorer a
pair twice.

Persisted state is the emitted set (sorted key pairs) and the hashing
config.  Band keys are a pure function of a record's tokens and that
config, so recovery rebuilds the band tables by re-inserting records.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.blocking.minhash import MinHashBlocker


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) identity of an unordered candidate pair."""
    return (a, b) if a <= b else (b, a)


class IncrementalMinHashIndex:
    """Insert/update/delete records; emit each candidate pair once.

    Parameters mirror :class:`~repro.blocking.minhash.MinHashBlocker`
    (``num_hashes`` minima cut into ``bands`` bands), and the hashing
    is delegated to it, so streamed signatures match batch signatures
    exactly for the same ``seed``.
    """

    def __init__(self, num_hashes: int = 48, bands: int = 12, seed: int = 0):
        self._blocker = MinHashBlocker(num_hashes=num_hashes, bands=bands,
                                       seed=seed)
        self.num_hashes = num_hashes
        self.bands = bands
        self.seed = seed
        # key -> that record's band bucket keys, one per band.
        self._band_keys: dict[str, list[bytes]] = {}
        # band -> bucket key -> set of record keys in the bucket.
        self._tables: list[dict[bytes, set[str]]] = [
            {} for _ in range(bands)]
        self._emitted: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._band_keys)

    def __contains__(self, key: str) -> bool:
        return key in self._band_keys

    @property
    def emitted_count(self) -> int:
        return len(self._emitted)

    def emitted_pairs(self) -> set[tuple[str, str]]:
        """Every pair ever surfaced (a copy)."""
        return set(self._emitted)

    def band_keys_of(self, key: str) -> list[bytes] | None:
        return list(self._band_keys[key]) if key in self._band_keys else None

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def band_keys_for(self, tokens: Iterable[str]) -> list[bytes]:
        """The record's bucket key per band (the raw bytes of its rows)."""
        signature = self._blocker.signature(set(tokens))
        rows = self._blocker.rows
        return [signature[b * rows:(b + 1) * rows].tobytes()
                for b in range(self.bands)]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, key: str, tokens: Iterable[str]) -> list[tuple[str, str]]:
        """Insert (or update) ``key``; return its *new* candidate pairs.

        An existing record is first unlinked (update semantics).  The
        returned pairs are canonical, sorted, and have never been
        returned before — by this call site or any other.
        """
        if key in self._band_keys:
            self.delete(key)
        band_keys = self.band_keys_for(tokens)
        fresh: set[tuple[str, str]] = set()
        for band, bucket_key in enumerate(band_keys):
            bucket = self._tables[band].setdefault(bucket_key, set())
            for other in bucket:
                candidate = pair_key(key, other)
                if candidate not in self._emitted:
                    fresh.add(candidate)
            bucket.add(key)
        self._band_keys[key] = band_keys
        self._emitted.update(fresh)
        return sorted(fresh)

    def delete(self, key: str) -> bool:
        """Unlink ``key`` from every band bucket; emitted pairs stay
        emitted (exactly-once holds across delete / re-insert)."""
        band_keys = self._band_keys.pop(key, None)
        if band_keys is None:
            return False
        for table, bucket_key in zip(self._tables, band_keys):
            bucket = table[bucket_key]
            bucket.discard(key)
            if not bucket:
                del table[bucket_key]
        return True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable state: hashing config + emitted set."""
        return {
            "num_hashes": self.num_hashes,
            "bands": self.bands,
            "seed": self.seed,
            "emitted": sorted(list(p) for p in self._emitted),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the emitted set over empty band tables."""
        for attr in ("num_hashes", "bands", "seed"):
            if int(state[attr]) != getattr(self, attr):
                raise ValueError(
                    f"index {attr} mismatch: snapshot has {state[attr]}, "
                    f"index built with {getattr(self, attr)}")
        self._band_keys = {}
        self._tables = [{} for _ in range(self.bands)]
        self._emitted = {tuple(p) for p in state["emitted"]}

    # ------------------------------------------------------------------
    # Batch parity helper (used by tests)
    # ------------------------------------------------------------------
    def candidates_among(self, keys: Sequence[str]) -> set[tuple[str, str]]:
        """All band collisions currently present among ``keys`` —
        the batch-blocker view of the live index."""
        wanted = set(keys)
        out: set[tuple[str, str]] = set()
        for table in self._tables:
            for bucket in table.values():
                members = sorted(bucket & wanted)
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        out.add((a, b))
        return out
