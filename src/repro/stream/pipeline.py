"""End-to-end durable streaming resolution.

``ingest -> candidates -> score -> cluster``, journaled:

1. an arriving record is journaled as an ``upsert`` op, then applied to
   the :class:`~repro.stream.index.IncrementalMinHashIndex`, which
   returns only the candidate pairs this arrival newly created;
2. new candidates join a bounded *pending* queue; once
   ``score_batch`` pairs are pending, the batch is scored through the
   configured scorer (inference engine or the cheap
   :class:`JaccardScorer`) and each result is journaled as a ``scored``
   op before being folded into the
   :class:`~repro.stream.clusters.StreamClusterStore`;
3. every ``snapshot_every`` journaled ops the state that cannot be
   recomputed (all but the index's band tables, which recovery rebuilds
   from the records) is snapshotted atomically and the WAL compacted.

Crash semantics
---------------
Recovery = snapshot state + deterministic replay of the WAL tail.  All
three state transitions (``upsert``, ``delete``, ``scored``) are pure
functions of prior state, so replay reconstructs exactly the state the
ops described.  Two idempotency layers make kill-at-any-point safe:

- **content-level**: re-ingesting a record whose payload is unchanged
  is a no-op (no journal entry, no emission) — a driver that replays
  its input stream after a crash cannot duplicate work;
- **pair-level**: the index's emitted set and the cluster store's
  scored-edge memory both dedupe by canonical pair key, so a pair is
  counted as emitted once and as scored once, ever, even when a crash
  forces the (side-effect-free) scorer forward to run again.

Fault sites: ``stream.ingest`` (before an arrival is journaled),
``stream.score`` (before the scorer runs), ``stream.score.commit``
(between scoring and journaling the results) — plus every ``wal.*``
site underneath.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.data.schema import EntityPair, EntityRecord
from repro.ft.faults import fault_point
from repro.runs import store as runstore
from repro.stream.clusters import StreamClusterStore
from repro.stream.index import IncrementalMinHashIndex, pair_key
from repro.stream.wal import WriteAheadLog
from repro.text.normalize import basic_tokenize

_STATE_FORMAT = 2      # format 1 also held band keys; loading ignores them


@dataclass
class StreamConfig:
    """Tuning knobs of a :class:`StreamPipeline`."""

    threshold: float = 0.5        # cluster-edge decision boundary
    score_batch: int = 64         # max in-flight (pending) pairs before scoring
    sync_every: int = 64          # WAL group-commit size
    snapshot_every: int = 0       # journaled ops between snapshots (0 = manual)
    num_hashes: int = 48          # MinHash signature length
    bands: int = 12               # LSH bands
    seed: int = 0                 # hashing seed (stable across runs)


class JaccardScorer:
    """Cheap deterministic scorer: token-set Jaccard as match probability.

    The zero-dependency scorer for high-rate ingest benchmarks; exposes
    the same ``score_pairs -> {"em_prob", "em_pred"}`` surface as the
    engine.
    """

    def __init__(self, threshold: float = 0.5):
        self.threshold = threshold

    def score_pairs(self, pairs: Sequence[EntityPair],
                    dataset=None) -> dict[str, np.ndarray]:
        probs = np.zeros(len(pairs), dtype=np.float32)
        for i, pair in enumerate(pairs):
            a = set(basic_tokenize(pair.record1.text()))
            b = set(basic_tokenize(pair.record2.text()))
            union = len(a | b)
            probs[i] = (len(a & b) / union) if union else 0.0
        return {"em_prob": probs,
                "em_pred": (probs >= self.threshold).astype(np.int64)}


def _record_payload(record: EntityRecord) -> dict:
    return {"attrs": {k: v for k, v in record.attributes},
            "entity_id": record.entity_id, "source": record.source}


def _payload_record(payload: Mapping) -> EntityRecord:
    return EntityRecord.from_dict(dict(payload["attrs"]),
                                  entity_id=payload.get("entity_id"),
                                  source=payload.get("source") or "")


def _payload_tokens(payload: Mapping) -> list[str]:
    return basic_tokenize(_payload_record(payload).text())


class StreamPipeline:
    """Durable incremental resolution over one WAL directory.

    Parameters
    ----------
    directory:
        The journal directory.  If it holds a previous incarnation's
        snapshot/WAL, the pipeline recovers from it at construction.
    scorer:
        Anything exposing ``score_pairs(pairs) -> {"em_prob": ...}`` —
        an :class:`~repro.engine.core.InferenceEngine` or
        :class:`JaccardScorer`.
    """

    def __init__(self, directory: str | Path, scorer,
                 config: StreamConfig | None = None):
        self.config = config or StreamConfig()
        self.scorer = scorer
        self.wal = WriteAheadLog(directory, sync_every=self.config.sync_every)
        self.index = IncrementalMinHashIndex(
            num_hashes=self.config.num_hashes, bands=self.config.bands,
            seed=self.config.seed)
        self.clusters = StreamClusterStore()
        self.records: dict[str, dict] = {}
        self.pending: dict[tuple[str, str], None] = {}
        self.scored_edges: dict[tuple[str, str], float] = {}
        self.counters = {"records": 0, "upserts": 0, "deletes": 0,
                         "candidates": 0, "scored": 0, "score_calls": 0}
        self.recovered = False
        self._ops_since_snapshot = 0
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        with obs.span("stream.recover"):
            start = time.perf_counter()
            if self.wal.snapshot_state is not None:
                self._load_state(self.wal.snapshot_state)
                self.wal.snapshot_state = None
                self.recovered = True
            for _seq, op in self.wal.replay():
                self._apply(op)
                self.recovered = True
            if self.recovered:
                obs.inc("stream.recoveries")
                runstore.record_event(
                    "stream.recover", replayed=self.wal.stats.replayed,
                    snapshot_seq=self.wal.snapshot_seq,
                    records=len(self.records),
                    wall_s=round(time.perf_counter() - start, 6))

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    def ingest(self, key: str, record: EntityRecord) -> list[tuple[str, str]]:
        """Journal + apply one arriving record; returns its new pairs.

        Re-ingesting an identical payload is a no-op, which is what
        makes replaying the input stream after a crash exactly-once.
        """
        payload = _record_payload(record)
        if self.records.get(key) == payload:
            return []
        with obs.span("stream.ingest"):
            fault_point("stream.ingest", key)
            op = {"op": "upsert", "key": key, "record": payload}
            self.wal.append(op)
            fresh = self._apply(op)
            obs.inc("stream.records_ingested")
            self._maybe_score()
            self._maybe_snapshot()
        return fresh

    def delete(self, key: str) -> bool:
        """Journal + apply a record removal (cluster membership stays)."""
        if key not in self.records:
            return False
        op = {"op": "delete", "key": key}
        self.wal.append(op)
        self._apply(op)
        self._maybe_snapshot()
        return True

    def extend(self, stream: Iterable[tuple[str, EntityRecord]]) -> int:
        """Ingest a whole (key, record) stream; returns records applied."""
        applied = 0
        for key, record in stream:
            before = self.counters["upserts"]
            self.ingest(key, record)
            applied += self.counters["upserts"] - before
        return applied

    # ------------------------------------------------------------------
    # State transitions (pure; shared by live ops and replay)
    # ------------------------------------------------------------------
    def _apply(self, op: dict) -> list[tuple[str, str]]:
        kind = op["op"]
        if kind == "upsert":
            key = op["key"]
            payload = op["record"]
            is_new = key not in self.records
            self.records[key] = payload
            fresh = self.index.insert(key, _payload_tokens(payload))
            self.clusters.add(key)
            for pair in fresh:
                self.pending[pair] = None
            self.counters["upserts"] += 1
            self.counters["records"] += 1 if is_new else 0
            self.counters["candidates"] += len(fresh)
            self._ops_since_snapshot += 1
            return fresh
        if kind == "delete":
            key = op["key"]
            self.records.pop(key, None)
            self.index.delete(key)
            self.pending = {p: None for p in self.pending
                            if key not in p}
            self.counters["deletes"] += 1
            self._ops_since_snapshot += 1
            return []
        if kind == "scored":
            pair = pair_key(op["a"], op["b"])
            self._ops_since_snapshot += 1
            if pair in self.scored_edges:      # replayed duplicate: no-op
                return []
            prob = float(op["p"])
            self.scored_edges[pair] = prob
            self.pending.pop(pair, None)
            self.counters["scored"] += 1
            if prob >= self.config.threshold:
                self.clusters.union(pair[0], pair[1])
            return []
        raise ValueError(f"unknown journal op {kind!r}")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _maybe_score(self) -> None:
        while len(self.pending) >= self.config.score_batch:
            self._score_batch(self.config.score_batch)

    def _score_batch(self, limit: int) -> int:
        batch = list(self.pending)[:limit]
        if not batch:
            return 0
        with obs.span("stream.score", pairs=len(batch)):
            fault_point("stream.score", len(batch))
            pairs = [EntityPair(_payload_record(self.records[a]),
                                _payload_record(self.records[b]), 0)
                     for a, b in batch]
            probs = self.scorer.score_pairs(pairs)["em_prob"]
            self.counters["score_calls"] += 1
            fault_point("stream.score.commit", len(batch))
            for (a, b), prob in zip(batch, probs):
                op = {"op": "scored", "a": a, "b": b, "p": float(prob)}
                self.wal.append(op)
                self._apply(op)
            self.wal.sync()
            obs.inc("stream.pairs_scored", len(batch))
        return len(batch)

    def flush(self) -> int:
        """Score every pending pair and sync the journal."""
        total = 0
        while self.pending:
            total += self._score_batch(self.config.score_batch)
        self.wal.sync()
        return total

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def _maybe_snapshot(self) -> None:
        if (self.config.snapshot_every
                and self._ops_since_snapshot >= self.config.snapshot_every):
            self.snapshot()

    def snapshot(self) -> int:
        """Persist full state atomically and compact the journal."""
        with obs.span("stream.snapshot", records=len(self.records)):
            start = time.perf_counter()
            seq = self.wal.snapshot(self._state())
            self._ops_since_snapshot = 0
            obs.inc("stream.snapshots")
            runstore.record_event(
                "stream.snapshot", seq=seq, records=len(self.records),
                pending=len(self.pending),
                wall_s=round(time.perf_counter() - start, 6))
        return seq

    def _state(self) -> dict:
        return {
            "format": _STATE_FORMAT,
            "index": self.index.state_dict(),
            "clusters": self.clusters.state_dict(),
            "records": dict(sorted(self.records.items())),
            "pending": [list(p) for p in self.pending],
            "scored": sorted([a, b, p] for (a, b), p in
                             self.scored_edges.items()),
            "counters": dict(self.counters),
        }

    def _load_state(self, state: dict) -> None:
        if state.get("format") not in (1, _STATE_FORMAT):
            raise ValueError(f"unsupported stream state format "
                             f"{state.get('format')!r}")
        self.index.load_state_dict(state["index"])
        self.records = dict(state["records"])
        # A consistent snapshot has emitted every collision among its
        # records, so rebuilding the band tables emits nothing.
        for key, payload in self.records.items():
            if self.index.insert(key, _payload_tokens(payload)):
                raise ValueError(f"inconsistent stream state: {key!r} "
                                 f"collides unemitted")
        self.clusters.load_state_dict(state["clusters"])
        self.pending = {tuple(p): None for p in state["pending"]}
        self.scored_edges = {(a, b): float(p) for a, b, p in state["scored"]}
        self.counters.update(state["counters"])

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def resolution(self):
        """Current partition (see :meth:`StreamClusterStore.resolution`)."""
        return self.clusters.resolution()

    def stats(self) -> dict:
        return {
            **self.counters,
            "pending": len(self.pending),
            "clusters": self.clusters.resolution().num_clusters,
            "wal": self.wal.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "StreamPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
