"""repro.stream — durable streaming entity resolution.

The incremental counterpart of the batch ``blocking -> scoring ->
resolution`` pipeline: records arrive one at a time, an incremental
MinHash-LSH index emits only the *new* candidate pairs each arrival
creates, a scorer (the inference engine or the cheap Jaccard
stage) scores them in bounded batches, and an incremental
union-find cluster store folds confident edges into the entity
partition — all journaled through a checksummed write-ahead log so a
``kill -9`` at any point recovers, byte-identically, to the state an
uninterrupted run would have reached.

Components
----------
- :class:`~repro.stream.wal.WriteAheadLog` — append-only, fsync-batched
  checksummed JSONL journal with an atomic snapshot, after which the
  log is truncated in place (the snapshot covers every line in it);
- :class:`~repro.stream.index.IncrementalMinHashIndex` — insert /
  update / delete over the exact mod-(2^61-1) MinHash banding of
  :class:`~repro.blocking.minhash.MinHashBlocker`, with exactly-once
  candidate emission;
- :class:`~repro.stream.clusters.StreamClusterStore` — union-find
  partition pinned equal to :func:`repro.resolution.resolve_clusters`
  on the same edge set;
- :class:`~repro.stream.pipeline.StreamPipeline` — the end-to-end
  ingest -> candidates -> score -> cluster loop plus crash recovery,
  driven by the ``repro stream`` CLI.
"""

from repro.stream.clusters import StreamClusterStore
from repro.stream.index import IncrementalMinHashIndex
from repro.stream.pipeline import JaccardScorer, StreamConfig, StreamPipeline
from repro.stream.wal import WALCorruptError, WALError, WriteAheadLog

__all__ = [
    "IncrementalMinHashIndex",
    "JaccardScorer",
    "StreamClusterStore",
    "StreamConfig",
    "StreamPipeline",
    "WALCorruptError",
    "WALError",
    "WriteAheadLog",
]
