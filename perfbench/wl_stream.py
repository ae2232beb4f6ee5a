"""``stream``: durable ingest through ``StreamPipeline`` (no model).

A generated ``wdc_offer_stream`` is ingested record by record through a
``StreamPipeline`` with the ``JaccardScorer`` and its write-ahead log on
local disk.  WAL append, the MinHash-LSH index, union-find and snapshots
dominate; no model runs, so a model-layer change must leave this
workload unmoved.  One pass ingests the whole stream into a fresh
journal directory, flushes it and takes one snapshot; every pass does
identical work.  The operation is one ``ingest()`` call; items are
records.

Group commit and scoring batches are sized past one pass, so the journal
is fsynced at each pass's flush and snapshot, never inside an
``ingest()`` call: fsync latency on a shared disk swings several-fold
between runs, and a tail that landed among fsync calls would measure the
disk, not the pipeline.  Fsync cost shows in ``items_per_s`` and in the
``stream.wal_sync_ms`` row instead.  The tail that remains is mostly the
interpreter's cyclic garbage collector, and at 0.2 ms per call a busy
host moves it too: ``latency_tail_ms`` is therefore the median of the
passes' p99.9 (10 samples beyond it in each pass).
"""

from __future__ import annotations

import shutil
import time

from repro.data.generators.wdc import wdc_offer_stream
from repro.resolution import resolve_clusters
from repro.stream import JaccardScorer, StreamConfig, StreamPipeline

OFFERS = 10_000           # 1250 products x 8 shops, product-interleaved
CONFIG = StreamConfig(threshold=0.5, score_batch=4096, sync_every=16384,
                      snapshot_every=0, num_hashes=96, bands=8, seed=0)
MIN_OPS = OFFERS           # one pass: enough ingest calls for a p99.9 tail


class State:
    pass


def _open(state: State) -> StreamPipeline:
    state.passes += 1
    directory = state.workdir / f"wal-{state.passes}"
    shutil.rmtree(directory, ignore_errors=True)
    return StreamPipeline(directory, JaccardScorer(), CONFIG)


def setup(seed: int, workdir) -> State:
    state = State()
    state.workdir = workdir
    state.offers = list(wdc_offer_stream("computers", OFFERS, seed=seed))
    state.passes = 0
    state.errors = []
    state.pipe = _open(state)
    return state


def _wrap(pipe: StreamPipeline, clock, written: list) -> None:
    sync = pipe.wal.sync

    def counted_sync():
        # A sync only appends to the log, so its growth is the bytes written.
        before = _size(pipe.wal.log_path)
        sync()
        written[0] += _size(pipe.wal.log_path) - before

    pipe.wal.sync = counted_sync
    clock.wrap(pipe.wal, "append", "stream.wal_append")
    clock.wrap(pipe.wal, "sync", "stream.wal_sync")
    clock.wrap(pipe.index, "insert", "stream.index_insert")
    clock.wrap(pipe.scorer, "score_pairs", "stream.score")
    clock.wrap(pipe.clusters, "union", "stream.cluster_union")
    clock.wrap(pipe, "snapshot", "stream.snapshot")


def _size(path) -> int:
    return path.stat().st_size if path.exists() else 0


def _check_pass(pipe: StreamPipeline, emitted: list) -> list[str]:
    """Exactly-once emission; clusters equal the batch resolver's."""
    errors = []
    stats = pipe.stats()
    if (len(emitted) != len(set(emitted))
            or set(emitted) != pipe.index.emitted_pairs()
            or stats["candidates"] != len(emitted)):
        errors.append("candidate pairs were not emitted exactly once")
    if stats["scored"] != stats["candidates"] or stats["pending"]:
        errors.append("not every candidate was scored exactly once")
    batch = resolve_clusters(
        sorted(pipe.records),
        [(a, b, p) for (a, b), p in pipe.scored_edges.items()],
        threshold=CONFIG.threshold)
    if pipe.resolution().clusters != batch.clusters:
        errors.append("streamed clusters differ from resolve_clusters")
    return errors


def measure(state: State, seconds: float, clock=None) -> dict:
    latencies, passes, slices, elapsed = [], [], [], 0.0
    syncs = candidates = 0
    written = [0]
    while elapsed < seconds or len(latencies) < MIN_OPS:
        pipe = state.pipe
        if clock is not None:
            _wrap(pipe, clock, written)
        emitted = []
        start = time.perf_counter()
        for key, record in state.offers:
            t0 = time.perf_counter()
            emitted += pipe.ingest(key, record)
            latencies.append(time.perf_counter() - t0)
        passes.append(latencies[-len(state.offers):])
        pipe.flush()
        pipe.snapshot()
        took = time.perf_counter() - start
        elapsed += took
        slices.append((len(state.offers), len(state.offers), took))
        state.errors += _check_pass(pipe, emitted)
        syncs += pipe.wal.stats.syncs
        candidates += pipe.stats()["candidates"]
        pipe.close()
        shutil.rmtree(pipe.wal.directory)
        state.pipe = _open(state)
    items = len(latencies)
    return {
        "ops": items,
        "elapsed": elapsed,
        "slices": slices,
        "latencies": latencies,
        "latency_passes": passes,
        "attempted": len(latencies),
        "failed": 0,
        "details": {"offers_per_pass": len(state.offers),
                    "passes": len(slices)},
        "layers": {"stream.wal_syncs": syncs / items,
                   "stream.wal_bytes": written[0] / items,
                   "stream.candidates_per_record": candidates / items},
    }


def check(state: State) -> list[str]:
    errors, state.errors = state.errors, []
    return errors


def close(state: State) -> None:
    state.pipe.close()
