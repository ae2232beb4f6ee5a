"""The benchmark's metric table: names, units, direction, bounds.

``BENCHMARK.json`` at the repository root declares the same names and
units; ``test_perfbench.py`` checks that the two agree and that every
workload prints exactly these names.

End-to-end metrics are measured with tracing off.  Per-layer metrics
come from a separate traced run; every ``*_ms`` row is self time per
operation (see :mod:`layers`), so in each workload the rows plus
``unattributed_ms`` add up to ``trace.wall_ms``.  ``MOVES`` names the
end-to-end metrics a change to each layer should move, and the workloads
where the row is measured; elsewhere the row prints 0.  The serve rows
are printed by the ``serve`` workload only, which ``BENCHMARK.json`` does
not declare.
"""

from __future__ import annotations

#: Workloads declared in ``BENCHMARK.json``, whose end-to-end spreads are
#: gated by their bounds.
WORKLOADS = ("train", "score", "stream")
#: Runnable for diagnosis, not declared: on a shared 2-core machine the
#: served latency spreads 25-35% between runs, more than any bound allows.
UNGATED = ("serve",)

#: name -> (unit, better, bound)
#: Timing bounds are the largest allowed: on a shared 2-core machine the
#: 10-seed spread of the timing metrics reaches 8-11%, mostly host drift.
END_TO_END = {
    "items_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "success_rate": ("ratio", "higher", 0.01),
    "sustained_rps": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
}

#: name -> (unit, better)
PER_LAYER = {
    # every workload
    "trace.wall_ms": ("ms", "lower"),
    "unattributed_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "higher"),
    "setup.import_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    # train
    "data.collate_ms": ("ms", "lower"),
    "models.forward_ms": ("ms", "lower"),
    "bert.encoder_ms": ("ms", "lower"),
    "models.aoa_ms": ("ms", "lower"),
    "models.heads_ms": ("ms", "lower"),
    "models.loss_ms": ("ms", "lower"),
    "nn.backward_ms": ("ms", "lower"),
    "nn.optim_step_ms": ("ms", "lower"),
    "data.pad_waste": ("ratio", "lower"),
    # score
    "blocking.block_ms": ("ms", "lower"),
    "blocking.candidates": ("count", "lower"),
    "blocking.pair_completeness": ("ratio", "higher"),
    "engine.encode_ms": ("ms", "lower"),
    "engine.encode_hit_rate": ("ratio", "higher"),
    "engine.score_ms": ("ms", "lower"),
    "engine.batches": ("count", "lower"),
    "engine.rows_per_batch": ("count", "higher"),
    "engine.pad_waste_ratio": ("ratio", "lower"),
    # stream
    "stream.wal_append_ms": ("ms", "lower"),
    "stream.wal_sync_ms": ("ms", "lower"),
    "stream.wal_syncs": ("count", "lower"),
    "stream.wal_bytes": ("bytes", "lower"),
    "stream.index_insert_ms": ("ms", "lower"),
    "stream.candidates_per_record": ("ratio", "lower"),
    "stream.score_ms": ("ms", "lower"),
    "stream.cluster_union_ms": ("ms", "lower"),
    "stream.snapshot_ms": ("ms", "lower"),
}

#: Rows of the undeclared ``serve`` workload, printed by it alone.
SERVE_LAYERS = {
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.score_wait_ms": ("ms", "lower"),
    "serve.write_ms": ("ms", "lower"),
    "serve.mean_batch_size": ("count", "higher"),
    "serve.peak_queue_depth": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "engine.record_hit_rate": ("ratio", "higher"),
    "client.send_lag_ms": ("ms", "lower"),
}

_ALL = WORKLOADS + UNGATED
_SETUP = ("setup_s",)

#: per-layer name -> (workloads where it is measured, end-to-end metrics
#: a change to that layer should move)
MOVES = {
    "trace.wall_ms": (_ALL, ("items_per_s", "latency_p50_ms")),
    "unattributed_ms": (_ALL, ("items_per_s", "latency_p50_ms")),
    "trace.overhead": (_ALL, ("items_per_s",)),
    "setup.import_s": (_ALL, _SETUP),
    "setup.build_s": (_ALL, _SETUP),
}
MOVES.update({name: (("train",), ("items_per_s", "latency_p50_ms"))
              for name in ("data.collate_ms", "bert.encoder_ms",
                           "models.aoa_ms", "models.heads_ms",
                           "models.loss_ms", "nn.backward_ms",
                           "nn.optim_step_ms", "data.pad_waste")})
MOVES["models.forward_ms"] = (("train", "score"),
                              ("items_per_s", "latency_p50_ms",
                               "latency_tail_ms"))
MOVES.update({name: (("score",), ("items_per_s", "latency_tail_ms"))
              for name in ("blocking.block_ms", "blocking.candidates",
                           "blocking.pair_completeness", "engine.encode_ms",
                           "engine.encode_hit_rate", "engine.score_ms",
                           "engine.batches", "engine.rows_per_batch",
                           "engine.pad_waste_ratio")})
MOVES.update({name: (("serve",), ("latency_p50_ms", "latency_tail_ms",
                                  "sustained_rps"))
              for name in ("serve.queue_wait_ms", "serve.score_wait_ms",
                           "serve.write_ms", "serve.mean_batch_size",
                           "serve.peak_queue_depth", "serve.rejected",
                           "engine.record_hit_rate", "client.send_lag_ms")})
MOVES.update({name: (("stream",), ("items_per_s", "latency_tail_ms"))
              for name in ("stream.wal_append_ms", "stream.wal_sync_ms",
                           "stream.wal_syncs", "stream.wal_bytes",
                           "stream.index_insert_ms",
                           "stream.candidates_per_record", "stream.score_ms",
                           "stream.cluster_union_ms", "stream.snapshot_ms")})


def per_layer_table(workload: str) -> dict:
    """The per-layer metrics ``workload`` prints with ``--trace 1``."""
    return {**PER_LAYER, **SERVE_LAYERS} if workload in UNGATED else PER_LAYER


def rows_for(workload: str) -> list[str]:
    """Per-layer ``*_ms`` rows whose self times add up in ``workload``."""
    return [name for name, (where, _) in MOVES.items()
            if workload in where and name.endswith("_ms")
            and name not in ("trace.wall_ms", "unattributed_ms")]
