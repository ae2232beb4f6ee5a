"""repro.serve — matching-as-a-service on top of the inference engine.

A long-lived, stdlib-only serving daemon (``repro serve``) exposing the
trained matcher over a newline-delimited JSON TCP protocol, built from
small separately-testable parts:

- :mod:`~repro.serve.protocol` — frame parsing/validation, structured
  error codes, explicit size limits;
- :mod:`~repro.serve.batcher` — :class:`BatchQueue`, the micro-batcher
  (collect ≤ ``max_delay`` seconds or ``max_batch`` pairs, bounded
  admission queue, injectable clock);
- :mod:`~repro.serve.scorer` — :class:`MatchScorer`, one model + engine
  with zero-downtime weight hot-swap;
- :mod:`~repro.serve.workers` — in-process or forked shard workers,
  crash containment, record-key shard routing;
- :mod:`~repro.serve.daemon` — :class:`MatchServer`, the asyncio
  daemon; :class:`ServerHandle` runs it on a background thread;
- :mod:`~repro.serve.client` — :class:`ServeClient`, a blocking
  pipelining client;
- :mod:`~repro.serve.registry` — weights in/out of the run registry
  (``{"op": "swap", "ref": "latest"}`` promotes a retrained model);
- :mod:`~repro.serve.slo` — declarative :class:`SloSpec` objectives
  evaluated live inside the daemon and post-hoc by ``repro slo check``,
  plus the ``repro top`` frame renderer.

See ``docs/operations.md`` ("Running the matching service" and
"Watching a live service") for the runbook and
``perfbench/wl_serve.py`` for the load generator.
"""

from repro.serve.batcher import BatchQueue
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import MatchServer, ServeConfig, ServerHandle
from repro.serve.protocol import (
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_OVERLOADED,
    E_SWAP_FAILED,
    E_TOO_LARGE,
    E_UNKNOWN_OP,
    ProtocolError,
    Request,
    ServeLimits,
    decode_response,
    encode_response,
    error_response,
    match_response,
    parse_request,
)
from repro.serve.registry import WEIGHTS_ARTIFACT, publish_model, resolve_weights
from repro.serve.scorer import MatchScorer
from repro.serve.slo import SloBreach, SloSpec, check_run, render_top
from repro.serve.workers import (
    LocalWorker,
    ShardWorker,
    WorkerCrash,
    shard_of,
)

__all__ = [
    "BatchQueue", "E_BAD_JSON", "E_BAD_REQUEST", "E_INTERNAL",
    "E_OVERLOADED", "E_SWAP_FAILED", "E_TOO_LARGE", "E_UNKNOWN_OP",
    "LocalWorker", "MatchScorer", "MatchServer", "ProtocolError", "Request",
    "ServeClient", "ServeConfig", "ServeError", "ServeLimits", "ServerHandle",
    "ShardWorker", "SloBreach", "SloSpec", "WEIGHTS_ARTIFACT", "WorkerCrash",
    "check_run", "decode_response", "encode_response", "error_response",
    "match_response", "parse_request", "publish_model", "render_top",
    "resolve_weights", "shard_of",
]
