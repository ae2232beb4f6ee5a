"""The ``serve`` workload's daemon process: one in-process ``MatchServer``.

Started by ``wl_serve.py`` so that client and server do not share an
interpreter lock.  It builds the served model from the seed, binds an
ephemeral port, prints one ``ready`` JSON line, and serves until its
stdin closes: the client closes it to stop the daemon, and so does the
client's death.  It then writes ``daemon.json`` into ``--workdir``: the
server's own counters (``MatchServer.final_metrics()``, built on
``stats()``), the engine's ``EngineStats``, and this process's peak
resident memory.  With
``--trace`` the server records the program's existing ``repro.obs``
spans to ``trace.jsonl`` in the same directory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path

from common import emit, peak_rss_mb
from repro import obs
from repro.serve import MatchScorer, MatchServer, ServeConfig
from wl_serve import SERVE_CONFIG, build_served


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    if args.trace:
        obs.enable(str(workdir / "trace.jsonl"))
    engine_factory, model = build_served(args.seed)
    scorers: list[MatchScorer] = []

    def scorer_factory() -> MatchScorer:
        scorers.append(MatchScorer(engine_factory, model))
        return scorers[-1]

    server = MatchServer(scorer_factory, ServeConfig(**SERVE_CONFIG))

    async def serve() -> None:
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        stdin_closed = asyncio.Event()

        def watch_stdin() -> None:
            sys.stdin.read()                  # returns at EOF
            loop.call_soon_threadsafe(stdin_closed.set)

        threading.Thread(target=watch_stdin, daemon=True).start()
        emit({"event": "ready", "host": host, "port": port})
        await stdin_closed.wait()
        await server.stop()

    asyncio.run(serve())
    if args.trace:
        obs.disable()
    payload = {"final": server.final_metrics(),
               "engine": scorers[0].engine.stats.as_dict(),
               "peak_rss_mb": peak_rss_mb()}
    (workdir / "daemon.json").write_text(json.dumps(payload, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
