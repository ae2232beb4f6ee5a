"""``serve``: a seeded open loop of NDJSON ``match`` requests.

The daemon (``serve_daemon.py``) runs in its own process: a
``MatchServer`` with ``shards=0`` over a random-initialised
``emba_dual_sb`` (EmbaDual on ``mini-small``).  This process is the
client.  For every step of a fixed ladder of rates it draws a Poisson
arrival schedule from the seed (uniform order statistics: the arrival
count is fixed, the times are random) and sends each request at its due
time over two connections, whether or not earlier replies have come
back, so a stalled server builds a queue instead of slowing the client.
Latency is timed from the due time, and ``client.send_lag_ms`` reports
how late the generator ran.  Records are drawn Zipf-skewed from a pool
larger than the engine's ``record_cache_size``, so the record memo's hit
rate is partial.  Protocol, queue, batching and write dominate.

End to end: ``items_per_s`` and the latencies are those of the nominal
step; ``sustained_rps`` is the completed rate of the highest step whose
tail latency and final drain stay within ``LATENCY_LIMIT_MS``.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import latency_summary
import build
from repro.data.generators.wdc import wdc_offer_stream
from repro.engine import EngineConfig, InferenceEngine
from repro.models import EmbaDual
from repro.obs import read_jsonl
from repro.serve.protocol import encode_response, parse_request

POOL = 6000               # offers; larger than RECORD_CACHE
RECORD_CACHE = 1024       # engine record-memo entries
ZIPF_S = 1.0              # rank-frequency exponent of record popularity
ID_CLASSES = 16
SERVE_CONFIG = {"shards": 0, "max_batch": 32, "max_delay": 0.002,
                "max_queue": 1024}
#: (requests per second, seconds) of the unreported step that warms the
#: record memo before the ladder, as a running service would be warm.
WARMUP = (100.0, 2.0)
#: (requests per second, share of --seconds).  The first step is nominal:
#: light load, where latency is service time, not queueing.
LADDER = ((40.0, 0.6), (100.0, 0.2), (200.0, 0.2))
NOMINAL = 0
MIN_SAMPLES = 120         # per step, so every step has a p90 tail
LATENCY_LIMIT_MS = 250.0
CONNECTIONS = 2
DAEMON_TIMEOUT_S = 60
HERE = Path(__file__).resolve().parent


def build_served(seed: int):
    """``(engine_factory, model)``: the served model, from the seed.

    The daemon and the offline correctness check both call this, so
    they score with identical weights and tokenization.
    """
    offers = wdc_offer_stream("computers", build.TOKENIZER_TEXTS, seed=seed)
    encoder = build.pair_encoder(record.text() for _, record in offers)
    model = build.model(EmbaDual, "mini-small", encoder, ID_CLASSES, seed)
    model.eval()

    def engine_factory(served):
        return InferenceEngine(served, encoder, EngineConfig(
            batch_size=SERVE_CONFIG["max_batch"],
            record_cache_size=RECORD_CACHE))

    return engine_factory, model


class State:
    pass


def _start_daemon(state: State, trace: bool, wait: bool = True) -> None:
    (state.workdir / "trace.jsonl").unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "serve_daemon.py"),
            "--seed", str(state.seed), "--workdir", str(state.workdir)]
    if trace:
        argv.append("--trace")
    state.daemon = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE)
    if wait:
        _connect(state)


def _connect(state: State) -> None:
    """Wait for the daemon's ready line; open the client connections."""
    line = state.daemon.stdout.readline()
    if not line:
        state.daemon.wait(DAEMON_TIMEOUT_S)
        raise RuntimeError("serve daemon exited before it was ready")
    ready = json.loads(line)
    state.socks = [socket.create_connection((ready["host"], ready["port"]))
                   for _ in range(CONNECTIONS)]
    state.received = {}
    state.readers = [threading.Thread(target=_read_responses,
                                      args=(sock, state.received),
                                      daemon=True)
                     for sock in state.socks]
    for reader in state.readers:
        reader.start()


def _stop_daemon(state: State) -> dict:
    """Shut the daemon down; return the report it wrote on exit.

    Closing the connections first lets their handlers end at EOF; the
    daemon then stops when its stdin closes.
    """
    if state.daemon is None:
        return {}
    for sock in state.socks:
        try:
            sock.shutdown(socket.SHUT_WR)     # the server ends at EOF
        except OSError:
            pass
    for reader in state.readers:              # ...and then closes its side
        reader.join(DAEMON_TIMEOUT_S)
    for sock in state.socks:
        sock.close()
    state.daemon.stdin.close()
    try:
        state.daemon.wait(DAEMON_TIMEOUT_S)
    finally:
        if state.daemon.poll() is None:
            state.daemon.kill()
            state.daemon.wait()
        state.daemon.stdout.close()
        state.daemon = None
    report = state.workdir / "daemon.json"
    payload = json.loads(report.read_text()) if report.exists() else {}
    report.unlink(missing_ok=True)
    return payload


def setup(seed: int, workdir: Path) -> State:
    state = State()
    state.seed, state.workdir = seed, workdir
    state.rng = np.random.default_rng(seed)
    state.served = []                 # (frame, response) of every request
    state.daemon = None
    # The daemon boots in parallel with the client's own pool generation.
    _start_daemon(state, trace=False, wait=False)
    state.pool = [{k: v for k, v in record.attributes} for _, record in
                  wdc_offer_stream("computers", POOL, seed=seed)]
    ranks = np.arange(1, POOL + 1, dtype=np.float64) ** -ZIPF_S
    state.popularity = ranks / ranks.sum()
    state.by_rank = state.rng.permutation(POOL)
    _connect(state)
    return state


def _frames(state: State, count: int, first_id: int) -> list[bytes]:
    picks = state.by_rank[state.rng.choice(POOL, size=(count, 2),
                                           p=state.popularity)]
    return [encode_response({"op": "match", "id": first_id + i,
                             "left": state.pool[a], "right": state.pool[b]})
            for i, (a, b) in enumerate(picks)]


def _read_responses(sock, received: dict) -> None:
    """Reader thread: file every response by id with its arrival time."""
    buffer = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except OSError:
            return
        if not chunk:
            return
        now = time.monotonic()
        buffer += chunk
        *lines, buffer = buffer.split(b"\n")
        for line in lines:
            response = json.loads(line)
            received[response.get("id")] = (now, response)


def _run_step(state: State, rate: float, duration: float) -> dict:
    """One open-loop ladder step; latencies are timed from due times."""
    count = max(1, round(rate * duration))
    due = np.sort(state.rng.uniform(0.0, duration, count))
    first_id = len(state.served)
    frames = _frames(state, count, first_id)
    received = state.received
    sent = np.zeros(count)
    start = time.monotonic() + 0.05
    for i, frame in enumerate(frames):
        delay = start + due[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent[i] = time.monotonic()
        state.socks[i % CONNECTIONS].sendall(frame)
    deadline = time.monotonic() + LATENCY_LIMIT_MS / 1e3 * 40
    ids = range(first_id, first_id + count)
    while (not all(i in received for i in ids)
           and time.monotonic() < deadline):
        time.sleep(0.005)
    latencies, ok = [], 0
    last = start
    for i in range(count):
        got = received.get(first_id + i)
        response = got[1] if got else {"error": {"code": "no_response"}}
        state.served.append((frames[i], response))
        if got is None:
            continue
        last = max(last, got[0])
        latencies.append(got[0] - (start + due[i]))
        ok += "error" not in response
    lag_ms = 1e3 * (sent - (start + due))
    # Too few replies for a tail: the step fails, and a nominal step
    # without latencies fails the run below.
    summary = latency_summary(latencies) if len(latencies) >= 100 else {}
    return {"rate": rate, "sent": count, "succeeded": ok,
            "failed": count - ok,
            "completed_per_s": ok / max(last - start, 1e-9),
            "drain_ms": 1e3 * (last - (start + due[-1])),
            "send_lag_ms": float(lag_ms.mean()),
            "latency_sum_ms": 1e3 * sum(latencies),
            **summary}


def _ladder(state: State, seconds: float) -> list[dict]:
    warmup = _run_step(state, *WARMUP)
    return [warmup] + [
        _run_step(state, rate, max(share * seconds, MIN_SAMPLES / rate))
        for rate, share in LADDER]


def _passes(step: dict) -> bool:
    return (step["failed"] == 0 and "latency_tail_ms" in step
            and step["latency_tail_ms"] <= LATENCY_LIMIT_MS
            and step["drain_ms"] <= LATENCY_LIMIT_MS)


def _trace_rows(path: Path) -> dict:
    records, _ = read_jsonl(path)
    rows = {"serve.queue_wait": 0.0, "serve.score_wait": 0.0,
            "serve.write": 0.0}
    for record in records:
        if record.name in rows:
            rows[record.name] += 1e3 * record.wall
    return rows


def measure(state: State, seconds: float, clock=None) -> dict:
    if state.daemon is None:
        _start_daemon(state, trace=clock is not None)
    steps = _ladder(state, seconds)
    daemon = _stop_daemon(state)
    nominal = steps[1 + NOMINAL]
    passing = [step for step in steps[1:] if _passes(step)]
    requests = sum(step["sent"] for step in steps)
    result = {
        "ops": requests,
        "attempted": requests,
        "failed": sum(step["failed"] for step in steps),
        "details": {"ladder": steps, "latency_limit_ms": LATENCY_LIMIT_MS,
                    "daemon": daemon.get("final", {})},
        "end_to_end": {
            "items_per_s": nominal["completed_per_s"],
            "latency_p50_ms": nominal["latency_p50_ms"],
            "latency_tail_ms": nominal["latency_tail_ms"],
            "tail_percentile": nominal["tail_percentile"],
            "latency_samples": nominal["latency_samples"],
            "sustained_rps": (passing[-1]["completed_per_s"]
                              if passing else 0.0),
            "peak_rss_mb": daemon["peak_rss_mb"],
        },
    }
    if clock is not None:
        final, engine = daemon["final"], daemon["engine"]
        rows = _trace_rows(state.workdir / "trace.jsonl")
        rows["client.send_lag"] = sum(s["send_lag_ms"] * s["sent"]
                                      for s in steps)
        result["rows_ms"] = {k: v / requests for k, v in rows.items()}
        result["wall_ms"] = sum(s["latency_sum_ms"] for s in steps) / requests
        result["layers"] = {
            "serve.mean_batch_size": final["mean_batch_size"],
            "serve.peak_queue_depth": final["peak_queue_depth"],
            "serve.rejected": final["rejected"],
            "engine.record_hit_rate": engine["record_hit_rate"],
        }
    return result


def check(state: State) -> list[str]:
    """Every served score is bitwise equal to the offline engine's."""
    engine_factory, model = build_served(state.seed)
    engine = engine_factory(model)
    answered = [(frame, response) for frame, response in state.served
                if "score" in response]
    state.served = []
    if not answered:
        return ["no request was answered with a score"]
    pairs = [parse_request(frame).pair() for frame, _ in answered]
    offline = engine.score_pairs(pairs)["em_prob"]
    wrong = sum(float(p) != response["score"]
                for p, (_, response) in zip(offline, answered))
    if wrong:
        return [f"{wrong} of {len(answered)} served scores differ from "
                "the offline engine"]
    return []


def close(state: State) -> None:
    _stop_daemon(state)
