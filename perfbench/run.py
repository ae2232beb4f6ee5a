"""One command for the repository's benchmark: train, score, serve, stream.

    python3 perfbench/run.py --workload score --seed 3 --seconds 10 --trace 0

Run from the repository root.  The program under test is imported from
``src/``; nothing is installed.  For one workload and one seed this

1. pins the environment of every process it starts (one BLAS/OpenMP
   thread, a fixed ``PYTHONHASHSEED``, and ``REPRO_CACHE_DIR`` /
   ``REPRO_RUNS_DIR`` in a fresh directory under ``.perfbench_tmp/``,
   removed at exit), and prints that environment;
2. times ``SETUP_LAUNCHES`` cold launches of the workload process from
   interpreter start to ready, plus the measured launch itself, and
   reports their median as ``setup_s``;
3. measures the workload for ``--seconds`` (twice with ``--trace 1``:
   untraced, then traced) and checks its outputs;
4. prints every metric with its unit, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
   the end-to-end metrics for ``--trace 0``, the per-layer ones for
   ``--trace 1``.

Exit status is 0 when the outputs are correct, 1 when a check failed,
and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import emit, median
from metrics import (END_TO_END, MOVES, UNGATED, WORKLOADS,
                     per_layer_table)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 2          # cold setup-only launches besides the measured one
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["REPRO_RUNS_DIR"] = str(workdir / "runs")
    return env


def launch(args, env: dict, workdir: Path, setup_only: bool) -> list[dict]:
    """Run one workload process; return its JSON events."""
    argv = [sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env={**env, "PERFBENCH_SPAWN_T": repr(spawned)},
        stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload} process timed out")
    finally:
        if proc.poll() is None:       # interrupted: take the group down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    events = [json.loads(line) for line in out.decode().splitlines()
              if line.startswith("{")]
    if proc.returncode != 0 or not events or events[0]["event"] != "ready":
        raise BenchError(f"{args.workload} process failed "
                         f"(exit {proc.returncode})")
    events[0]["setup_s"] = events[0]["ready_at"] - spawned
    return events


def measure(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = pinned_env(workdir)
    try:
        readies = [launch(args, env, workdir, True)[0]
                   for _ in range(SETUP_LAUNCHES)]
        events = launch(args, env, workdir, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()      # only if no other run is using it
        except OSError:
            pass
    readies.append(events[0])
    result = next((e for e in events if e["event"] == "result"), None)
    if result is None:
        raise BenchError(f"{args.workload} process printed no result")
    setup = {key: median([r[key] for r in readies])
             for key in ("setup_s", "import_s", "build_s")}
    env_report = {k: env[k] for k in (*PINNED_ENV, "REPRO_CACHE_DIR",
                                      "REPRO_RUNS_DIR")}
    env_report["setup_launches"] = len(readies)
    return result, {"setup": setup, "env": env_report}


def report(args, result: dict, info: dict) -> dict:
    e2e = dict(result["end_to_end"])
    errors = result["errors"]
    # A failed correctness check counts as a failed operation.
    attempted, failed = result["attempted"], result["failed"] + len(errors)
    e2e["setup_s"] = info["setup"]["setup_s"]
    e2e["success_rate"] = (attempted - failed) / attempted if attempted else 0.0
    if args.trace:
        values = dict(result["per_layer"])
        values["setup.import_s"] = info["setup"]["import_s"]
        values["setup.build_s"] = info["setup"]["build_s"]
        table = per_layer_table(args.workload)
    else:
        values = e2e
        table = END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(info["env"], sort_keys=True))
    print("details: " + json.dumps(result.get("details", {}), sort_keys=True))
    if not args.trace:
        per_pass = (f", median over {e2e['tail_passes']} passes"
                    if "tail_passes" in e2e else "")
        print(f"tail percentile: p{e2e['tail_percentile']:g} of "
              f"{e2e['latency_samples']} samples{per_pass}")
    for name, spec in table.items():
        moves = ""
        if args.trace:
            where, targets = MOVES[name]
            moves = ("-> " + ", ".join(targets)
                     if args.workload in where else "(not in this workload)")
        print(f"  {name:28s} {values[name]:14.6g} {spec[0]:6s} {moves}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": spec[0]}
                    for name, spec in table.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + UNGATED,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    final = report(args, result, info)
    emit(final)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
