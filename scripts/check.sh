#!/usr/bin/env bash
# Repo check: tier-1 tests (every suite under tests/, obs, runs, serve,
# stream and explain included, minus the slow marks), the numerical
# verify stage (slow-marked sweeps + `repro selfcheck`; the slow marks
# include the `repro serve` CLI parity/saturation test and the
# 100k-offer kill-and-recover stream test), the crash-recovery suite
# under runtime invariants, the recording/probe overhead bench, the slo
# stage (a short traced 2-shard serve workload recorded into the
# registry and gated by `repro slo check` against the committed
# tests/baselines/serve_slo.json objectives), the explain bench (the
# attention-faithfulness bench, gated against
# tests/baselines/explain_bench.json so interpretability regressions —
# faithfulness gap, LIME/AoA agreement — trip the watchdog like F1
# regressions), and a seeded smoke run gated against the committed
# baseline by the `repro runs check` watchdog.  Benchmarks save their
# renderings to a temporary directory, and the last stage fails if any
# file under results/ changed.
#
#   bash scripts/check.sh
#
# Wall-clock speed is not gated here, apart from the recording-overhead
# bound in benchmarks/bench_ext_runs.py: `python3 perfbench/run.py`
# measures it, with bounds derived from run-to-run spread.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Benchmarks and recorded runs write to a temporary directory, never to
# the committed results/ (the last stage checks that nothing there moved).
CHECK_TMP="$(mktemp -d)"
trap 'rm -rf "$CHECK_TMP"' EXIT
RUNS_TMP="$CHECK_TMP/runs"
export REPRO_BENCH_RESULTS_DIR="$CHECK_TMP/results"
mkdir -p "$RUNS_TMP" "$REPRO_BENCH_RESULTS_DIR"
results_state() { find results -type f -exec sha256sum {} + | sort; }
RESULTS_BEFORE="$(results_state)"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== verify: slow-marked sweeps =="
python -m pytest -q -m slow

echo "== verify: selfcheck (gradcheck + invariants + golden + parity) =="
python -m repro.cli selfcheck

echo "== faults: crash-recovery matrix under runtime invariants =="
REPRO_VERIFY=1 python -m pytest -q tests/test_crash_recovery.py

echo "== runs: recording/probe overhead bench =="
python -m pytest -q benchmarks/bench_ext_runs.py

echo "== slo: traced serve workload gated by repro slo check =="
REPRO_RUNS_DIR="$RUNS_TMP" python scripts/serve_workload.py \
    --requests 60 --shards 2 --name slo-smoke \
    --spec tests/baselines/serve_slo.json
REPRO_RUNS_DIR="$RUNS_TMP" python -m repro.cli slo check slo-smoke \
    --spec tests/baselines/serve_slo.json

echo "== explain: faithfulness bench vs baseline =="
REPRO_RUNS_DIR="$RUNS_TMP" python -m pytest -q benchmarks/bench_explain.py --record
REPRO_RUNS_DIR="$RUNS_TMP" python -m repro.cli runs check bench-explain \
    --baseline tests/baselines/explain_bench.json \
    --f1-tol 0.05 --faithfulness-tol 0.05 --agreement-tol 0.3

echo "== runs: seeded smoke run vs committed baseline (watchdog) =="
REPRO_RUNS_DIR="$RUNS_TMP" python -m repro.cli run \
    --dataset wdc_computers --size small --model emba_ft \
    --profile smoke --epochs 10 --seed 1 --no-cache --name watchdog-smoke
REPRO_RUNS_DIR="$RUNS_TMP" python -m repro.cli runs check watchdog-smoke \
    --baseline tests/baselines/runs_smoke.json --f1-tol 0.05

echo "== results/: no stage rewrote a committed result =="
if [ "$(results_state)" != "$RESULTS_BEFORE" ]; then
    echo "check.sh changed files under results/:" >&2
    git status --porcelain results/ >&2
    exit 1
fi
