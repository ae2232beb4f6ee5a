"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``datasets``                 list the benchmark configurations (Table 1)
- ``run --dataset D --model M``  train + evaluate one configuration
- ``resume --dataset D --model M``  continue a crashed run from its
                               newest valid checkpoint (byte-identical
                               to an uninterrupted run)
- ``table N``                  regenerate one of the paper's tables (1-7)
- ``figure N``                 regenerate Figure 5 or 6
- ``casestudy``                print the Section 4.7 case-study pair
- ``serve``                    run the matching daemon: newline-delimited
                               JSON over TCP with micro-batching,
                               backpressure, and hot-swappable weights
                               (see docs/operations.md for the runbook)
- ``stream``                   durable streaming resolution: journal a
                               synthetic WDC offer stream through the
                               WAL-backed incremental LSH index, score
                               new candidates, and cluster incrementally;
                               re-running with the same ``--dir`` recovers
                               from the journal (kill-at-any-point safe)
- ``explain``                  attention-faithfulness audit: token-masking
                               faithfulness of AoA gamma vs. a random
                               baseline, per-head received-attention
                               drift pre/post fine-tuning, and LIME/AoA
                               rank agreement; records a ``kind="explain"``
                               run so ``repro runs check`` can gate the
                               interpretability metrics
- ``selfcheck``                numerical certification: gradcheck sweep,
                               runtime invariants, golden digests, parity
- ``trace FILE``               render a JSON-lines trace (written via
                               ``--trace-file`` or ``REPRO_TRACE=<path>``)
                               as a span tree plus the metrics table;
                               ``--merge`` reassembles the pid-suffixed
                               per-process files of a traced serve run
                               into one cross-process tree, and
                               ``--trace-id ID`` renders one request's
                               full queue→batch→shard→forward journey
                               with per-stage latency attribution
- ``top``                      poll a running daemon's windowed live
                               telemetry (p50/p99 latency, throughput,
                               rejection rate, per-worker status)
- ``slo check REF --spec S``   audit a recorded serve run against a
                               declarative SLO spec; non-zero exit on
                               breach (CI gate)
- ``runs list|show|diff|check|prune``  the persistent run registry:
                               list recorded runs, inspect one (manifest,
                               training curves, probe channels), diff two,
                               gate a candidate against a baseline
                               (non-zero exit on regression), prune old runs

``run``, ``resume``, ``serve``, ``stream`` and ``explain`` accept
``--trace`` (print a span tree + metrics summary after the command) and
``--trace-file PATH`` (stream the trace to ``PATH`` as JSON lines);
``REPRO_TRACE=1`` in the environment enables the same telemetry for any
command.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_datasets(args) -> int:
    from repro.experiments.tables import table1

    print(table1().rendered)
    return 0


def _cmd_run(args, resume: bool = False) -> int:
    from dataclasses import replace

    from repro.experiments.config import PROFILES, spec_for, training_schedule
    from repro.experiments.runner import run_experiment

    profile = PROFILES[args.profile]
    spec = spec_for(args.dataset, args.size, args.model, args.seed, profile)
    if getattr(args, "epochs", 0):
        # Changes the spec digest, so resume must pass the same value.
        # Patience comes from the dataset schedule, not the (possibly
        # tighter) profile cap the override is replacing.
        schedule = training_schedule(args.dataset, args.size)
        spec = replace(spec, epochs=args.epochs,
                       patience=min(schedule["patience"], args.epochs))
    metrics = run_experiment(
        spec, use_cache=not args.no_cache,
        checkpoint=resume or getattr(args, "checkpoint", False),
        resume=resume, max_retries=getattr(args, "retries", 0),
        record_run=not getattr(args, "no_record", False),
        run_name=getattr(args, "name", ""),
        probe_every=getattr(args, "probe_every", 0),
    )
    print(f"{args.model} on {args.dataset}/{args.size} (seed {args.seed})")
    print(f"  EM F1        = {100 * metrics['em_f1']:.2f}")
    print(f"  precision    = {100 * metrics['em_precision']:.2f}")
    print(f"  recall       = {100 * metrics['em_recall']:.2f}")
    if "acc1" in metrics:
        print(f"  ID acc1/acc2 = {100 * metrics['acc1']:.2f} / {100 * metrics['acc2']:.2f}")
        print(f"  ID micro-F1  = {100 * metrics['id_micro_f1']:.2f}")
    print(f"  epochs run   = {metrics['epochs_run']}"
          f"  ({metrics['train_seconds']:.1f}s)")
    if metrics.get("nonfinite_skipped") or metrics.get("quarantined"):
        print(f"  fault tolerance: {metrics.get('nonfinite_skipped', 0)} "
              f"non-finite batches skipped, {metrics.get('quarantined', 0)} "
              f"pairs quarantined")
    return 0


def _cmd_resume(args) -> int:
    """Continue a crashed ``run`` from its newest valid checkpoint."""
    return _cmd_run(args, resume=True)


def _cmd_table(args) -> int:
    from repro.experiments import tables

    fn = getattr(tables, f"table{args.number}", None)
    if fn is None:
        print(f"no such table: {args.number}", file=sys.stderr)
        return 2
    result = fn(progress=True) if args.number != 1 else fn()
    print(result.rendered)
    if args.save:
        print(f"saved to {result.save(args.save)}")
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import figures

    fn = getattr(figures, f"figure{args.number}", None)
    if fn is None:
        print(f"no such figure: {args.number}", file=sys.stderr)
        return 2
    result = fn()
    print(result.rendered)
    if args.save:
        print(f"saved to {result.save(args.save)}")
    return 0


def _cmd_profile(args) -> int:
    from repro.data.analysis import profile_dataset
    from repro.data.registry import load_dataset

    dataset = load_dataset(args.dataset, size=args.size)
    profile = profile_dataset(dataset.train)
    print(f"profile of {args.dataset}/{args.size} (train split)")
    print(f"  pairs                     = {profile['num_pairs']}")
    print(f"  match token-jaccard mean  = {profile['match_jaccard_mean']:.3f}")
    print(f"  nonmatch token-jaccard    = {profile['nonmatch_jaccard_mean']:.3f}")
    print(f"  separation                = {profile['jaccard_separation']:.3f}")
    print(f"  source vocabulary overlap = {profile['source_vocabulary_overlap']:.3f}")
    print("  attribute fill rates:")
    for name, rate in sorted(profile["fill_rates"].items()):
        print(f"    {name:<20} {rate:.2f}")
    return 0


def _cmd_serve(args) -> int:
    """Run the matching daemon until interrupted (or a shutdown op)."""
    import contextlib
    import time

    from repro.serve import MatchServer, ServeConfig, ServerHandle, SloSpec
    from repro.serve.scorer import factory_from_spec

    slo = None
    if args.slo:
        try:
            slo = SloSpec.load(args.slo)
        except (OSError, ValueError, TypeError) as exc:
            print(f"bad SLO spec {args.slo}: {exc}", file=sys.stderr)
            return 2
    factory = factory_from_spec(
        args.dataset, args.size, args.model, seed=args.seed,
        batch_size=args.batch_size, threshold=args.threshold,
        weights_ref=args.weights, runs_root=args.runs_root or None)
    config = ServeConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0, max_queue=args.max_queue,
        shards=args.shards, runs_root=args.runs_root or None,
        window_s=args.window_s, slo=slo)
    server = MatchServer(factory, config)

    # --record registers the serve session as a kind="serve" run: live
    # slo_breach events stream into its series while it runs, and the
    # final metrics (the shape `repro slo check` audits: lifetime counts,
    # p50/p99 over the trailing --window-s) seal the manifest at
    # shutdown.  Shard workers fork *before* recording starts and are
    # covered by the runs fork hook either way.
    writer = None
    if args.record:
        from repro.runs import RunStore, recording

        writer = RunStore(args.runs_root or None).create(
            name=args.name or f"serve-{args.model}-{args.dataset}",
            kind="serve",
            config={"dataset": args.dataset, "size": args.size,
                    "model": args.model, "shards": args.shards,
                    "max_batch": args.max_batch,
                    "max_delay_ms": args.max_delay_ms,
                    "max_queue": args.max_queue, "window_s": args.window_s,
                    "slo": slo.to_dict() if slo else None},
            argv=list(sys.argv), dataset=args.dataset, model=args.model,
            seed=args.seed)
    scope = recording(writer) if writer is not None else contextlib.nullcontext()
    with scope:
        with ServerHandle(server) as (host, port):
            print(f"serving {args.model} ({args.dataset}/{args.size}) "
                  f"on {host}:{port} — shards={args.shards} "
                  f"max_batch={args.max_batch} "
                  f"max_delay={args.max_delay_ms}ms"
                  + (f" slo={args.slo}" if slo else ""),
                  flush=True)
            try:
                while server.running:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                pass
        if writer is not None:
            writer.finish(**server.final_metrics())
            print(f"recorded serve run {writer.id}", flush=True)
    return 0


def _cmd_stream(args) -> int:
    """Durable streaming resolution over a synthetic WDC offer stream."""
    import time

    from repro.data.generators.wdc import wdc_offer_stream
    from repro.runs import RunStore, recording
    from repro.stream import JaccardScorer, StreamConfig, StreamPipeline

    if args.scorer == "jaccard":
        scorer = JaccardScorer(threshold=args.threshold)
    else:
        from repro.serve.scorer import factory_from_spec

        dataset = args.dataset or f"wdc_{args.category}"
        scorer = factory_from_spec(
            dataset, args.size, args.scorer, seed=args.seed,
            batch_size=args.batch_size, threshold=args.threshold,
            weights_ref=args.weights, runs_root=None)().engine
    config = StreamConfig(
        threshold=args.threshold, score_batch=args.score_batch,
        sync_every=args.sync_every, snapshot_every=args.snapshot_every,
        num_hashes=args.num_hashes, bands=args.bands, seed=args.seed)

    writer = None
    if not args.no_record:
        writer = RunStore().create(
            name=args.name or f"stream-{args.category}-{args.offers}",
            kind="stream",
            config={"category": args.category, "offers": args.offers,
                    "scorer": args.scorer, "threshold": args.threshold,
                    "score_batch": args.score_batch,
                    "snapshot_every": args.snapshot_every,
                    "num_hashes": args.num_hashes, "bands": args.bands,
                    "seed": args.seed},
            argv=list(sys.argv), dataset=f"wdc_{args.category}",
            model=args.scorer, seed=args.seed)

    def drive() -> int:
        pipeline = StreamPipeline(args.dir, scorer, config)
        if pipeline.recovered:
            print(f"recovered from journal: {len(pipeline.records)} records, "
                  f"{pipeline.counters['scored']} scored pairs, "
                  f"snapshot seq {pipeline.wal.snapshot_seq}")
        start = time.perf_counter()
        pipeline.extend(wdc_offer_stream(
            args.category, args.offers, seed=args.seed,
            offers_per_product=args.offers_per_product))
        pipeline.flush()
        pipeline.snapshot()
        wall = time.perf_counter() - start
        stats = pipeline.stats()
        resolution = pipeline.resolution()
        rate = stats["upserts"] / wall if wall > 0 else 0.0
        print(f"streamed {args.offers} {args.category} offers in {wall:.2f}s "
              f"({rate:.0f} records/s)")
        print(f"  records      = {stats['records']}")
        print(f"  candidates   = {stats['candidates']} (exactly-once)")
        print(f"  scored       = {stats['scored']} "
              f"in {stats['score_calls']} batches")
        print(f"  clusters     = {stats['clusters']}"
              f"  largest = {len(resolution.clusters[0]) if resolution.clusters else 0}")
        print(f"  wal          = {stats['wal']['appended']} ops, "
              f"{stats['wal']['syncs']} syncs, "
              f"{stats['wal']['snapshots']} snapshots")
        if writer is not None:
            writer.finish(records=stats["records"],
                          candidates=stats["candidates"],
                          scored=stats["scored"],
                          clusters=stats["clusters"],
                          records_per_s=round(rate, 2),
                          wall_seconds=round(wall, 3))
        pipeline.close()
        return 0

    if writer is not None:
        with recording(writer):
            return drive()
    return drive()


def _cmd_explain(args) -> int:
    """Run the attention-faithfulness audit and (optionally) record it."""
    from pathlib import Path

    from repro.explain.audit import render_audit, run_explain_audit
    from repro.runs import RunStore, recording

    writer = None
    if not args.no_record:
        writer = RunStore(args.runs_root or None).create(
            name=args.name or f"explain-{args.model}-{args.dataset}-{args.size}",
            kind="explain",
            config={"dataset": args.dataset, "size": args.size,
                    "model": args.model, "seed": args.seed,
                    "pairs": args.pairs, "fractions": list(args.fraction),
                    "lime_samples": args.lime_samples},
            argv=list(sys.argv), dataset=args.dataset, model=args.model,
            seed=args.seed)

    def drive() -> int:
        report = run_explain_audit(
            dataset=args.dataset, size=args.size, model=args.model,
            seed=args.seed, epochs=args.epochs or None, max_pairs=args.pairs,
            fractions=tuple(args.fraction) or (0.1, 0.25, 0.5),
            random_draws=args.random_draws, lime_pairs=args.lime_pairs,
            lime_samples=args.lime_samples, topk=args.topk,
            drift_pairs=args.drift_pairs)
        rendered = render_audit(report)
        print(rendered)
        if args.save:
            out = Path(args.save)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(rendered + "\n", encoding="utf-8")
            print(f"saved to {out}")
        if writer is not None:
            writer.finish(**report["metrics"])
        if not report["faithfulness"].faithful:
            print("WARNING: AoA top-gamma masking hurt less than random "
                  "masking — the model's explanations are not faithful",
                  file=sys.stderr)
            return 1
        return 0

    if writer is not None:
        with recording(writer):
            return drive()
    return drive()


def _cmd_selfcheck(args) -> int:
    from repro.verify.selfcheck import run_selfcheck

    return run_selfcheck(quick=args.quick, seed=args.seed)


def _cmd_trace(args) -> int:
    """Render a JSON-lines trace file: span tree + metrics table.

    With ``--merge`` the file (or directory) is treated as one process's
    slice of a multi-process trace: its pid-suffixed siblings are merged
    into a single causally ordered cross-process tree, optionally
    filtered to one request's journey with ``--trace-id``.
    """
    if args.merge:
        from repro.obs import merge_traces, render_merged

        try:
            merged = merge_traces(args.file)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(render_merged(merged, trace_id=args.trace_id or None))
        return 0
    if args.trace_id:
        print("--trace-id requires --merge", file=sys.stderr)
        return 2
    from repro.obs import read_jsonl, render_metrics, tree_summary

    try:
        records, metrics = read_jsonl(args.file)
    except FileNotFoundError:
        print(f"no such trace file: {args.file}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    print(tree_summary(records))
    if not args.no_metrics:
        print()
        if metrics is not None:
            print(render_metrics(metrics))
        else:
            print("(no metrics captured in trace)")
    return 0


def _cmd_top(args) -> int:
    """Poll the daemon's ``metrics`` op and render a live telemetry view."""
    import time

    from repro.serve import ServeClient, render_top

    try:
        client = ServeClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    frames = 0
    try:
        while True:
            try:
                payload = client.metrics()
            except (ConnectionError, OSError) as exc:
                print(f"connection lost: {exc}", file=sys.stderr)
                return 1
            if frames and args.clear and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(render_top(payload), flush=True)
            frames += 1
            if args.count and frames >= args.count:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _cmd_slo_check(args) -> int:
    """Post-hoc SLO gate: non-zero exit when a recorded serve run breached."""
    from repro.serve import SloSpec, check_run

    try:
        spec = SloSpec.load(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        print(f"bad SLO spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    store = _runs_store(args)
    try:
        record = store.resolve(args.ref)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    violations = check_run(record.manifest, spec, record.events())
    run_id = record.manifest.get("id", args.ref)
    if violations:
        print(f"SLO BREACH: {run_id} vs {args.spec}")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    metrics = record.manifest.get("metrics", {})
    print(f"ok: {run_id} within SLO {args.spec} "
          f"(p99 {metrics.get('latency_p99_ms', float('nan')):.2f}ms, "
          f"reject-rate {metrics.get('rejection_rate', float('nan')):.4f})")
    return 0


def _runs_store(args):
    from repro.runs import RunStore

    return RunStore(args.root or None)


def _cmd_runs_list(args) -> int:
    from repro.runs import render_list

    print(render_list(_runs_store(args).list(kind=args.kind or None)))
    return 0


def _cmd_runs_show(args) -> int:
    from repro.runs import render_show

    store = _runs_store(args)
    try:
        record = store.resolve(args.ref)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(render_show(record, channels=tuple(args.channel)))
    return 0


def _cmd_runs_diff(args) -> int:
    from repro.runs import diff_runs

    store = _runs_store(args)
    try:
        a, b = store.resolve(args.a), store.resolve(args.b)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    channels = tuple(args.channel) or ("loss", "valid_f1")
    print(diff_runs(a, b, channels=channels))
    return 0


def _cmd_runs_check(args) -> int:
    """The regression watchdog: non-zero exit when the candidate regressed."""
    from repro.runs import Tolerance, check_regression, load_baseline

    store = _runs_store(args)
    try:
        baseline = load_baseline(args.baseline, store)
        candidate = store.resolve(args.ref).manifest
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    tol = Tolerance(f1_drop=args.f1_tol, health=not args.no_health,
                    faithfulness_drop=args.faithfulness_tol,
                    agreement_drop=args.agreement_tol)
    violations = check_regression(baseline, candidate, tol)
    base_name = baseline.get("id") or args.baseline
    if violations:
        print(f"REGRESSION: {candidate.get('id', '?')} vs {base_name}")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"ok: {candidate.get('id', '?')} within tolerance of {base_name} "
          f"(em_f1 {candidate.get('metrics', {}).get('em_f1', float('nan')):.4f})")
    return 0


def _cmd_runs_prune(args) -> int:
    removed = _runs_store(args).prune(args.keep)
    print(f"removed {len(removed)} run(s)"
          + (f": {', '.join(removed)}" if removed else ""))
    return 0


def _cmd_casestudy(args) -> int:
    from repro.experiments.casestudy import case_study_pair

    pair = case_study_pair()
    print("entity 1:", pair.record1.text())
    print("entity 2:", pair.record2.text())
    print("ground truth: non-match")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EMBA (EDBT 2024) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list benchmark datasets (Table 1)"
                   ).set_defaults(fn=_cmd_datasets)

    def add_trace_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", action="store_true",
                       help="enable telemetry; print span tree + metrics at exit")
        p.add_argument("--trace-file", default="",
                       help="stream the trace to this file as JSON lines "
                            "(implies --trace; read back with `repro trace`)")

    def add_root(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", default="",
                       help="run store root (default: REPRO_RUNS_DIR or "
                            "<cache>/runs)")

    def add_record_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--epochs", type=int, default=0,
                       help="override the profile's training epochs "
                            "(0 = profile default)")
        p.add_argument("--name", default="",
                       help="name for the recorded run (default: "
                            "model-dataset-size-sSEED)")
        p.add_argument("--probe-every", type=int, default=10,
                       help="sample model-introspection probes every N steps "
                            "(0 disables)")
        p.add_argument("--no-record", action="store_true",
                       help="do not register this run in the run store")

    run = sub.add_parser("run", help="train and evaluate one configuration")
    run.add_argument("--dataset", required=True)
    run.add_argument("--model", default="emba")
    run.add_argument("--size", default="default")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--profile", default="quick")
    run.add_argument("--no-cache", action="store_true")
    run.add_argument("--checkpoint", action="store_true",
                     help="persist full training state every epoch")
    run.add_argument("--retries", type=int, default=0,
                     help="resume attempts after transient training faults")
    add_record_flags(run)
    add_trace_flags(run)
    run.set_defaults(fn=_cmd_run)

    resume = sub.add_parser(
        "resume",
        help="continue a crashed run from its newest valid checkpoint",
    )
    resume.add_argument("--dataset", required=True)
    resume.add_argument("--model", default="emba")
    resume.add_argument("--size", default="default")
    resume.add_argument("--seed", type=int, default=0)
    resume.add_argument("--profile", default="quick")
    resume.add_argument("--no-cache", action="store_true")
    resume.add_argument("--retries", type=int, default=2,
                        help="resume attempts after transient training faults")
    add_record_flags(resume)
    add_trace_flags(resume)
    resume.set_defaults(fn=_cmd_resume)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=range(1, 8))
    table.add_argument("--save", default="")
    table.set_defaults(fn=_cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(5, 6))
    figure.add_argument("--save", default="")
    figure.set_defaults(fn=_cmd_figure)

    profile = sub.add_parser("profile", help="profile a dataset's pairs")
    profile.add_argument("--dataset", required=True)
    profile.add_argument("--size", default="default")
    profile.set_defaults(fn=_cmd_profile)

    serve = sub.add_parser(
        "serve",
        help="run the matching daemon: newline-delimited JSON over TCP, "
             "micro-batching, backpressure, hot-swappable weights",
    )
    serve.add_argument("--dataset", default="wdc_computers")
    serve.add_argument("--size", default="small")
    serve.add_argument("--model", default="emba_dual_sb",
                       help="served model (late-interaction models keep "
                            "the hottest record memo)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--weights", default="",
                       help="run id/name (or 'latest') of published weights "
                            "to load at startup; default: freshly built model")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7431,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--shards", type=int, default=0,
                       help="forked worker processes (0 = score in-process)")
    serve.add_argument("--batch-size", type=int, default=32,
                       help="engine forward batch size")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batcher: dispatch at this many pairs")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="micro-batcher: dispatch after this many ms")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admission queue bound per worker; beyond it "
                            "requests are rejected as 'overloaded'")
    serve.add_argument("--threshold", type=float, default=0.5,
                       help="match decision threshold")
    serve.add_argument("--runs-root", default="",
                       help="run store root for --weights and swap ops "
                            "(default: REPRO_RUNS_DIR or <cache>/runs)")
    serve.add_argument("--window-s", type=float, default=30.0,
                       help="live-telemetry window for the metrics op / "
                            "`repro top` (seconds)")
    serve.add_argument("--slo", default="",
                       help="SLO spec JSON (see docs/operations.md); "
                            "evaluated every second over the window, "
                            "breaches counted + recorded as run events")
    serve.add_argument("--record", action="store_true",
                       help="register this serve session as a kind='serve' "
                            "run (slo_breach events + final metrics), "
                            "auditable with `repro slo check`")
    serve.add_argument("--name", default="",
                       help="name for the recorded run "
                            "(default: serve-MODEL-DATASET)")
    add_trace_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    stream = sub.add_parser(
        "stream",
        help="durable streaming resolution: WAL-journaled ingest -> "
             "incremental LSH candidates -> scoring -> incremental "
             "clusters, with kill-at-any-point recovery",
    )
    stream.add_argument("--dir", required=True,
                        help="journal directory; existing state in it is "
                             "recovered before new offers are ingested")
    stream.add_argument("--category", default="computers",
                        help="WDC category to stream "
                             "(computers/cameras/watches/shoes)")
    stream.add_argument("--offers", type=int, default=1000,
                        help="number of synthetic offers to stream")
    stream.add_argument("--offers-per-product", type=int, default=8,
                        help="duplicate offers per catalogue product")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--scorer", default="jaccard",
                        help="'jaccard' (cheap token-overlap stage) or a "
                             "model name (engine-backed, e.g. emba_dual_ft)")
    stream.add_argument("--dataset", default="",
                        help="dataset for the engine-backed scorer bootstrap "
                             "(default: wdc_<category>)")
    stream.add_argument("--size", default="small")
    stream.add_argument("--weights", default="",
                        help="published weights ref for the engine scorer "
                             "(run id/name or 'latest')")
    stream.add_argument("--batch-size", type=int, default=32,
                        help="engine forward batch size")
    stream.add_argument("--threshold", type=float, default=0.5,
                        help="cluster-edge decision boundary")
    stream.add_argument("--score-batch", type=int, default=64,
                        help="pending pairs per scoring batch (bounds "
                             "in-flight work)")
    stream.add_argument("--sync-every", type=int, default=64,
                        help="WAL group-commit size (ops per fsync)")
    stream.add_argument("--num-hashes", type=int, default=48,
                        help="MinHash signature length")
    stream.add_argument("--bands", type=int, default=12,
                        help="LSH bands; rows = num_hashes // bands, "
                             "more rows per band = stricter candidate curve")
    stream.add_argument("--snapshot-every", type=int, default=2000,
                        help="journaled ops between snapshots (0 = only "
                             "the final snapshot)")
    stream.add_argument("--name", default="",
                        help="name for the recorded run")
    stream.add_argument("--no-record", action="store_true",
                        help="do not register this run in the run store")
    add_trace_flags(stream)
    stream.set_defaults(fn=_cmd_stream)

    trace = sub.add_parser(
        "trace",
        help="render a JSON-lines telemetry trace as a span tree + metrics",
    )
    trace.add_argument("file", help="trace file written via --trace-file "
                                    "or REPRO_TRACE=<path>")
    trace.add_argument("--no-metrics", action="store_true",
                       help="omit the metrics table")
    trace.add_argument("--merge", action="store_true",
                       help="merge this file's pid-suffixed siblings (or a "
                            "whole directory) into one cross-process tree")
    trace.add_argument("--trace-id", default="",
                       help="with --merge: render one request's full "
                            "journey + per-stage latency attribution")
    trace.set_defaults(fn=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="live service telemetry: poll a running daemon's windowed "
             "p50/p99/throughput/rejection-rate view",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7431)
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between polls")
    top.add_argument("--count", type=int, default=0,
                     help="stop after N frames (0 = until interrupted)")
    top.add_argument("--timeout", type=float, default=10.0,
                     help="socket timeout per poll")
    top.add_argument("--no-clear", dest="clear", action="store_false",
                     help="do not clear the screen between frames")
    top.set_defaults(fn=_cmd_top)

    slo = sub.add_parser(
        "slo",
        help="service-level objectives: audit recorded serve runs",
    )
    ssub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = ssub.add_parser(
        "check",
        help="exit non-zero when a recorded serve run breached the spec "
             "(final metrics + live slo_breach events)",
    )
    slo_check.add_argument("ref", nargs="?", default="latest",
                           help="serve run id, name, or 'latest'")
    slo_check.add_argument("--spec", required=True,
                           help="SLO spec JSON (p99_ms, rejection_rate, "
                                "max_queue_depth, worker_restarts, ...)")
    add_root(slo_check)
    slo_check.set_defaults(fn=_cmd_slo_check)

    runs = sub.add_parser(
        "runs",
        help="the persistent run registry: list/show/diff/check/prune",
    )
    rsub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = rsub.add_parser("list", help="table of recorded runs")
    runs_list.add_argument("--kind", default="",
                           help="only runs of this kind (train, bench, ...)")
    add_root(runs_list)
    runs_list.set_defaults(fn=_cmd_runs_list)

    runs_show = rsub.add_parser(
        "show", help="one run: manifest, metrics, training curves")
    runs_show.add_argument("ref", nargs="?", default="latest",
                           help="run id, run name, or 'latest'")
    runs_show.add_argument("--channel", action="append", default=[],
                           help="series channel to plot (repeatable; "
                                "default: loss, valid_f1)")
    add_root(runs_show)
    runs_show.set_defaults(fn=_cmd_runs_show)

    runs_diff = rsub.add_parser(
        "diff", help="compare two runs: config, metrics, overlaid curves")
    runs_diff.add_argument("a", help="baseline run id/name")
    runs_diff.add_argument("b", nargs="?", default="latest",
                           help="candidate run id/name (default: latest)")
    runs_diff.add_argument("--channel", action="append", default=[],
                           help="series channel to overlay (repeatable)")
    add_root(runs_diff)
    runs_diff.set_defaults(fn=_cmd_runs_diff)

    runs_check = rsub.add_parser(
        "check",
        help="regression watchdog: exit non-zero when the candidate "
             "regressed vs. the baseline",
    )
    runs_check.add_argument("ref", nargs="?", default="latest",
                            help="candidate run id/name (default: latest)")
    runs_check.add_argument("--baseline", required=True,
                            help="baseline run id/name, or a committed "
                                 "manifest.json path")
    runs_check.add_argument("--f1-tol", type=float, default=0.01,
                            help="max allowed absolute em_f1 drop "
                                 "(non-positive disables)")
    runs_check.add_argument("--faithfulness-tol", type=float, default=0.0,
                            help="max allowed absolute drop in the explain "
                                 "suite's faithfulness_gap metric "
                                 "(0 disables; only applies when the "
                                 "baseline recorded it)")
    runs_check.add_argument("--agreement-tol", type=float, default=0.0,
                            help="max allowed absolute drop in the explain "
                                 "suite's aoa_lime_spearman metric "
                                 "(0 disables; only applies when the "
                                 "baseline recorded it)")
    runs_check.add_argument("--no-health", action="store_true",
                            help="do not compare fault/health counters")
    add_root(runs_check)
    runs_check.set_defaults(fn=_cmd_runs_check)

    runs_prune = rsub.add_parser("prune", help="delete all but the newest N runs")
    runs_prune.add_argument("--keep", type=int, required=True,
                            help="number of newest runs to keep")
    add_root(runs_prune)
    runs_prune.set_defaults(fn=_cmd_runs_prune)

    sub.add_parser("casestudy", help="print the Sec. 4.7 case-study pair"
                   ).set_defaults(fn=_cmd_casestudy)

    explain = sub.add_parser(
        "explain",
        help="attention-faithfulness audit: AoA token-masking vs. random, "
             "per-head attention drift pre/post fine-tuning, LIME/AoA "
             "agreement (non-zero exit when AoA is not faithful)",
    )
    explain.add_argument("--dataset", default="abt_buy")
    explain.add_argument("--size", default="default")
    explain.add_argument("--model", default="emba_sb",
                         help="an AoA model (emba*, emba_cls*): the audit "
                              "reads its gamma distribution")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--epochs", type=int, default=0,
                         help="override the dataset's fine-tuning epochs "
                              "(0 = dataset schedule)")
    explain.add_argument("--pairs", type=int, default=80,
                         help="test pairs in the masking curve")
    explain.add_argument("--fraction", action="append", type=float, default=[],
                         help="masking fraction (repeatable; "
                              "default: 0.1 0.25 0.5)")
    explain.add_argument("--random-draws", type=int, default=3,
                         help="random-masking draws averaged per fraction")
    explain.add_argument("--lime-pairs", type=int, default=12,
                         help="pairs in the LIME/AoA agreement sample")
    explain.add_argument("--lime-samples", type=int, default=80,
                         help="LIME perturbation samples per pair")
    explain.add_argument("--topk", type=int, default=5,
                         help="k for the top-k overlap agreement metric")
    explain.add_argument("--drift-pairs", type=int, default=24,
                         help="pairs in the per-head drift comparison")
    explain.add_argument("--save", default="",
                         help="also write the rendered audit to this file")
    explain.add_argument("--name", default="",
                         help="name for the recorded run")
    explain.add_argument("--no-record", action="store_true",
                         help="do not register this audit in the run store")
    explain.add_argument("--runs-root", default="",
                         help="run store root (default: REPRO_RUNS_DIR or "
                              "<cache>/runs)")
    add_trace_flags(explain)
    explain.set_defaults(fn=_cmd_explain)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="numerical certification: gradcheck sweep + runtime invariants "
             "+ golden digests + engine parity (non-zero exit on violation)",
    )
    selfcheck.add_argument("--quick", action="store_true",
                           help="skip the heavy full-model gradcheck cases")
    selfcheck.add_argument("--seed", type=int, default=0)
    selfcheck.set_defaults(fn=_cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import obs

    if getattr(args, "trace", False) or getattr(args, "trace_file", ""):
        obs.enable(trace_path=getattr(args, "trace_file", "") or None)
    code = args.fn(args)
    # Summarize live telemetry (from --trace or REPRO_TRACE) after the
    # command; `trace` itself reads a file and needs no live summary.
    if obs.enabled() and args.command != "trace":
        print()
        print(obs.render_summary())
        obs.disable()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
