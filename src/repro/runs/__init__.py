"""repro.runs — the persistent run registry on top of :mod:`repro.obs`.

Where ``obs`` answers "what did this process just do", ``runs`` answers
questions *across* invocations: every training/inference run records a
directory with an atomic manifest (model, dataset, seed, config hash,
argv, final metrics), a per-step metric time series (loss, LR,
validation F1, throughput, sampled ``probe.*`` introspection channels),
and attached artifacts.  ``repro runs list|show|diff|check`` reads the
registry back; ``check`` is the regression watchdog CI gates on.

Layering: the trainer and engine log into the *active* run through the
module-level :func:`record_step` / :func:`record_event` fast path (one
``is None`` check when no run is recording); the experiments runner
owns run lifecycle via :class:`RunStore` and :func:`recording`.
"""

from __future__ import annotations

from repro.runs.compare import (
    HEALTH_COUNTERS,
    Tolerance,
    check_regression,
    diff_runs,
    load_baseline,
    manifest_diff,
    metric_deltas,
)
from repro.runs.probes import (
    ProbeConfig,
    Prober,
    attention_entropy,
    entropy,
    gamma_concentration,
)
from repro.runs.report import render_curve, render_list, render_show
from repro.runs.store import (
    RunRecord,
    RunStore,
    RunWriter,
    activate,
    active,
    default_root,
    record_event,
    record_step,
    recording,
    truncate_active,
)

__all__ = [
    "HEALTH_COUNTERS", "ProbeConfig", "Prober", "RunRecord", "RunStore",
    "RunWriter", "Tolerance", "activate", "active", "attention_entropy",
    "check_regression", "default_root", "diff_runs", "entropy",
    "gamma_concentration", "load_baseline", "manifest_diff", "metric_deltas",
    "record_event", "record_step", "recording", "render_curve", "render_list",
    "render_show", "truncate_active",
]
