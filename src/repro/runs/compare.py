"""Run diffing and the regression watchdog.

:func:`diff_runs` renders what changed between two runs — config and
manifest fields, final-metric deltas, and overlaid training curves for
the channels both runs recorded.  :func:`check_regression` is the
watchdog behind ``repro runs check``: it compares a candidate run's
final metrics against a *baseline* (another run, or a committed
manifest JSON) under explicit tolerances and returns the list of
violations, so CI can gate quality (EM F1), explanations, and run
health (fault counters) the same way the verify stage gates
correctness.  Timing is not gated here: ``perfbench/`` measures it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.runs.report import render_curve
from repro.runs.store import RunRecord, RunStore

#: Counters whose *increase* over the baseline marks an unhealthy run.
HEALTH_COUNTERS = ("nonfinite_skipped", "quarantined", "checkpoint_failures")

#: Channels overlaid by default in ``diff`` output.
_DIFF_CHANNELS = ("loss", "valid_f1")


@dataclass
class Tolerance:
    """Watchdog tolerances (all opt-out: a non-positive value disables).

    ``f1_drop`` is an absolute drop in ``em_f1``; ``health`` trips when
    any :data:`HEALTH_COUNTERS` exceeds the baseline's count.

    ``faithfulness_drop`` and ``agreement_drop`` gate the explain
    suite's interpretability metrics the same way ``f1_drop`` gates
    quality: an absolute drop in ``faithfulness_gap`` (how much more
    AoA top-gamma masking hurts than random masking) respectively
    ``aoa_lime_spearman`` (LIME/AoA rank agreement) beyond the
    tolerance trips the watchdog, so a change that silently degrades
    the model's explanations fails CI like an F1 regression.  Both are
    disabled by default and only apply when the baseline recorded the
    metric.
    """

    f1_drop: float = 0.01
    health: bool = True
    faithfulness_drop: float = 0.0
    agreement_drop: float = 0.0


def load_baseline(ref: str, store: RunStore | None = None) -> dict:
    """Resolve a baseline manifest from a path or a store run reference.

    A ``ref`` naming an existing file (a committed ``manifest.json``) is
    loaded directly; anything else is resolved in the store by run id,
    run name, or ``latest``.
    """
    path = Path(ref)
    if path.is_file():
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if "metrics" not in manifest:
            raise ValueError(f"{ref}: not a run manifest (no 'metrics' key)")
        return manifest
    return (store or RunStore()).resolve(ref).manifest


def check_regression(baseline: dict, candidate: dict,
                     tol: Tolerance | None = None) -> list[str]:
    """Compare manifests; return human-readable violations (empty = pass)."""
    tol = tol or Tolerance()
    base, cand = baseline.get("metrics", {}), candidate.get("metrics", {})
    violations: list[str] = []

    if candidate.get("status") not in ("completed", None):
        violations.append(f"candidate run status is "
                          f"{candidate.get('status')!r}, not 'completed'")

    if tol.f1_drop > 0:
        if "em_f1" not in cand:
            violations.append("candidate has no em_f1 metric")
        elif "em_f1" in base:
            drop = base["em_f1"] - cand["em_f1"]
            if drop > tol.f1_drop:
                violations.append(
                    f"em_f1 regressed: {base['em_f1']:.4f} -> "
                    f"{cand['em_f1']:.4f} (drop {drop:.4f} > "
                    f"tolerance {tol.f1_drop:.4f})")

    def gate_metric_drop(metric: str, tolerance: float, label: str) -> None:
        """Flag an absolute drop of ``metric`` beyond ``tolerance``.

        Applies only when the baseline recorded the metric: non-explain
        baselines keep gating exactly as before.
        """
        if tolerance <= 0 or metric not in base:
            return
        if metric not in cand:
            violations.append(f"candidate has no {metric} metric")
            return
        drop = base[metric] - cand[metric]
        if drop > tolerance:
            violations.append(
                f"{label} regressed: {metric} {base[metric]:.4f} -> "
                f"{cand[metric]:.4f} (drop {drop:.4f} > "
                f"tolerance {tolerance:.4f})")

    gate_metric_drop("faithfulness_gap", tol.faithfulness_drop,
                     "explanation faithfulness")
    gate_metric_drop("aoa_lime_spearman", tol.agreement_drop,
                     "LIME/AoA agreement")

    if tol.health:
        for counter in HEALTH_COUNTERS:
            allowed = base.get(counter, 0) or 0
            seen = cand.get(counter, 0) or 0
            if seen > allowed:
                violations.append(
                    f"health counter {counter} rose: "
                    f"{allowed} -> {seen}")
    return violations


def manifest_diff(a: dict, b: dict) -> list[str]:
    """Config/identity fields that differ between two manifests."""
    lines = []
    for key in ("model", "dataset", "size", "seed", "kind", "config_hash"):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            lines.append(f"  {key}: {va} -> {vb}")
    ca, cb = a.get("config", {}), b.get("config", {})
    for key in sorted(set(ca) | set(cb)):
        va, vb = ca.get(key), cb.get(key)
        if va != vb:
            lines.append(f"  config.{key}: {va} -> {vb}")
    return lines


def metric_deltas(a: dict, b: dict) -> list[str]:
    """Final-metric deltas (numeric metrics present in either run)."""
    ma, mb = a.get("metrics", {}), b.get("metrics", {})
    lines = []
    for key in sorted(set(ma) | set(mb)):
        if str(key).startswith("spec_"):
            continue
        va, vb = ma.get(key), mb.get(key)
        if not all(isinstance(v, (int, float)) or v is None for v in (va, vb)):
            continue
        if va is None or vb is None:
            lines.append(f"  {key:<24} {va} -> {vb}")
        elif va != vb:
            lines.append(f"  {key:<24} {va:.6g} -> {vb:.6g} "
                         f"({vb - va:+.6g})")
    return lines


def _overlay_curves(a: RunRecord, b: RunRecord, channel: str,
                    width: int = 64) -> str | None:
    """Render both runs' series for one channel, stacked for comparison."""
    sa, va = a.channel(channel)
    sb, vb = b.channel(channel)
    if not sa or not sb:
        return None
    return (render_curve(sa, va, title=f"{channel} [{a.id}]", width=width)
            + "\n"
            + render_curve(sb, vb, title=f"{channel} [{b.id}]", width=width))


def diff_runs(a: RunRecord, b: RunRecord,
              channels: tuple[str, ...] = _DIFF_CHANNELS) -> str:
    """Full textual diff of two runs: manifest, metrics, curves."""
    lines = [f"diff {a.id} -> {b.id}"]
    manifest = manifest_diff(a.manifest, b.manifest)
    lines.append("manifest:" if manifest else "manifest: (identical config)")
    lines.extend(manifest)
    deltas = metric_deltas(a.manifest, b.manifest)
    lines.append("metrics:" if deltas else "metrics: (identical)")
    lines.extend(deltas)
    for channel in channels:
        rendered = _overlay_curves(a, b, channel)
        if rendered:
            lines.append("")
            lines.append(rendered)
    return "\n".join(lines)
