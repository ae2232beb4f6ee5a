"""Sampled model-introspection probes for the training loop.

A :class:`Prober` computes cheap statistics about the optimization
trajectory — per-layer gradient norms, update-to-weight ratios, head
saturation, attention entropy per head (plus each head's entropy drift
from its first sampled value), and EMBA's AoA ``gamma`` concentration
over RECORD1 tokens — on a sampled subset of training
steps, and returns them as flat ``probe.*`` channels for the run
store's time series.

Probes are **observation-only** by contract: they read the forward
output, gradients, and weights the training step already produced, draw
no random numbers, and mutate nothing, so a run trained with probes on
is byte-identical to one trained with probes off (pinned by the golden
tests).  When disabled (``ProbeConfig.interval == 0`` — the default —
or no active run) the trainer pays one predicate per batch, mirroring
the :mod:`repro.obs` fast-path discipline; the <3% overhead bound is
enforced by ``benchmarks/bench_ext_runs.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Logits past this magnitude sit in the flat tails of the sigmoid
# (|grad| < 2e-2 of peak): the head has saturated on those examples.
_SAT_LOGIT = 4.0
# k of the probe.gamma_top{k}_mass channel.
_GAMMA_TOPK = 3


@dataclass
class ProbeConfig:
    """How often to probe.

    ``interval`` is the sampling period in training steps; 0 disables
    probing entirely (the zero-cost default).  A sampled step records
    every channel the model's output supports.
    """

    interval: int = 0

    @property
    def enabled(self) -> bool:
        return self.interval > 0


def entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy (nats) of distributions along ``axis``."""
    p = np.asarray(probs, dtype=np.float64)
    return -np.sum(np.where(p > 0, p * np.log(np.maximum(p, 1e-300)), 0.0),
                   axis=axis)


def attention_entropy(attn: np.ndarray, query_mask: np.ndarray) -> np.ndarray:
    """Mean per-head attention entropy over real query positions.

    ``attn`` is one layer's ``(B, H, S, S)`` attention probabilities;
    ``query_mask`` the ``(B, S)`` 0/1 mask of real (unpadded) tokens.
    Rows of padded queries are excluded; padded *keys* carry ~0 mass in
    a masked softmax and contribute ~0 to the entropy.
    """
    attn = np.asarray(attn, dtype=np.float64)
    rows = entropy(attn, axis=-1)                       # (B, H, S)
    mask = np.asarray(query_mask, dtype=np.float64)     # (B, S)
    real_queries = max(float(mask.sum()), 1.0)
    return (rows * mask[:, None, :]).sum(axis=(0, 2)) / real_queries


def gamma_concentration(gamma: np.ndarray, mask1: np.ndarray,
                        topk: int = 3) -> tuple[float, float]:
    """(entropy, top-k mass) of AoA gamma restricted to RECORD1 tokens.

    Each row of ``gamma`` is renormalized over its RECORD1 positions, so
    the statistics measure how the AoA head *concentrates* within the
    record regardless of any mass the unmasked variant leaks elsewhere.
    Rows with no RECORD1 tokens are skipped; returns (nan, nan) when
    every row is empty.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    mask = np.asarray(mask1, dtype=bool)
    entropies, masses = [], []
    for row, keep in zip(gamma, mask):
        p = row[keep]
        total = p.sum()
        if p.size == 0 or total <= 0:
            continue
        p = p / total
        entropies.append(float(entropy(p)))
        k = min(topk, p.size)
        masses.append(float(np.sort(p)[-k:].sum()))
    if not entropies:
        return float("nan"), float("nan")
    return float(np.mean(entropies)), float(np.mean(masses))


class Prober:
    """Computes sampled ``probe.*`` channels for one model.

    Parameters are grouped per top-level submodule (``em_head``,
    ``id1_head``, ...); the encoder — typically the bulk of the model —
    is split one level deeper so per-layer gradient flow is visible.
    """

    def __init__(self, model, config: ProbeConfig):
        self.model = model
        self.config = config
        self._groups: dict[str, list] = {}
        # First sampled per-head attention entropy: the reference the
        # probe.attn_drift.* channels measure drift against, so the
        # watchdog sees how far fine-tuning moved each head from its
        # (pre)trained starting point.
        self._entropy_ref: np.ndarray | None = None
        for name, param in model.named_parameters():
            self._groups.setdefault(self._group_of(name), []).append(param)

    @staticmethod
    def _group_of(name: str) -> str:
        parts = name.split(".")
        if parts[0] == "encoder" and len(parts) > 2:
            return ".".join(parts[:2])
        return parts[0]

    def should_sample(self, step: int) -> bool:
        return self.config.interval > 0 and step % self.config.interval == 0

    # -- forward-side statistics ---------------------------------------
    def forward_stats(self, output, batch) -> dict[str, float]:
        """Channels computable from one batch's forward output."""
        stats: dict[str, float] = {}
        logits = np.asarray(output.em_logits.data, dtype=np.float64)
        stats["probe.sat.em"] = float(np.mean(np.abs(logits) > _SAT_LOGIT))
        stats["probe.logit_abs.em"] = float(np.mean(np.abs(logits)))
        if output.attentions:
            per_head = attention_entropy(output.attentions[-1],
                                         batch.attention_mask)
            stats["probe.attn_entropy"] = float(per_head.mean())
            for head, value in enumerate(per_head):
                stats[f"probe.attn_entropy.h{head}"] = float(value)
            if self._entropy_ref is None:
                self._entropy_ref = per_head.copy()
            drift = np.abs(per_head - self._entropy_ref)
            stats["probe.attn_drift"] = float(drift.mean())
            for head, value in enumerate(drift):
                stats[f"probe.attn_drift.h{head}"] = float(value)
        if output.aoa_gamma is not None:
            ent, mass = gamma_concentration(output.aoa_gamma, batch.mask1,
                                            topk=_GAMMA_TOPK)
            if math.isfinite(ent):
                stats["probe.gamma_entropy"] = ent
                stats[f"probe.gamma_top{_GAMMA_TOPK}_mass"] = mass
        return stats

    # -- gradient-side statistics --------------------------------------
    def grad_stats(self) -> dict[str, float]:
        """Per-group and global gradient L2 norms (call after backward)."""
        stats: dict[str, float] = {}
        total = 0.0
        for group, params in self._groups.items():
            sq = sum(float(np.sum(np.square(p.grad)))
                     for p in params if p.grad is not None)
            stats[f"probe.grad_norm.{group}"] = math.sqrt(sq)
            total += sq
        stats["probe.grad_norm"] = math.sqrt(total)
        return stats

    # -- update-side statistics ----------------------------------------
    def snapshot_weights(self) -> dict[str, list[np.ndarray]]:
        """Copy current weights (call just before ``optimizer.step``)."""
        return {group: [p.data.copy() for p in params]
                for group, params in self._groups.items()}

    def update_stats(self, snapshot: dict[str, list[np.ndarray]]
                     ) -> dict[str, float]:
        """Per-group ``||Δw|| / ||w||`` (call just after ``optimizer.step``)."""
        stats: dict[str, float] = {}
        for group, before in snapshot.items():
            delta_sq = weight_sq = 0.0
            for prev, param in zip(before, self._groups[group]):
                delta_sq += float(np.sum(np.square(param.data - prev)))
                weight_sq += float(np.sum(np.square(prev)))
            stats[f"probe.update_ratio.{group}"] = (
                math.sqrt(delta_sq) / max(math.sqrt(weight_sq), 1e-12))
        return stats
