"""Token-masking faithfulness of AoA importances, and LIME/AoA agreement.

The paper's central interpretability claim (Sec. 4.7, Figures 5-6) is
that EMBA's AoA ``gamma`` distribution highlights the *decisive* tokens
of RECORD1.  This module quantifies that claim instead of eyeballing
heatmaps:

- :func:`faithfulness_curve` masks the top-``gamma`` words of RECORD1
  and rescores the pair through the shared
  :class:`~repro.engine.core.InferenceEngine`, against an equal-count
  random-word baseline.  AoA is *faithful* iff deleting the words it
  ranks highest hurts the model far more than deleting random words —
  a larger probability shift and a larger F1 drop at every masking
  fraction.
- :func:`lime_aoa_agreement` checks that two independent explanation
  routes agree: the rank correlation (Spearman) and top-k overlap
  between LIME's perturbation-derived word weights and AoA's gamma on
  the same pairs.

Both reports feed ``benchmarks/bench_explain.py`` and the ``repro
explain`` audit, and their headline numbers (``faithfulness_gap``,
``aoa_lime_spearman``) are gated by the ``repro runs check`` watchdog
like any F1 metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loader import PairEncoder
from repro.data.schema import EntityPair, EntityRecord
from repro.eval.metrics import binary_f1
from repro.explain.attention_viz import aoa_scores_batch
from repro.explain.lime import LimeExplainer
from repro.models.base import EMModel
from repro.text.normalize import basic_tokenize


# ----------------------------------------------------------------------
# Rank statistics
# ----------------------------------------------------------------------
def rankdata(values: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties assigned their average rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation; ``nan`` when either side is constant."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("spearman needs equal-length sequences")
    if len(a) < 2:
        return float("nan")
    ra, rb = rankdata(a), rankdata(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0 or sb == 0:
        return float("nan")
    return float(((ra - ra.mean()) * (rb - rb.mean())).mean() / (sa * sb))


def topk_overlap(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Fraction of ``a``'s top-k indices that are also in ``b``'s top-k."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("topk_overlap needs equal-length sequences")
    k = min(k, len(a))
    if k == 0:
        return float("nan")
    top_a = set(np.argsort(-a, kind="stable")[:k].tolist())
    top_b = set(np.argsort(-b, kind="stable")[:k].tolist())
    return len(top_a & top_b) / k


# ----------------------------------------------------------------------
# Token-masking faithfulness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaskingPoint:
    """One masking fraction of the faithfulness curve."""

    fraction: float          # requested fraction of RECORD1 words masked
    masked_words: float      # mean words actually masked per pair
    aoa_prob_delta: float    # mean |P(match) shift|, top-gamma words masked
    random_prob_delta: float # same, equal-count random words masked
    aoa_f1: float            # F1 after masking top-gamma words
    random_f1: float         # F1 after masking random words


@dataclass
class FaithfulnessReport:
    """The full masking curve plus its headline gap metrics."""

    base_f1: float                      # F1 with nothing masked
    pairs: int
    random_draws: int
    points: list[MaskingPoint] = field(default_factory=list)

    @property
    def aoa_f1_mean(self) -> float:
        return float(np.mean([p.aoa_f1 for p in self.points]))

    @property
    def random_f1_mean(self) -> float:
        return float(np.mean([p.random_f1 for p in self.points]))

    @property
    def f1_gap(self) -> float:
        """Mean (random_f1 - aoa_f1): positive iff AoA masking hurts more."""
        return self.random_f1_mean - self.aoa_f1_mean

    @property
    def prob_gap(self) -> float:
        """Mean (aoa_delta - random_delta): positive iff AoA moves probs more."""
        return float(np.mean([p.aoa_prob_delta - p.random_prob_delta
                              for p in self.points]))

    @property
    def faithful(self) -> bool:
        """AoA top-gamma masking degrades F1 at least as much as random."""
        return self.f1_gap >= 0.0


def _with_record1_words(pair: EntityPair, words: list[str]) -> EntityPair:
    """The pair with RECORD1 rebuilt from ``words`` (label preserved)."""
    record1 = EntityRecord.from_dict({"text": " ".join(words)},
                                     source=pair.record1.source)
    return EntityPair(record1, pair.record2, pair.label)


def _mask_counts(num_words: int, fractions: tuple[float, ...]) -> list[int]:
    """Words to mask at each fraction: at least one, never the whole record."""
    counts = []
    for fraction in fractions:
        k = max(1, int(round(fraction * num_words)))
        counts.append(min(k, max(num_words - 1, 0)))
    return counts


def faithfulness_curve(model: EMModel, encoder: PairEncoder,
                       pairs: list[EntityPair],
                       fractions: tuple[float, ...] = (0.1, 0.25, 0.5),
                       random_draws: int = 3, seed: int = 0,
                       threshold: float = 0.5,
                       engine=None, batch_size: int = 32) -> FaithfulnessReport:
    """Mask top-gamma vs. random RECORD1 words, rescore, compare damage.

    Every variant of every pair — the unmasked base, one AoA-masked
    variant per fraction, and ``random_draws`` random-masked variants
    per fraction — is scored in a single flat engine call (the batched
    masked-rescoring path) and split back per pair, so the curve costs
    one bucketed sweep rather than ``pairs x variants`` forwards.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    from repro.engine import EngineConfig, InferenceEngine

    if engine is None:
        engine = InferenceEngine(model, encoder,
                                 EngineConfig(batch_size=batch_size))
    summaries = []
    for start in range(0, len(pairs), batch_size):
        summaries.extend(aoa_scores_batch(model, encoder,
                                          pairs[start:start + batch_size]))
    labels = np.array([pair.label for pair in pairs], dtype=np.int64)

    # Variant layout per pair: [base, (aoa per fraction), (draws per fraction)].
    groups: list[list[EntityPair]] = []
    kept_counts: list[list[int]] = []
    for i, (pair, summary) in enumerate(zip(pairs, summaries)):
        words = list(summary.words)
        scores = np.asarray(summary.scores, dtype=np.float64)
        counts = _mask_counts(len(words), fractions)
        kept_counts.append(counts)
        group = [_with_record1_words(pair, words)]
        top_order = np.argsort(-scores, kind="stable")
        for k in counts:
            drop = set(top_order[:k].tolist())
            group.append(_with_record1_words(
                pair, [w for j, w in enumerate(words) if j not in drop]))
        rng = np.random.default_rng([seed, i])
        for k in counts:
            for _ in range(random_draws):
                drop = set(rng.choice(len(words), size=k, replace=False).tolist()
                           ) if words else set()
                group.append(_with_record1_words(
                    pair, [w for j, w in enumerate(words) if j not in drop]))
        groups.append(group)

    flat = [variant for group in groups for variant in group]
    bounds = np.cumsum([len(group) for group in groups])[:-1]
    scored = np.split(engine.predict_proba(flat), bounds)

    num_fractions = len(fractions)
    base = np.array([g[0] for g in scored])
    report = FaithfulnessReport(
        base_f1=binary_f1(labels, (base >= threshold).astype(np.int64)),
        pairs=len(pairs), random_draws=random_draws)
    for fi, fraction in enumerate(fractions):
        aoa = np.array([g[1 + fi] for g in scored])
        # Random draws for this fraction, (pairs, draws).
        rand = np.stack([
            g[1 + num_fractions + fi * random_draws:
              1 + num_fractions + (fi + 1) * random_draws]
            for g in scored])
        rand_f1 = float(np.mean([
            binary_f1(labels, (rand[:, d] >= threshold).astype(np.int64))
            for d in range(random_draws)]))
        report.points.append(MaskingPoint(
            fraction=fraction,
            masked_words=float(np.mean([c[fi] for c in kept_counts])),
            aoa_prob_delta=float(np.mean(np.abs(aoa - base))),
            random_prob_delta=float(np.mean(np.abs(rand - base[:, None]))),
            aoa_f1=binary_f1(labels, (aoa >= threshold).astype(np.int64)),
            random_f1=rand_f1,
        ))
    return report


def render_faithfulness(report: FaithfulnessReport) -> str:
    """Plain-text masking-curve table."""
    from repro.eval.reporting import format_table

    rows = []
    for p in report.points:
        rows.append([f"{p.fraction:.2f}", f"{p.masked_words:.1f}",
                     f"{p.aoa_prob_delta:.4f}", f"{p.random_prob_delta:.4f}",
                     f"{p.aoa_f1:.4f}", f"{p.random_f1:.4f}"])
    title = (f"Token-masking faithfulness — base F1 {report.base_f1:.4f} on "
             f"{report.pairs} pairs; f1_gap {report.f1_gap:+.4f} "
             f"prob_gap {report.prob_gap:+.4f} "
             f"({'faithful' if report.faithful else 'NOT faithful'}: "
             f"AoA top-gamma masking should hurt at least as much as random)")
    return format_table(
        ["fraction", "masked", "aoa_dprob", "rand_dprob", "aoa_f1", "rand_f1"],
        rows, title=title)


# ----------------------------------------------------------------------
# LIME / AoA rank agreement
# ----------------------------------------------------------------------
@dataclass
class AgreementReport:
    """Rank agreement between LIME weights and AoA gamma on RECORD1."""

    pairs: int
    k: int
    spearman_mean: float
    topk_overlap_mean: float
    per_pair: list[tuple[float, float]] = field(default_factory=list)


def lime_aoa_agreement(model: EMModel, encoder: PairEncoder,
                       pairs: list[EntityPair], num_samples: int = 80,
                       k: int = 5, seed: int = 0,
                       batch_size: int = 32) -> AgreementReport:
    """Spearman + top-k overlap of |LIME weight| vs. AoA gamma per word.

    LIME tokenizes with :func:`~repro.text.normalize.basic_tokenize`
    while AoA aggregates the encoder's wordpieces; the two word lists
    line up positionally (wordpiece aggregation undoes the ``##``
    splits) except for truncation, so each pair is compared over the
    common prefix.  Pairs with fewer than three comparable words are
    skipped — rank statistics on 1-2 words are noise.
    """
    explainer = LimeExplainer(model, encoder, num_samples=num_samples,
                              seed=seed, batch_size=batch_size)
    summaries = aoa_scores_batch(model, encoder, pairs)
    per_pair: list[tuple[float, float]] = []
    for pair, summary in zip(pairs, summaries):
        words1 = basic_tokenize(pair.record1.text())
        lime_weights = np.zeros(len(words1))
        for imp in explainer.explain(pair):
            if imp.record == 1 and 0 <= imp.index < len(lime_weights):
                lime_weights[imp.index] = abs(imp.weight)
        n = min(len(lime_weights), len(summary.scores))
        if n < 3:
            continue
        rho = spearman(lime_weights[:n], summary.scores[:n])
        overlap = topk_overlap(lime_weights[:n], summary.scores[:n], k)
        if np.isfinite(rho):
            per_pair.append((rho, overlap))
    if not per_pair:
        return AgreementReport(pairs=0, k=k, spearman_mean=float("nan"),
                               topk_overlap_mean=float("nan"))
    rhos, overlaps = zip(*per_pair)
    return AgreementReport(
        pairs=len(per_pair), k=k,
        spearman_mean=float(np.mean(rhos)),
        topk_overlap_mean=float(np.mean(overlaps)),
        per_pair=per_pair,
    )
