"""Decision-threshold calibration.

The paper (like DITTO) classifies at probability 0.5; practitioners
usually tune the threshold on validation data to maximize F1, which
matters under the heavy class imbalance typical of EM.  This module
provides that calibration as a library utility.
"""

from __future__ import annotations

import numpy as np

from repro.eval.metrics import precision_recall_f1


def best_f1_threshold(labels: np.ndarray, probabilities: np.ndarray
                      ) -> tuple[float, float]:
    """Threshold on ``probabilities`` maximizing F1 against ``labels``.

    Scans the midpoints between consecutive distinct probabilities (plus
    the 0.5 default), so the search is exact for the given sample.
    Returns ``(threshold, f1_at_threshold)``.

    Degenerate inputs never crash and fall back to the paper's default
    threshold of **0.5**: an empty validation set returns ``(0.5, 0.0)``,
    and when no threshold achieves positive F1 (e.g. an all-negative
    label set) the default 0.5 is kept.  All-identical scores are
    handled by probing just above and below the single distinct value.
    """
    labels = np.asarray(labels).astype(int)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if labels.shape != probabilities.shape:
        raise ValueError(
            f"shape mismatch: {labels.shape} vs {probabilities.shape}"
        )
    if labels.size == 0:
        return 0.5, 0.0

    distinct = np.unique(probabilities)
    candidates = [0.5]
    if distinct.size > 1:
        candidates.extend(((distinct[:-1] + distinct[1:]) / 2).tolist())
    candidates.extend([distinct[0] - 1e-6, distinct[-1] + 1e-6])

    best_threshold, best_f1 = 0.5, -1.0
    for threshold in candidates:
        _, _, f1 = precision_recall_f1(labels, (probabilities >= threshold).astype(int))
        if f1 > best_f1:
            best_threshold, best_f1 = float(threshold), f1
    return best_threshold, best_f1


def calibrate_model(model, encoded_valid, batch_size: int = 32) -> float:
    """Pick the validation-F1-optimal threshold for a trained EMModel."""
    from repro.engine import EngineConfig, InferenceEngine

    if not encoded_valid:
        return 0.5
    engine = InferenceEngine(model, config=EngineConfig(batch_size=batch_size))
    out = engine.score_encoded(encoded_valid)
    threshold, _ = best_f1_threshold(out["labels"], out["em_prob"])
    return threshold
