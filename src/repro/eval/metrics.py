"""Classification metrics.

Binary precision/recall/F1 for the main EM task and accuracy / micro-F1
for the multi-class entity-ID tasks (the paper reports accuracy
per task plus a micro-F1 pooled over both ID predictions).
"""

from __future__ import annotations

import numpy as np


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    """Binary confusion counts (tp, fp, fn, tn) with 1 as the positive class."""
    y_true = np.asarray(y_true).astype(int)
    y_pred = np.asarray(y_pred).astype(int)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    return tp, fp, fn, tn


def precision_recall_f1(y_true: np.ndarray, y_pred: np.ndarray
                        ) -> tuple[float, float, float]:
    """Binary precision, recall, F1 (zero when undefined)."""
    tp, fp, fn, _ = confusion(y_true, y_pred)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def binary_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 of the positive (match) class — the paper's headline metric."""
    return precision_recall_f1(y_true, y_pred)[2]


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        return 0.0
    return float((y_true == y_pred).mean())


def micro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Micro-averaged F1 for single-label multi-class predictions.

    With one label per example, micro precision == micro recall ==
    accuracy, so micro-F1 equals accuracy; it is kept as a distinct
    function to mirror the paper's reporting (their Tables 3/5 pool the
    two ID tasks before micro-averaging).
    """
    return accuracy(y_true, y_pred)
