"""Classification metrics: one-vs-rest accuracy, G-mean, and AUROC.

AUROC equals the pairwise concordance probability (ties count one half)
and is computed here by counting, for each positive, the negatives below and
tied with it in the sorted negatives; the test suite checks it against a
brute-force all-pairs enumeration.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import MetricError


def _check_lengths(y_true, y_pred):
    if len(y_true) == 0:
        raise MetricError("empty inputs")
    if len(y_true) != len(y_pred):
        raise MetricError(f"length mismatch: {len(y_true)} truth vs {len(y_pred)} predictions")


def gmean(y_true: list, y_pred: list, positive_class) -> float:
    """100 * sqrt(sensitivity * specificity), one-vs-rest.

    A zero denominator makes the corresponding rate 0, which matches the
    convention of reporting 0.0 when a class is never predicted correctly.
    """
    _check_lengths(y_true, y_pred)
    tp = fn = tn = fp = 0
    for truth, pred in zip(y_true, y_pred):
        truth_pos = truth == positive_class
        pred_pos = pred == positive_class
        if truth_pos and pred_pos:
            tp += 1
        elif truth_pos:
            fn += 1
        elif pred_pos:
            fp += 1
        else:
            tn += 1
    sensitivity = tp / (tp + fn) if (tp + fn) else 0.0
    specificity = tn / (tn + fp) if (tn + fp) else 0.0
    return 100.0 * math.sqrt(sensitivity * specificity)


def ovr_accuracy(y_true: list, y_pred: list, positive_class) -> float:
    """One-vs-rest accuracy for one class, in percent."""
    _check_lengths(y_true, y_pred)
    agree = sum(
        (truth == positive_class) == (pred == positive_class)
        for truth, pred in zip(y_true, y_pred)
    )
    return 100.0 * agree / len(y_true)


def overall_accuracy(y_true: list, y_pred: list) -> float:
    _check_lengths(y_true, y_pred)
    return 100.0 * sum(t == p for t, p in zip(y_true, y_pred)) / len(y_true)


def auroc(scores: list[float], labels: list[int]) -> float:
    """Pairwise-concordance AUROC over binary labels; undefined for one class."""
    _check_lengths(scores, labels)
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    pos, neg = s[y == 1], np.sort(s[y == 0])
    if pos.size == 0 or neg.size == 0:
        raise MetricError("AUROC undefined: both classes must be present")
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    # an integer plus halves, as exact as the rank-sum statistic
    u = float(below.sum()) + float(tied.sum()) / 2.0
    return u / (pos.size * neg.size)
