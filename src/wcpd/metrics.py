"""Detection and labeling quality metrics.

cp_f1 scores detections against truth with a one-to-one nearest match inside a
margin. cp_auc ranks trace values at indices near true changes against the
rest (ties count one half), so it is invariant under any strictly increasing
transform of the trace. label_accuracy maps predicted cluster ids onto truth
with the assignment solver before counting per-sample agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpd import StatTrace
from .numeric import hungarian
from .tssc import SegmentLabeling

__all__ = ["EvalReport", "cp_f1", "cp_auc", "label_accuracy"]


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle with the run parameters echoed alongside."""

    cp_precision: float
    cp_recall: float
    cp_f1: float
    cp_auc: float = float("nan")
    label_accuracy: float = float("nan")
    delta: int = 0
    k: int | None = None
    beta: int | None = None
    lam: float | None = None

    def __post_init__(self):
        for name in ("cp_precision", "cp_recall", "cp_f1", "cp_auc", "label_accuracy"):
            value = getattr(self, name)
            if np.isfinite(value) and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def cp_f1(predicted, truth, delta: int) -> tuple[float, float, float]:
    """(precision, recall, f1) under a +-delta matching margin.

    True change points are matched greedily in increasing order, each to the
    nearest unmatched prediction within delta (earlier prediction on a
    distance tie). Conventions for degenerate inputs: an empty prediction list
    has precision 1, an empty truth list has recall 1, so two empty lists
    score (1, 1, 1).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    preds = sorted(int(p) for p in predicted)
    truths = sorted(int(t) for t in truth)
    used = [False] * len(preds)
    matches = 0
    for t in truths:
        best = None  # (distance, position)
        for pos, p in enumerate(preds):
            if used[pos]:
                continue
            distance = abs(p - t)
            if distance > delta:
                continue
            if best is None or distance < best[0]:
                best = (distance, pos)
        if best is not None:
            used[best[1]] = True
            matches += 1
    precision = 1.0 if not preds else matches / len(preds)
    recall = 1.0 if not truths else matches / len(truths)
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of ties shares the mean of the ranks it spans."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def cp_auc(filtered_trace: StatTrace, truth, delta: int) -> float:
    """Rank-based AUC of the trace for separating near-change indices.

    Positives are valid indices within delta of any true change point,
    negatives are the remaining valid indices; the result is the probability
    that a random positive index carries a strictly larger trace value than a
    random negative one, with ties counting one half.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    truths = np.asarray(sorted(int(t) for t in truth), dtype=int)
    valid = np.flatnonzero(filtered_trace.valid_mask)
    if truths.size == 0 or valid.size == 0:
        raise ValueError("degenerate AUC")
    right = np.searchsorted(truths, valid)
    distance = np.minimum(
        np.abs(valid - truths[np.maximum(right - 1, 0)]),
        np.abs(valid - truths[np.minimum(right, truths.size - 1)]),
    )
    positive = distance <= delta
    n_pos = int(positive.sum())
    n_neg = int(valid.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("degenerate AUC")
    ranks = _midranks(filtered_trace.values[valid])
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def label_accuracy(predicted_labeling: SegmentLabeling, truth_labels, K: int) -> float:
    """Best-mapping fraction of samples whose cluster id matches the truth.

    Predicted segment labels are expanded per sample, the K x K confusion
    counts are built, and the assignment solver picks the label mapping that
    maximizes agreement; the result is invariant to any permutation of the
    predicted ids.
    """
    truths = np.asarray(truth_labels, dtype=int)
    if truths.ndim != 1 or truths.size == 0:
        raise ValueError("truth labels must be a nonempty flat sequence")
    if K < 1:
        raise ValueError("K must be at least 1")
    predicted = predicted_labeling.per_sample(truths.size)
    if predicted_labeling.K > K:
        raise ValueError("predicted labeling uses more than K clusters")
    distinct = np.unique(truths)
    if distinct.size > K:
        raise ValueError("more distinct truth labels than clusters")
    truth_index = np.searchsorted(distinct, truths)
    counts = np.zeros((K, K))
    np.add.at(counts, (predicted, truth_index), 1.0)
    mapping = hungarian(counts.max() - counts)
    matched = sum(counts[i, mapping[i]] for i in range(K))
    return float(matched / truths.size)
