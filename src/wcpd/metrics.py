"""Detection and labeling quality metrics.

cp_f1 scores detections against truth with a one-to-one nearest match inside a
margin. cp_auc ranks trace values at indices near true changes against the
rest (ties count one half), so it is invariant under any strictly increasing
transform of the trace. label_accuracy maps predicted cluster ids onto truth
with the assignment solver before counting per-sample agreement.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .cpd import StatTrace
from .numeric import hungarian
from .series import _integer, _integers
from .tssc import SegmentLabeling

__all__ = ["cp_f1", "cp_auc", "label_accuracy"]


def _indices(values, name: str) -> np.ndarray:
    """values as a flat int array, refusing floats and bools."""
    array = _integers(values, name)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a flat sequence")
    return array


def cp_f1(predicted, truth, delta: int) -> tuple[float, float, float]:
    """(precision, recall, f1) under a +-delta matching margin.

    True change points are matched greedily in increasing order, each to the
    nearest unmatched prediction within delta (earlier prediction on a
    distance tie); bisection on the sorted predictions finds the ones within
    delta. Conventions for degenerate inputs: an empty prediction list has
    precision 1, an empty truth list has recall 1, so two empty lists score
    (1, 1, 1).
    """
    _integer(delta, "delta", 0)
    preds = sorted(_indices(predicted, "predicted change points").tolist())
    truths = sorted(_indices(truth, "true change points").tolist())
    used = [False] * len(preds)
    for t in truths:
        lo, hi = bisect_left(preds, t - delta), bisect_right(preds, t + delta)
        free = [pos for pos in range(lo, hi) if not used[pos]]
        if free:  # min keeps the first, so the earlier, of equally near predictions
            used[min(free, key=lambda pos: abs(preds[pos] - t))] = True
    matches = sum(used)
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
    _integer(delta, "delta", 0)
    truths = np.sort(_indices(truth, "true change points"))
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

    Predicted segment labels are expanded per sample, the confusion counts
    over the labels in use (K only bounds them) are built in one
    ``np.bincount``, and :func:`wcpd.numeric.hungarian` on their negation
    gives the label mapping that maximizes agreement; the result is
    invariant to any permutation of the predicted ids.
    """
    truths = _integers(truth_labels, "truth labels")
    if truths.ndim != 1 or truths.size == 0:
        raise ValueError("truth labels must be a nonempty flat sequence")
    _integer(K, "K", 1)
    predicted = predicted_labeling.per_sample(truths.size)
    if predicted_labeling.K > K:
        raise ValueError("predicted labeling uses more than K clusters")
    distinct = np.unique(truths)
    if distinct.size > K:
        raise ValueError("more distinct truth labels than clusters")
    used = np.unique(predicted_labeling.labels)
    n = max(used.size, distinct.size)
    cells = np.searchsorted(used, predicted) * n + np.searchsorted(distinct, truths)
    counts = np.bincount(cells, minlength=n * n).reshape(n, n)
    matched = counts[np.arange(n), hungarian(-counts)].sum()
    return float(matched / truths.size)
