import numpy as np
import pytest

from wcpd.cpd import StatTrace
from wcpd.metrics import EvalReport, cp_auc, cp_f1, label_accuracy
from wcpd.tssc import SegmentLabeling


def make_trace(values, beta=2):
    arr = np.asarray(values, dtype=float)
    padded = np.concatenate([np.full(beta, np.nan), arr, np.full(beta, np.nan)])
    return StatTrace(padded, beta=beta, filtered=True)


class TestCpF1:
    def test_perfect_prediction(self):
        for delta in (0, 5, 50):
            assert cp_f1([10, 20, 30], [10, 20, 30], delta) == (1.0, 1.0, 1.0)

    def test_empty_prediction_convention(self):
        precision, recall, f1 = cp_f1([], [100], delta=10)
        assert (precision, recall, f1) == (1.0, 0.0, 0.0)

    def test_empty_truth_convention(self):
        precision, recall, f1 = cp_f1([100], [], delta=10)
        assert (precision, recall, f1) == (0.0, 1.0, 0.0)

    def test_both_empty_convention(self):
        assert cp_f1([], [], delta=10) == (1.0, 1.0, 1.0)

    def test_hand_worked_example(self):
        precision, recall, f1 = cp_f1([110, 150, 290], [100, 300], delta=20)
        assert precision == pytest.approx(2 / 3)
        assert recall == 1.0
        assert f1 == pytest.approx(0.8)

    def test_one_to_one_matching(self):
        # two truths near one prediction: only one can match
        precision, recall, f1 = cp_f1([100], [95, 105], delta=10)
        assert precision == 1.0
        assert recall == 0.5

    def test_nearest_match_wins(self):
        # the true point takes the closer of two candidate predictions
        precision, recall, _ = cp_f1([98, 103], [100, 104], delta=10)
        assert precision == 1.0 and recall == 1.0

    def test_margin_boundary_inclusive(self):
        _, recall, _ = cp_f1([110], [100], delta=10)
        assert recall == 1.0

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            cp_f1([1], [1], delta=-1)


class TestCpAuc:
    def test_perfect_separation(self):
        values = np.zeros(100)
        values[45:56] = 1.0
        trace = make_trace(values)
        assert cp_auc(trace, [52], delta=5) == 1.0

    def test_constant_trace_is_chance(self):
        trace = make_trace(np.full(100, 0.3))
        assert cp_auc(trace, [50], delta=5) == 0.5

    def test_near_perfect_detector(self):
        rng = np.random.default_rng(19)
        beta = 2
        full = np.full(404, np.nan)
        full[beta:-beta] = rng.normal(scale=0.15, size=400)
        truth = [100, 300]
        for trace_index in range(beta, 404 - beta):
            if min(abs(trace_index - cp) for cp in truth) <= 10:
                full[trace_index] += 1.0
        trace = StatTrace(full, beta=beta, filtered=True)
        assert cp_auc(trace, truth, delta=10) >= 0.99

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        values = rng.normal(size=300)
        trace = make_trace(values)
        base = cp_auc(trace, [120, 200], delta=8)
        transformed = make_trace(np.exp(values) + 3.0 * values)
        assert cp_auc(transformed, [120, 200], delta=8) == base

    def test_degenerate_all_positive(self):
        trace = make_trace(np.ones(20), beta=2)
        with pytest.raises(ValueError, match="degenerate AUC"):
            cp_auc(trace, [12], delta=50)

    def test_degenerate_empty_truth(self):
        trace = make_trace(np.ones(20), beta=2)
        with pytest.raises(ValueError, match="degenerate AUC"):
            cp_auc(trace, [], delta=5)


def pairwise_auc(values, positive):
    """O(pos x neg) count of positives above negatives, ties counting one half."""
    pos = values[positive][:, None]
    neg = values[~positive][None, :]
    wins = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return wins / (pos.size * neg.size)


class TestCpAucReference:
    def test_matches_pairwise_count(self):
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(200):
            beta = int(rng.integers(1, 6))
            values = rng.integers(0, 4, size=int(rng.integers(10, 120))).astype(float)
            trace = make_trace(values, beta=beta)
            first, last = beta, beta + values.size - 1
            delta = int(rng.integers(0, 6))
            # truths scattered over the trace, plus one within delta + 1 of
            # each valid edge, on either side of it
            truths = rng.integers(0, len(trace), size=int(rng.integers(1, 4))).tolist()
            truths += [edge + int(rng.integers(-delta - 1, delta + 2)) for edge in (first, last)]
            valid = np.arange(first, last + 1)
            distance = np.abs(valid[:, None] - np.asarray(truths)[None, :]).min(axis=1)
            positive = distance <= delta
            if positive.all() or not positive.any():
                continue
            assert cp_auc(trace, truths, delta) == pairwise_auc(values, positive)
            checked += 1
        assert checked > 100


class TestLabelAccuracy:
    def test_permuted_labels_score_one(self):
        truth = np.repeat([0, 1, 2], 10)
        labeling = SegmentLabeling(change_points=[10, 20], labels=[2, 0, 1], K=3)
        assert label_accuracy(labeling, truth, 3) == 1.0

    def test_single_label_against_even_split(self):
        truth = np.repeat([0, 1], 10)
        labeling = SegmentLabeling(change_points=[], labels=[0], K=2)
        assert label_accuracy(labeling, truth, 2) == 0.5

    def test_merged_segment_penalty(self):
        # one segment of length 5 folded into the wrong class out of T = 30
        truth = np.repeat([0, 1, 2, 0, 1, 0], 5)
        labeling = SegmentLabeling(
            change_points=[5, 10, 15, 20, 25], labels=[0, 1, 2, 0, 0, 0], K=3
        )
        assert label_accuracy(labeling, truth, 3) == pytest.approx(1 - 5 / 30)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        truth = rng.integers(0, 3, size=60)
        cps = [15, 30, 45]
        labels = np.array([0, 1, 2, 1])
        base = label_accuracy(SegmentLabeling(cps, labels, 3), truth, 3)
        for shift in (1, 2):
            permuted = SegmentLabeling(cps, (labels + shift) % 3, 3)
            assert label_accuracy(permuted, truth, 3) == base

    def test_length_mismatch(self):
        labeling = SegmentLabeling(change_points=[50], labels=[0, 1], K=2)
        with pytest.raises(ValueError, match="cover the sample range"):
            label_accuracy(labeling, np.zeros(40, dtype=int), 2)

    def test_too_many_truth_classes(self):
        labeling = SegmentLabeling(change_points=[5], labels=[0, 1], K=2)
        with pytest.raises(ValueError, match="more distinct truth labels"):
            label_accuracy(labeling, np.arange(10) % 3, 2)


class TestEvalReport:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            EvalReport(cp_precision=1.5, cp_recall=0.0, cp_f1=0.0)

    def test_nan_metrics_allowed(self):
        report = EvalReport(cp_precision=1.0, cp_recall=1.0, cp_f1=1.0)
        assert np.isnan(report.cp_auc)
        assert np.isnan(report.label_accuracy)
