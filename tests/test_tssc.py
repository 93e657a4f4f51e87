import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpd import tssc
from wcpd.cli import _labeling_from_samples
from wcpd.empirical import build_empirical, wasserstein2
from wcpd.metrics import label_accuracy
from wcpd.series import TimeSeries
from wcpd.simgen import DistSpec, SeriesSpec, generate
from wcpd.tssc import (
    AffinityMatrix,
    Segment,
    SegmentLabeling,
    affinity_matrix,
    boundary_weights,
    cluster_segments,
    segment_distribution,
    spectral_cluster,
)

from helpers import adjusted_rand, lp_wasserstein2


def atom_segment(value, length=5, beta=2):
    series = TimeSeries(np.full(length, float(value)))
    return segment_distribution(series, 0, length, beta)


class TestBoundaryWeights:
    def test_first_sample_is_hamming_base(self):
        w = boundary_weights(100, beta=10)
        assert w[0] == pytest.approx(0.08)
        assert w[-1] == pytest.approx(0.08)

    def test_interior_weight_is_one(self):
        w = boundary_weights(100, beta=10)
        assert np.all(w[10:90] == 1.0)

    def test_ramp_monotone_and_bounded(self):
        w = boundary_weights(60, beta=15)
        ramp = w[:15]
        assert np.all(np.diff(ramp) > 0)
        assert np.all((ramp > 0) & (ramp <= 1.0))

    def test_short_segment_uses_minimum_of_halves(self):
        beta = 10
        short = boundary_weights(12, beta=beta)
        long = boundary_weights(40, beta=beta)
        for j in range(12):
            assert short[j] == pytest.approx(min(long[j], long[40 - 12 + j]))

    def test_length_one(self):
        w = boundary_weights(1, beta=5)
        assert w.shape == (1,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty segment"):
            boundary_weights(0, beta=3)

    @pytest.mark.parametrize("beta", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be an integer"):
            boundary_weights(10, beta=beta)


class TestSegmentDistribution:
    def test_single_sample(self):
        series = TimeSeries(np.array([4.0, 5.0, 6.0]))
        segment = segment_distribution(series, 1, 2, beta=2)
        np.testing.assert_array_equal(segment.dists[0].support, [5.0])
        np.testing.assert_array_equal(segment.dists[0].weights, [1.0])

    def test_interior_to_boundary_ratio(self):
        series = TimeSeries(np.arange(50, dtype=float))
        segment = segment_distribution(series, 0, 50, beta=5)
        dist = segment.dists[0]
        # sorted support equals the sample order here; boundary/interior = 0.08
        assert dist.weights[0] / dist.weights[25] == pytest.approx(0.08)

    def test_per_dimension(self):
        series = TimeSeries(np.column_stack([np.arange(20.0), np.arange(20.0) * 2]))
        segment = segment_distribution(series, 0, 20, beta=4)
        assert segment.dim == 2
        assert segment.dists[1].support[-1] == 38.0

    def test_empty_segment_rejected(self):
        series = TimeSeries(np.arange(10, dtype=float))
        with pytest.raises(ValueError, match="empty segment"):
            segment_distribution(series, 5, 5, beta=2)

    def test_dimensions_hold_the_same_samples(self):
        dists = (build_empirical([1.0, 2.0, 3.0]), build_empirical([1.0]))
        with pytest.raises(ValueError, match="same samples"):
            Segment(start=0, end=3, dists=dists)


class TestAffinityMatrix:
    def test_identical_segments_full_affinity(self):
        seg = atom_segment(1.0)
        result = affinity_matrix([seg, seg])
        assert result.values[0, 1] == pytest.approx(1.0)

    def test_unit_distance_affinity(self):
        result = affinity_matrix([atom_segment(0.0), atom_segment(1.0)])
        assert result.values[0, 1] == pytest.approx(np.exp(-1.0))

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        segments = []
        for _ in range(5):
            series = TimeSeries(rng.normal(loc=rng.normal(scale=3), size=30))
            segments.append(segment_distribution(series, 0, 30, beta=5))
        result = affinity_matrix(segments)
        assert np.array_equal(result.values, result.values.T)
        assert np.all(result.values.diagonal() == 1.0)
        assert np.all((result.values > 0) & (result.values <= 1.0))

    def test_dimension_mismatch(self):
        one = atom_segment(0.0)
        series = TimeSeries(np.zeros((10, 2)))
        two = segment_distribution(series, 0, 10, beta=2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            affinity_matrix([one, two])

    def test_needs_two_segments(self):
        with pytest.raises(ValueError, match="at least two"):
            affinity_matrix([atom_segment(0.0)])

    def test_type_invariants(self):
        with pytest.raises(ValueError, match="diagonal"):
            AffinityMatrix(np.array([[0.9, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            AffinityMatrix(np.array([[1.0, 0.5], [0.6, 1.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AffinityMatrix(np.array([[1.0, -0.1], [-0.1, 1.0]]))

    def test_underflowed_affinity_is_zero(self):
        # exp(-W2) underflows to exactly 0 once W2 exceeds ~745
        result = affinity_matrix([atom_segment(0.0), atom_segment(1000.0)])
        np.testing.assert_array_equal(result.values, np.eye(2))

    def test_large_magnitudes(self):
        # squared gaps of these atoms overflow unless they are scaled first
        segments = [
            Segment(0, 2, (build_empirical([0.0, 1e154]), build_empirical([1.0, 2.0]))),
            Segment(2, 3, (build_empirical([-1e154]), build_empirical([1e300]))),
            Segment(3, 5, (build_empirical([-1e300, 1e300]), build_empirical([0.0, 1.0]))),
        ]
        np.testing.assert_array_equal(affinity_matrix(segments).values, np.eye(3))
        # a distance beyond float max overflows to inf, without a warning
        far = [Segment(0, 1, (build_empirical([s * 1.7e308]),)) for s in (-1, 1)]
        np.testing.assert_array_equal(affinity_matrix(far).values, np.eye(2))


def ragged_segments(seed, dim):
    """Segments of 1 to ~300 tied integer atoms with zero weights.

    One segment is long and the rest short, which keeps the LP oracle cheap;
    every other segment ends in a zero-weight top atom.
    """
    rng = np.random.default_rng(seed)
    lengths = [int(rng.integers(250, 300)), 1, *rng.integers(2, 30, size=4)]
    segments = []
    for s, length in enumerate(rng.permutation(lengths)):
        dists = []
        for _ in range(dim):
            atoms = rng.integers(-4, 5, size=length).astype(float)
            weights = rng.integers(0, 3, size=length).astype(float)
            weights[rng.integers(length)] = 1.0
            if s % 2 and length > 1:
                atoms[-1], weights[-1] = 10.0, 0.0
            dists.append(build_empirical(atoms, weights))
        segments.append(Segment(start=0, end=int(length), dists=tuple(dists)))
    return segments


@functools.lru_cache(maxsize=None)
def lp_affinity(seed, dim):
    segments = ragged_segments(seed, dim)
    n = len(segments)
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            distance = np.mean(
                [lp_wasserstein2(a, b) for a, b in zip(segments[i].dists, segments[j].dists)]
            )
            values[i, j] = values[j, i] = np.exp(-distance)
    return values


class TestBatchedAffinity:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("chunk", [None, 1, 7, 100])
    def test_matches_lp_oracle_at_any_chunk(self, monkeypatch, seed, dim, chunk):
        segments = ragged_segments(seed, dim)
        default = affinity_matrix(segments).values
        if chunk is not None:
            monkeypatch.setattr(tssc, "_CHUNK_ELEMENTS", chunk)
        values = affinity_matrix(segments).values
        np.testing.assert_allclose(values, lp_affinity(seed, dim), rtol=0.0, atol=1e-9)
        # chunk boundaries and padding do not change a single bit
        np.testing.assert_array_equal(values, default)

    def test_peak_memory_is_bounded(self):
        # one (pairs x 2L) temporary for 200 segments of 500 samples would be
        # ~160 MB; blocks of at most _CHUNK_ELEMENTS keep the peak near the
        # inputs' own size
        data = np.random.default_rng(5).normal(size=100_000)
        series = TimeSeries(data)
        segments = [segment_distribution(series, s, s + 500, beta=50) for s in range(0, 100_000, 500)]
        tracemalloc.start()
        try:
            affinity_matrix(segments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@st.composite
def tied_segments(draw):
    """2-6 segments of 1-8 tied integer atoms, with zero weights, at d = 1 or 3."""
    dim = draw(st.sampled_from([1, 3]))
    segments = []
    for _ in range(draw(st.integers(2, 6))):
        length = draw(st.integers(1, 8))
        dists = []
        for _ in range(dim):
            atoms = draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
            weights = draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
            if not any(weights):
                weights[draw(st.integers(0, length - 1))] = 1
            dists.append(build_empirical(atoms, weights))
        segments.append(Segment(start=0, end=length, dists=tuple(dists)))
    return segments


def pairwise_affinity(segments, pairs):
    """exp(-mean W2) of each pair from wasserstein2, summed in order from 0.0."""
    totals = []
    for i, j in pairs:
        total = 0.0
        for a, b in zip(segments[i].dists, segments[j].dists):
            total += wasserstein2(a, b)
        totals.append(total)
    return np.exp(-np.array(totals) / segments[0].dim)


class TestAffinityKernel:
    @settings(max_examples=80, deadline=None)
    @given(tied_segments())
    def test_entries_equal_single_pair_distances(self, segments):
        values = affinity_matrix(segments).values
        upper = np.triu_indices(len(segments), 1)
        expected = pairwise_affinity(segments, zip(*upper))
        np.testing.assert_array_equal(values[upper], expected)

    def test_wide_keys_past_uint16(self, monkeypatch):
        # more than 32,767 samples in all: keys up to 2N + 1 need 32 bits
        rng = np.random.default_rng(9)
        segments = []
        for length in (12000, 11000, 9000, 900, 1):
            atoms = rng.integers(-4, 5, size=length).astype(float)
            weights = rng.integers(0, 3, size=length).astype(float)
            weights[0] = 1.0
            dists = (build_empirical(atoms, weights),)
            segments.append(Segment(start=0, end=length, dists=dists))
        key_types = set()
        kernel = tssc._w2_squared_rows

        def spy(vals, own, *rest):
            key_types.add(own.dtype)
            return kernel(vals, own, *rest)

        monkeypatch.setattr(tssc, "_w2_squared_rows", spy)
        values = affinity_matrix(segments).values
        assert key_types == {np.dtype(np.uint32)}
        pairs = [(0, 1), (1, 2), (0, 3), (2, 4)]
        expected = pairwise_affinity(segments, pairs)
        np.testing.assert_array_equal([values[i, j] for i, j in pairs], expected)


def planted_affinity(sizes, cross):
    n = sum(sizes)
    values = np.full((n, n), cross)
    start = 0
    truth = np.empty(n, dtype=int)
    for block, size in enumerate(sizes):
        values[start : start + size, start : start + size] = 1.0
        truth[start : start + size] = block
        start += size
    return AffinityMatrix(values), truth


class TestSpectralCluster:
    def test_planted_blocks_recovered(self):
        affinity, truth = planted_affinity([4, 5, 6], np.exp(-5.0))
        labels = spectral_cluster(affinity, K=3, seed=0)
        assert adjusted_rand(labels, truth) == 1.0

    def test_k_equals_n(self):
        affinity, _ = planted_affinity([2, 2, 2], np.exp(-3.0))
        labels = spectral_cluster(affinity, K=6, seed=0)
        assert sorted(labels) == list(range(6))

    def test_k_one(self):
        affinity, _ = planted_affinity([3, 3], np.exp(-2.0))
        labels = spectral_cluster(affinity, K=1, seed=0)
        assert set(labels) == {0}

    def test_k_out_of_range(self):
        affinity, _ = planted_affinity([2, 2], np.exp(-2.0))
        with pytest.raises(ValueError):
            spectral_cluster(affinity, K=5, seed=0)
        with pytest.raises(ValueError):
            spectral_cluster(affinity, K=0, seed=0)

    @pytest.mark.parametrize("K", [2.0, 2.5, True])
    def test_rejects_non_integer_k(self, K):
        affinity, _ = planted_affinity([2, 2], np.exp(-2.0))
        with pytest.raises(ValueError, match="K must be an integer"):
            spectral_cluster(affinity, K=K, seed=0)

    def test_deterministic(self):
        affinity, _ = planted_affinity([4, 4, 4], np.exp(-4.0))
        a = spectral_cluster(affinity, K=3, seed=5)
        b = spectral_cluster(affinity, K=3, seed=5)
        np.testing.assert_array_equal(a, b)


class TestClusterSegments:
    def eight_segments(self, seed=6):
        a = DistSpec("normal", 0.0, 1.0)
        b = DistSpec("normal", 5.0, 1.0)
        c = DistSpec("normal", 0.0, 4.0)
        order = [a, b, c, a, b, c, a, b]
        return generate(
            SeriesSpec(segments=tuple((spec, 200) for spec in order), seed=seed)
        )

    def test_three_class_recovery(self):
        series = self.eight_segments()
        labeling = cluster_segments(
            series, series.change_points, K=3, beta=40, seed=1
        )
        assert label_accuracy(labeling, series.labels, 3) == 1.0

    def test_two_identical_segments_single_class(self):
        series = generate(
            SeriesSpec(
                segments=((DistSpec("normal", 0.0, 1.0), 80),) * 2, seed=3
            )
        )
        labeling = cluster_segments(series, [80], K=1, beta=10, seed=0)
        np.testing.assert_array_equal(labeling.labels, [0, 0])

    def test_separated_pair_splits(self):
        series = generate(
            SeriesSpec(
                segments=(
                    (DistSpec("normal", 0.0, 1.0), 100),
                    (DistSpec("normal", 8.0, 1.0), 100),
                ),
                seed=4,
            )
        )
        labeling = cluster_segments(series, [100], K=2, beta=20, seed=0)
        assert labeling.labels[0] != labeling.labels[1]

    def test_far_apart_segments_cluster(self):
        # a mean shift of 1000 drives the cross affinities to exactly 0
        near, far = DistSpec("normal", 0.0, 1.0), DistSpec("normal", 1000.0, 1.0)
        series = generate(SeriesSpec(segments=((near, 100), (far, 100), (near, 100)), seed=8))
        labeling = cluster_segments(series, series.change_points, K=2, beta=20, seed=0)
        assert label_accuracy(labeling, series.labels, 2) == 1.0

    def test_too_few_segments(self):
        series = generate(SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 50),), seed=5))
        with pytest.raises(ValueError):
            cluster_segments(series, [], K=2, beta=10, seed=0)

    @pytest.mark.parametrize(
        "K,beta,message",
        [
            (2, 2.5, "beta must be an integer"),
            (2, True, "beta must be an integer"),
            (2.0, 50, "K must be an integer"),
            (True, 50, "K must be an integer"),
        ],
    )
    @pytest.mark.parametrize("cps", [[], [50, 100, 150]])
    def test_rejects_non_integer_k_and_beta(self, K, beta, message, cps):
        # one segment takes a shortcut past the distributions and the clustering
        series = generate(SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 200),), seed=5))
        with pytest.raises(ValueError, match=message):
            cluster_segments(series, cps, K=K, beta=beta, seed=0)

    def test_multidimensional_recovery(self):
        a = DistSpec("normal", 0.0, 1.0)
        b = DistSpec("normal", 4.0, 1.0)
        series = generate(
            SeriesSpec(segments=((a, 150), (b, 150), (a, 150), (b, 150)), dimension=2, seed=9)
        )
        labeling = cluster_segments(series, series.change_points, K=2, beta=30, seed=0)
        assert label_accuracy(labeling, series.labels, 2) == 1.0

    def test_label_permutation_equivalence(self):
        # the induced partition, not the raw ids, is what matters
        series = self.eight_segments(seed=7)
        labeling = cluster_segments(series, series.change_points, K=3, beta=40, seed=2)
        permuted = SegmentLabeling(
            change_points=labeling.change_points,
            labels=(labeling.labels + 1) % 3,
            K=3,
        )
        assert adjusted_rand(labeling.labels, permuted.labels) == 1.0
        assert label_accuracy(permuted, series.labels, 3) == label_accuracy(
            labeling, series.labels, 3
        )


class TestSegmentLabeling:
    def test_per_sample_expansion(self):
        labeling = SegmentLabeling(change_points=[3, 7], labels=[2, 0, 1], K=3)
        np.testing.assert_array_equal(
            labeling.per_sample(10), [2, 2, 2, 0, 0, 0, 0, 1, 1, 1]
        )

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="one label per segment"):
            SegmentLabeling(change_points=[3], labels=[0], K=1)

    def test_labels_bounded_by_k(self):
        with pytest.raises(ValueError, match=r"\[0, K\)"):
            SegmentLabeling(change_points=[3], labels=[0, 5], K=2)

    def test_rejects_non_integer_k(self):
        with pytest.raises(ValueError, match="K must be an integer"):
            SegmentLabeling(change_points=[3], labels=[0, 1], K=2.0)
        assert type(SegmentLabeling([3], [0, 1], K=np.int64(2)).K) is int

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 6), st.integers(0, 3)), min_size=1, max_size=8)
    )
    def test_per_sample_round_trip(self, segments):
        # adjacent segments need distinct labels, else the expansion merges them
        lengths = [length for length, _ in segments]
        labels = [segments[0][1]]
        for _, label in segments[1:]:
            labels.append(label if label != labels[-1] else (label + 1) % 4)
        labeling = SegmentLabeling(
            change_points=np.cumsum(lengths)[:-1], labels=labels, K=4
        )
        total = int(sum(lengths))
        restored = _labeling_from_samples(labeling.per_sample(total), 4)
        np.testing.assert_array_equal(restored.change_points, labeling.change_points)
        np.testing.assert_array_equal(restored.labels, labeling.labels)
