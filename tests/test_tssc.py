import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpd import tssc
from wcpd.cli import _labeling_from_samples
from wcpd.empirical import _check_runs, build_empirical, wasserstein2
from wcpd.metrics import label_accuracy
from wcpd.series import TimeSeries
from wcpd.simgen import DistSpec, SeriesSpec, generate
from wcpd.tssc import (
    AffinityMatrix,
    Segment,
    SegmentLabeling,
    affinity_matrix,
    _boundary_weights as boundary_weights,
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

    @pytest.mark.parametrize("beta", [1, 10, 2**53 + 1, 2**1023])
    @pytest.mark.parametrize("length", [1, 12, 40])
    def test_beta_below_2_1024_keeps_its_bits(self, length, beta):
        # the weights as computed with the Python int beta itself
        positions = np.arange(length, dtype=float)
        edge = np.minimum(positions, length - 1 - positions)
        expected = np.ones(length)
        ramp = edge < beta
        expected[ramp] = 0.54 - 0.46 * np.cos(2.0 * np.pi * edge[ramp] / (2.0 * beta - 1.0))
        np.testing.assert_array_equal(
            boundary_weights(length, beta).view(np.uint64), expected.view(np.uint64)
        )

    def test_beta_beyond_float64_is_the_uniform_limit(self):
        # 2**1023 already weighs every sample 0.08; a beta float64 cannot hold
        # gives the same weights, where float(beta) raised OverflowError
        limit = boundary_weights(40, 2**1023)
        assert (limit == limit[0]).all() and limit[0] == pytest.approx(0.08)
        for beta in (2**1024, 10**400):
            np.testing.assert_array_equal(
                boundary_weights(40, beta).view(np.uint64), limit.view(np.uint64)
            )


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


@st.composite
def segmented_series(draw):
    """A d = 1 or 3 series of 2-7 segments of 1-12 samples with many ties, and a beta
    up to 6, so segments shorter than 2*beta and of one sample are common."""
    dim = draw(st.sampled_from([1, 3]))
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=7))
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
    data = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                         min_size=sum(sizes), max_size=sum(sizes)))
    beta = draw(st.integers(1, 6))
    return TimeSeries(np.array(data)), np.cumsum(sizes)[:-1], beta


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestArrayPath:
    @settings(max_examples=80, deadline=None)
    @given(segmented_series(), st.integers(1, 3), st.integers(0, 2**31))
    def test_equals_object_path(self, case, K, seed):
        series, cps, beta = case
        bounds = np.concatenate(([0], cps, [len(series)]))
        segments = [segment_distribution(series, int(a), int(b), beta)
                    for a, b in zip(bounds[:-1], bounds[1:])]
        atoms, cums = tssc._segment_arrays(series.data, bounds, beta)
        for segment, a, b in zip(segments, bounds[:-1], bounds[1:]):
            for d, dist in enumerate(segment.dists):
                # the distribution build_empirical makes from the same samples
                built = build_empirical(series.data[a:b, d], boundary_weights(b - a, beta))
                for got, want in ((atoms[d, a:b], built.support), (cums[d, a:b], built.cum_weights),
                                  (dist.support, built.support), (dist.weights, built.weights)):
                    np.testing.assert_array_equal(bits(got), bits(want))
        expected = affinity_matrix(segments)
        values = tssc._affinity(np.diff(bounds), cums, atoms).values
        np.testing.assert_array_equal(bits(values), bits(expected.values))
        K = min(K, len(segments))
        labeling = cluster_segments(series, cps, K=K, beta=beta, seed=seed)
        np.testing.assert_array_equal(labeling.labels, spectral_cluster(expected, K, seed))

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("length", [1, 9])
    def test_one_segment_is_a_unit_affinity(self, dim, length):
        # one segment has no pair: the workspace sizes to nothing, as
        # max(initial=0) of no blocks
        series = TimeSeries(np.arange(float(length * dim)).reshape(length, dim) % 4)
        bounds = np.array([0, length])
        atoms, cums = tssc._segment_arrays(series.data, bounds, 2)
        affinity = tssc._affinity(np.diff(bounds), cums, atoms)
        assert affinity.values.tolist() == [[1.0]]

    def test_checks_run_on_the_arrays(self, monkeypatch):
        series = TimeSeries(np.arange(12.0))
        ramps = {
            "negative weight": lambda size, beta: np.r_[-1.0, np.full(size - 1, 2.0)],
            "non-finite weight": lambda size, beta: np.r_[np.nan, np.ones(size - 1)],
        }
        for message, ramp in ramps.items():
            monkeypatch.setattr(tssc, "_boundary_weights", ramp)
            with pytest.raises(ValueError, match=message):
                cluster_segments(series, [5], K=2, beta=2, seed=0)

    def test_run_checks(self):
        # runs [0, 2), [2, 3) and [3, 5) along the last axis of two rows
        starts = np.array([0, 2, 3])
        atoms = [1.0, 2.0, -5.0, 0.0, 0.0]  # each run sorted; a run may start lower
        weights = [0.5, 0.5, 1.0, 0.25, 0.75]
        _check_runs(np.array([atoms, atoms]), np.array([weights, weights]), starts)
        cases = [
            ("support must be non-decreasing", [1.0, 2.0, -5.0, 1.0, 0.0], weights),
            ("non-finite sample", [1.0, 2.0, np.nan, 0.0, 0.0], weights),
            ("weights must sum to one", atoms, [0.5, 0.5, 1.0, 0.25, 0.5]),
        ]
        for message, bad_atoms, bad_weights in cases:
            with pytest.raises(ValueError, match=message):
                _check_runs(np.array([atoms, bad_atoms]), np.array([weights, bad_weights]), starts)


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

    def test_labels_do_not_depend_on_eigenvector_signs(self, monkeypatch):
        # eigenvectors are defined up to sign; negation is exact in IEEE
        # arithmetic, so k-means's distances and means, and its labels, keep their bits
        rng = np.random.default_rng(67)
        cases = []
        for _ in range(120):
            n = int(rng.integers(4, 61))
            K = int(rng.integers(2, min(n, 8) + 1))
            points = rng.normal(size=n) + rng.integers(0, K, size=n) * rng.uniform(0.5, 4.0)
            values = np.exp(-np.abs(points[:, None] - points[None, :]))
            np.fill_diagonal(values, 1.0)
            affinity = AffinityMatrix(values)
            seed = int(rng.integers(2**31))
            cases.append((affinity, K, seed, spectral_cluster(affinity, K, seed)))

        flips = []
        solve = tssc.eigh_symmetric

        def flipped(matrix):
            eigenvalues, vectors = solve(matrix)
            signs = rng.choice([-1.0, 1.0], size=vectors.shape[1])
            flips.append(bool((signs < 0).any()))
            return eigenvalues, vectors * signs

        monkeypatch.setattr(tssc, "eigh_symmetric", flipped)
        for affinity, K, seed, labels in cases:
            np.testing.assert_array_equal(spectral_cluster(affinity, K, seed), labels)
        assert len(flips) == len(cases) and sum(flips) > 100


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

    @pytest.mark.parametrize("cps", [[20.5], [20.0], [True]])
    def test_rejects_non_integer_change_points(self, cps):
        # int() would cut 20.5 to 20 and read True as 1
        series = TimeSeries(np.arange(40.0))
        with pytest.raises(ValueError, match="change points must be integers"):
            cluster_segments(series, cps, K=2, beta=5, seed=0)

    @pytest.mark.parametrize("cps", [[[10, 20]], [[10], [20]], 10, np.zeros((0, 2), dtype=int)])
    def test_rejects_change_points_that_are_not_flat(self, cps):
        # numpy's own errors spoke of an ambiguous truth value or of dimensions
        series = TimeSeries(np.arange(40.0))
        with pytest.raises(ValueError, match="change points must be a flat index sequence"):
            cluster_segments(series, cps, K=2, beta=5, seed=0)

    def test_too_few_segments(self):
        series = generate(SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 50),), seed=5))
        with pytest.raises(ValueError):
            cluster_segments(series, [], K=2, beta=10, seed=0)

    def test_one_segment_takes_the_clustering_path(self, monkeypatch):
        series = generate(SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 50),), seed=5))
        calls = []
        cluster = tssc.spectral_cluster

        def spy(affinity, K, seed):
            calls.append((affinity.values.tolist(), K, seed))
            return cluster(affinity, K, seed)

        monkeypatch.setattr(tssc, "spectral_cluster", spy)
        labeling = cluster_segments(series, [], K=1, beta=10, seed=3)
        assert calls == [([[1.0]], 1, 3)]
        assert labeling.labels.tolist() == [0] and labeling.K == 1
        assert labeling.change_points.tolist() == []

    @pytest.mark.parametrize(
        "K,beta,message",
        [
            (2, 2.5, "beta must be an integer"),
            (2, True, "beta must be an integer"),
            (2.0, 50, "K must be an integer"),
            (True, 50, "K must be an integer"),
            (1, 0, "beta must be at least 1"),  # one segment used to take any beta
        ],
    )
    @pytest.mark.parametrize("cps", [[], [50, 100, 150]])
    def test_rejects_non_integer_k_and_beta(self, K, beta, message, cps):
        series = generate(SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 200),), seed=5))
        with pytest.raises(ValueError, match=message):
            cluster_segments(series, cps, K=K, beta=beta, seed=0)

    def test_beta_beyond_float64_clusters_as_2_1023(self):
        series = self.eight_segments()
        limit = cluster_segments(series, series.change_points, K=3, beta=2**1023, seed=1)
        huge = cluster_segments(series, series.change_points, K=3, beta=10**400, seed=1)
        np.testing.assert_array_equal(huge.labels, limit.labels)
        for start, end in [(0, 200), (190, 230)]:
            near, far = (segment_distribution(series, start, end, b) for b in (2**1023, 10**400))
            for a, b in zip(near.dists, far.dists):
                np.testing.assert_array_equal(a.support, b.support)
                np.testing.assert_array_equal(a.weights.view(np.uint64), b.weights.view(np.uint64))

    @pytest.mark.parametrize("cps", [[], [50, 100, 150]])
    def test_rejects_negative_seed(self, cps):
        series = generate(SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 200),), seed=5))
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            cluster_segments(series, cps, K=1, beta=10, seed=-1)

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

    @pytest.mark.parametrize(
        "cps,labels,field",
        [([2.9], [0, 1], "change points"), ([True], [0, 1], "change points"),
         ([2], [0.5, 1.9], "labels"), ([2], [1.0, 0.0], "labels"), ([2], [True, False], "labels")],
    )
    def test_rejects_non_integer_change_points_and_labels(self, cps, labels, field):
        # np.array(..., dtype=int) would store [2.9] as [2] and [0.5, 1.9] as [0, 1]
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            SegmentLabeling(change_points=cps, labels=labels, K=2)

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SegmentLabeling([[2]], [0, 1], K=2), "must be flat sequences"),
        (lambda: SegmentLabeling([2], [[0, 1]], K=2), "must be flat sequences"),
        (lambda: SegmentLabeling([3, 2], [0, 1, 0], K=2), "must be strictly increasing"),
        (lambda: Segment(4, 4, (build_empirical([1.0]),)), "start must precede its end"),
        (lambda: Segment(0, 2, ()), "needs at least one dimension"),
        (lambda: AffinityMatrix(np.ones((0, 0))), "must be square and nonempty"),
        (lambda: AffinityMatrix(np.ones(3)), "must be square and nonempty"),
        (lambda: AffinityMatrix(np.ones((2, 3))), "must be square and nonempty"),
    ],
)
def test_containers_refuse_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
