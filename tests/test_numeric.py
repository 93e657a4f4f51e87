import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpd import numeric
from wcpd.errors import NumericalError
from wcpd.numeric import _lloyd_runs, eigh_symmetric, hungarian, kmeans

from helpers import (
    brute_force_assignment,
    exact_assignment,
    sequential_kmeans,
    sequential_lloyd,
    sequential_plus_plus_init,
)


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(scale=scale, size=(n, n))
    return (m + m.T) / 2.0


# Repeated eigenvalues leave each eigenspace's basis to the solver's choice;
# the decomposition must hold whatever it picks.
DEGENERATE = [
    np.ones((4, 4)) + np.eye(4),  # eigenvalues 1, 1, 1, 5
    np.kron(np.eye(2), 3.0 * np.eye(3) - np.ones((3, 3))),  # two triangles: 0, 0, 3, 3, 3, 3
]


class TestEighSymmetric:
    def test_identity(self):
        w, v = eigh_symmetric(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(v, np.eye(3))

    def test_diagonal_sorted(self):
        w, v = eigh_symmetric(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        # permutation eigenvectors with positive leading entries
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])
        assert np.all(v.max(axis=0) == 1.0)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(23)
        for m in [random_symmetric(rng, 6) for _ in range(50)] + DEGENERATE:
            w, v = eigh_symmetric(m)
            assert np.linalg.norm(v @ np.diag(w) @ v.T - m) <= 1e-8
            assert np.linalg.norm(v.T @ v - np.eye(m.shape[0])) <= 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            m = random_symmetric(rng, 8)
            w, _ = eigh_symmetric(m)
            assert w.sum() == pytest.approx(np.trace(m), abs=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        for m in [random_symmetric(rng, 5)] + DEGENERATE:
            w1, v1 = eigh_symmetric(m)
            w2, v2 = eigh_symmetric(m)
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(v1, v2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigh_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigh_symmetric(np.zeros((2, 3)))


class TestKMeans:
    def test_two_obvious_clusters(self):
        points = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0)])
        labels = kmeans(points, 2, seed=0)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_k_equals_n_singletons(self):
        rng = np.random.default_rng(37)
        points = rng.normal(size=(6, 3))
        labels = kmeans(points, 6, seed=1)
        assert sorted(labels) == list(range(6))
        inertia = sum(
            ((points[i] - points[labels == labels[i]].mean(axis=0)) ** 2).sum()
            for i in range(6)
        )
        assert inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_one(self):
        rng = np.random.default_rng(41)
        points = rng.normal(size=(10, 2))
        labels = kmeans(points, 1, seed=0)
        assert set(labels) == {0}

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        points = rng.normal(size=(40, 4))
        a = kmeans(points, 5, seed=9)
        b = kmeans(points, 5, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_k_greater_than_n(self):
        with pytest.raises(ValueError, match="more clusters than points"):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    @pytest.mark.parametrize(
        "k,seed,message",
        [(2.0, 0, "k must be an integer"), (True, 0, "k must be an integer"),
         (2, 0.5, "seed must be an integer"), (0, 0, "k must be at least 1"),
         (2, -1, "seed must be nonnegative")],  # -1 used to fail in numpy, naming no seed
    )
    def test_rejects_non_integer_k_and_seed(self, k, seed, message):
        with pytest.raises(ValueError, match=message):
            kmeans(np.zeros((3, 2)), k, seed)

    def test_lloyd_inertia_non_increasing(self, monkeypatch):
        # stop Lloyd after 1, 2, ... iterations: the inertia never rises
        rng = np.random.default_rng(47)
        points = rng.normal(size=(60, 3))
        init = points[rng.choice(60, size=4, replace=False)]
        history = []
        for iterations in range(1, 15):
            monkeypatch.setattr(numeric, "_MAX_LLOYD_ITERATIONS", iterations)
            history.append(_lloyd_runs(points, init[None].copy())[1][0])
        assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))
        assert history[-1] < history[0]


@st.composite
def kmeans_inputs(draw):
    """n 1-60 points in D 1-5, k up to min(n, 6), and a seed: spread, tied, all
    equal, row-normalized like a spectral embedding, or 1e-200 apart, whose
    squared gaps underflow to 0."""
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(n, 6)))
    kind = draw(st.sampled_from(["spread", "tied", "equal", "unit", "tiny"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "spread":
        points = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
    elif kind == "tied":
        points = rng.integers(-2, 3, size=(n, dim)).astype(float)
    elif kind == "equal":
        points = np.full((n, dim), rng.normal())
    elif kind == "unit":
        points = rng.normal(size=(n, dim))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    else:
        points = rng.integers(0, 3, size=(n, dim)) * 1e-200
    return points, k, draw(st.integers(0, 2**31))


# The points of a kmeans call (k = 3, seed 0) whose second restart empties a
# cluster in Lloyd's iterations.
EMPTYING = np.array([[0, 1], [0, 1], [4, 5], [1, 0], [3, 5], [5, 0]], dtype=float)


class TestBatchedKMeans:
    # the restarts run together; the labels must be those of running them
    # one after another, as tests/helpers.py does

    @settings(max_examples=300, deadline=None)
    @given(kmeans_inputs())
    def test_labels_equal_the_sequential_restarts(self, case):
        points, k, seed = case
        np.testing.assert_array_equal(kmeans(points, k, seed), sequential_kmeans(points, k, seed))

    @staticmethod
    def assert_restarts_match_bit_for_bit(points, k, seed):
        # labels alone hide a centre that is one ulp off; the centres drawn
        # and each run's inertia do not
        centers = numeric._plus_plus_runs(points, k, np.random.default_rng(seed), 10)
        rng = np.random.default_rng(seed)
        expected = np.array([sequential_plus_plus_init(points, k, rng) for _ in range(10)])
        np.testing.assert_array_equal(centers, expected)
        runs = [sequential_lloyd(points, run.copy()) for run in expected]
        labels, inertia = numeric._lloyd_runs(points, expected.copy())
        np.testing.assert_array_equal(labels, [run_labels for run_labels, _, _ in runs])
        assert inertia.tolist() == [run_inertia for _, run_inertia, _ in runs]

    @settings(max_examples=200, deadline=None)
    @given(kmeans_inputs())
    def test_seeding_and_lloyd_equal_the_sequential_restarts_bit_for_bit(self, case):
        points, k, seed = case
        self.assert_restarts_match_bit_for_bit(points, k, seed)

    @pytest.mark.parametrize("dim", [6, 8, 11])
    def test_restarts_equal_the_sequential_ones_in_more_dimensions(self, dim):
        # from D = 8 numpy sums each squared distance pairwise
        rng = np.random.default_rng(dim)
        for _ in range(20):
            points = rng.normal(size=(int(rng.integers(dim, 40)), dim))
            self.assert_restarts_match_bit_for_bit(points, 4, 3)
            np.testing.assert_array_equal(kmeans(points, 4, 3), sequential_kmeans(points, 4, 3))

    def test_a_cluster_emptied_mid_lloyd(self):
        rng = np.random.default_rng(0)
        seeds = np.array([sequential_plus_plus_init(EMPTYING, 3, rng) for _ in range(10)])
        runs = [sequential_lloyd(EMPTYING, centers.copy()) for centers in seeds]
        assert [revived > 0 for _, _, revived in runs] == [False, True] + [False] * 8
        labels, inertia = numeric._lloyd_runs(EMPTYING, seeds.copy())
        np.testing.assert_array_equal(labels, [run_labels for run_labels, _, _ in runs])
        assert inertia.tolist() == [run_inertia for _, run_inertia, _ in runs]
        np.testing.assert_array_equal(kmeans(EMPTYING, 3, 0), sequential_kmeans(EMPTYING, 3, 0))

    def test_no_mass_left_takes_the_lowest_unchosen_point(self):
        # every squared gap underflows to 0, so every step after the first
        # meets no mass; it still spends its uniform, as a choice draw would
        points = np.array([[0.0], [1e-200], [2e-200], [0.0]])
        rng = np.random.default_rng(5)
        centers = numeric._plus_plus_runs(points, 3, rng, 10)
        replay = np.random.default_rng(5)
        expected = []
        for _ in range(10):
            first = int(replay.integers(4))
            replay.random(2)
            expected.append([first] + [i for i in range(4) if i != first][:2])
        np.testing.assert_array_equal(centers, points[expected])
        assert rng.bit_generator.state == replay.bit_generator.state
        np.testing.assert_array_equal(kmeans(points, 3, 5), sequential_kmeans(points, 3, 5))

    def test_overflowing_gaps_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="squared gaps between points overflow"):
                kmeans([[1e200], [-1e200], [1e200], [-1e200]], 2, 0)

    def test_overflowing_gaps_raise_at_one_cluster(self):
        # k = 1 seeds no second centre, so Lloyd's distances used to overflow
        # with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="squared gaps between points overflow"):
                kmeans([[1e200], [-1e200]], 1, 0)


class TestKMeansInput:
    @pytest.mark.parametrize(
        "points", [[["1"], ["2"], ["3"]], [True, False, True], [1 + 2j, 3.0, 4.0], [b"1", b"2"]]
    )
    def test_rejects_non_real_points(self, points):
        # np.array(..., dtype=float) parsed the strings, read the bools as 1/0
        # and dropped the imaginary parts with a ComplexWarning
        with pytest.raises(ValueError, match="points must be real numbers, not"):
            kmeans(points, 2, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="non-finite point"):
            kmeans([[0.0], [1.0], [bad]], 2, 0)

    def test_integer_points_are_read_as_floats(self):
        points = np.array([[0, 0], [0, 1], [9, 9], [9, 8]], dtype=np.uint8)
        np.testing.assert_array_equal(kmeans(points, 2, 0), kmeans(points.astype(float), 2, 0))


class TestHungarian:
    def test_identity_favoring(self):
        cost = np.ones((3, 3)) - np.eye(3)
        assert hungarian(cost) == [0, 1, 2]

    def test_one_by_one(self):
        assert hungarian([[7.0]]) == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            cost = rng.normal(size=(n, n))
            perm = hungarian(cost)
            oracle_perm, oracle_total = brute_force_assignment(cost)
            total = sum(cost[i, perm[i]] for i in range(n))
            assert total == pytest.approx(oracle_total, abs=1e-9)
            assert perm == oracle_perm

    def test_lexicographic_tie_break(self):
        # every assignment costs 2; the smallest permutation must win
        assert hungarian(np.ones((4, 4)) * 0.5) == [0, 1, 2, 3]
        cost = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert hungarian(cost) == [0, 1]

    def test_tie_break_matches_oracle_on_integer_costs(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            perm = hungarian(cost)
            oracle_perm, _ = brute_force_assignment(cost)
            assert perm == oracle_perm

    def test_beats_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            cost = rng.normal(size=(5, 5))
            perm = hungarian(cost)
            best = sum(cost[i, perm[i]] for i in range(5))
            assert best <= np.trace(cost) + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            hungarian([[np.nan, 1.0], [1.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((2, 3)))


# Entries whose sums round in floats: small integers, multiples of a tenth
# (not binary fractions) and magnitudes spanning 10^-300 to 10^300.
COST_ENTRIES = {
    "integers": st.integers(-3, 3).map(float),
    "tenths": st.integers(-20, 20).map(lambda k: k / 10),
    "wide": st.builds(lambda m, e: m * 10.0**e, st.integers(-9, 9), st.integers(-300, 300)),
}


@st.composite
def cost_matrices(draw):
    n = draw(st.integers(1, 6))
    entries = COST_ENTRIES[draw(st.sampled_from(sorted(COST_ENTRIES)))]
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


class TestHungarianExact:
    # the solver must find the least exact cost and, among equal exact costs,
    # the first permutation; no float tolerance may call unequal costs tied

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_matches_exact_oracle(self, cost):
        assert hungarian(cost) == exact_assignment(cost)

    def test_far_apart_magnitudes_are_not_tied(self):
        # [0, 1] costs 1e300 + 1e290, within 1e-9 of the least cost 1e300
        cost = [[1e300, 1e300], [0.0, 1e290]]
        assert hungarian(cost) == exact_assignment(cost) == [1, 0]
