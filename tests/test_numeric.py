import numpy as np
import pytest

from wcpd import numeric
from wcpd.errors import NumericalError
from wcpd.numeric import _lloyd, eigh_symmetric, hungarian, kmeans

from helpers import brute_force_assignment


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(scale=scale, size=(n, n))
    return (m + m.T) / 2.0


# Repeated eigenvalues leave each eigenspace's basis to the solver's choice;
# the decomposition and the sign rule must hold whatever it picks.
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

    def test_sign_canonicalization_deterministic(self):
        rng = np.random.default_rng(31)
        for m in [random_symmetric(rng, 5)] + DEGENERATE:
            w1, v1 = eigh_symmetric(m)
            w2, v2 = eigh_symmetric(m)
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(v1, v2)
            for col in range(m.shape[0]):
                leading = v1[np.flatnonzero(np.abs(v1[:, col]) > 1e-12)[0], col]
                assert leading > 0

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
         (2, 0.5, "seed must be an integer")],
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
            history.append(_lloyd(points, init.copy())[1])
        assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))
        assert history[-1] < history[0]


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
