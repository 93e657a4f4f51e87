import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpd import empirical
from wcpd.empirical import (
    NULL,
    EmpiricalDist,
    NullConstants,
    build_empirical,
    w2t_statistic,
    wasserstein2,
)
from wcpd.simgen import DistSpec, sample

from helpers import lp_wasserstein2


def uniform(values):
    return build_empirical(values)


class TestBuildEmpirical:
    def test_sorts_and_normalizes(self):
        dist = build_empirical([3, 1, 2])
        np.testing.assert_array_equal(dist.support, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(dist.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_single_atom_weight(self):
        dist = build_empirical([0], weights=[5])
        np.testing.assert_array_equal(dist.support, [0.0])
        np.testing.assert_array_equal(dist.weights, [1.0])

    def test_duplicate_atoms_kept(self):
        dist = build_empirical([1, 1, 2], weights=[1, 1, 2])
        np.testing.assert_array_equal(dist.support, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(dist.weights, [0.25, 0.25, 0.5])

    def test_weights_follow_sort(self):
        dist = build_empirical([3, 1, 2], weights=[6, 1, 3])
        np.testing.assert_allclose(dist.weights, [0.1, 0.3, 0.6])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty distribution"):
            build_empirical([])

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="negative weight"):
            build_empirical([1, 2], weights=[1, -1])

    def test_non_finite_value(self):
        with pytest.raises(ValueError, match="non-finite sample"):
            build_empirical([1, np.nan])
        with pytest.raises(ValueError, match="non-finite sample"):
            build_empirical([1, np.inf])

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            build_empirical([1, 2], weights=[0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_empirical([1, 2], weights=[1])


class TestEmpiricalDistInvariants:
    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            EmpiricalDist(np.array([2.0, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            EmpiricalDist(np.array([1.0, 2.0]), np.array([0.5, 0.6]))

    def test_immutable_arrays(self):
        dist = uniform([1, 2, 3])
        with pytest.raises(ValueError):
            dist.support[0] = 10.0


class TestW2TStatistic:
    def test_identical_samples_zero(self):
        dist = uniform([0.3, -1.2, 4.0, 0.3])
        assert w2t_statistic(dist, dist) == 0.0

    def test_single_atoms_sixth(self):
        # hand integration: k = 1 on (0, 1], (1/2) * int (1-u)^2 du = 1/6
        assert w2t_statistic(uniform([0.0]), uniform([1.0])) == pytest.approx(1 / 6)

    def test_rejects_weighted_samples(self):
        weighted = build_empirical([1, 2], weights=[1, 3])
        with pytest.raises(ValueError, match="uniform samples"):
            w2t_statistic(weighted, uniform([1, 2]))

    def test_rank_invariance(self):
        # the statistic depends only on the relative order of the pooled samples
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=rng.integers(2, 30))
            y = rng.normal(size=rng.integers(2, 30))
            base = w2t_statistic(uniform(x), uniform(y))
            mapped = w2t_statistic(
                uniform(np.exp(x) + x), uniform(np.exp(y) + y)
            )
            assert mapped == pytest.approx(base, rel=1e-12)

    def test_null_mean_matches_reference(self):
        # 2000 two-sample draws under the null: the mean sits near 0.166
        spec = DistSpec("normal", 0.0, 1.0)
        values = np.empty(2000)
        for trial in range(2000):
            x = build_empirical(sample(spec, 200, 2 * trial))
            y = build_empirical(sample(spec, 200, 2 * trial + 1))
            values[trial] = w2t_statistic(x, y)
        assert abs(values.mean() - NULL.null_mean) < 0.02

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 12))
            y = rng.normal(size=rng.integers(1, 12))
            assert w2t_statistic(uniform(x), uniform(y)) >= 0.0



class TestW2TRows:
    @pytest.mark.parametrize("table_max", [empirical._TABLE_MAX_ELEMENTS, 0])
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (6, 2), (7, 7), (12, 9)])
    def test_matches_scalar_kernel(self, monkeypatch, table_max, m, n):
        # the cube table and the per-call cubes are bit-identical to the scalar
        # kernel, ties and equal rows included; the gather offsets depend on
        # the row count (the online step passes one row per dimension)
        monkeypatch.setattr(empirical, "_TABLE_MAX_ELEMENTS", table_max)
        rng = np.random.default_rng(m * 100 + n)
        for rows in (1, 3, 20):
            xs = np.sort(rng.integers(0, 4, size=(rows, m)).astype(float), axis=1)
            ys = np.sort(rng.integers(0, 4, size=(rows, n)).astype(float), axis=1)
            if m == n:
                ys[::3] = xs[::3]
            expected = [empirical._w2t_from_sorted(x, y) for x, y in zip(xs, ys)]
            np.testing.assert_array_equal(empirical._w2t_rows(xs, ys), expected)


def rank_keys(xs, ys):
    """Min-rank keys over all cells: 2*rank for x's, 2*rank + 1 for y's."""
    pooled = np.concatenate((xs.ravel(), ys.ravel()))
    ranks = np.sort(pooled).searchsorted(pooled).astype(np.uint16) << 1
    return ranks[: xs.size].reshape(xs.shape), (ranks[xs.size :] | 1).reshape(ys.shape)


class TestW2TKeys:
    @pytest.mark.parametrize("table_max", [empirical._TABLE_MAX_ELEMENTS, 0])
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (6, 2), (7, 7), (12, 9)])
    def test_matches_scalar_kernel(self, monkeypatch, table_max, m, n):
        # unsorted rows of tied values, ±0.0 among them; for m == n every
        # third y row is a permutation of its x row, so its statistic is 0
        monkeypatch.setattr(empirical, "_TABLE_MAX_ELEMENTS", table_max)
        rng = np.random.default_rng(m * 100 + n + 7)
        cells = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
        for rows in (1, 3, 20):
            xs = rng.choice(cells, size=(rows, m))
            ys = rng.choice(cells, size=(rows, n))
            if m == n:
                ys[::3] = rng.permuted(xs[::3], axis=1)
            expected = [
                empirical._w2t_from_sorted(np.sort(x), np.sort(y)) for x, y in zip(xs, ys)
            ]
            np.testing.assert_array_equal(empirical._w2t_keys(*rank_keys(xs, ys)), expected)

    def test_flatnonzero_reads_a_bool_mask(self, monkeypatch):
        # on the raw key array flatnonzero finds the same positions but runs
        # several times slower than on a bool mask
        seen = []
        flatnonzero = np.flatnonzero

        def spy(a):
            seen.append(np.asarray(a).dtype)
            return flatnonzero(a)

        monkeypatch.setattr(empirical.np, "flatnonzero", spy)
        rng = np.random.default_rng(5)
        empirical._w2t_keys(*rank_keys(rng.normal(size=(4, 6)), rng.normal(size=(4, 6))))
        assert seen and all(dtype == bool for dtype in seen)


class TestWasserstein2:
    def test_metric_identity(self):
        dist = build_empirical([1, 2, 5], weights=[1, 2, 1])
        assert wasserstein2(dist, dist) == 0.0

    def test_single_mass_transport(self):
        assert wasserstein2(uniform([0]), uniform([1])) == pytest.approx(1.0)

    def test_interleaved_pairs(self):
        # verified against the LP transport oracle on the 2x2 cost matrix
        a = uniform([0, 2])
        b = uniform([1, 3])
        assert wasserstein2(a, b) == pytest.approx(1.0)
        assert wasserstein2(a, b) == pytest.approx(lp_wasserstein2(a, b), rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = build_empirical(rng.normal(size=5), weights=rng.random(5) + 0.01)
            b = build_empirical(rng.normal(size=7), weights=rng.random(7) + 0.01)
            assert wasserstein2(a, b) == wasserstein2(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dists = [
                build_empirical(
                    rng.normal(scale=3.0, size=rng.integers(1, 8)),
                )
                for _ in range(3)
            ]
            a, b, c = dists
            assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-9

    def test_lp_oracle_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            na, nb = rng.integers(1, 9, size=2)
            a = build_empirical(rng.normal(size=na), weights=rng.random(na) + 1e-3)
            b = build_empirical(rng.normal(size=nb), weights=rng.random(nb) + 1e-3)
            mine = wasserstein2(a, b)
            oracle = lp_wasserstein2(a, b)
            assert abs(mine - oracle) <= 1e-9 * max(1.0, oracle)


@st.composite
def tied_weighted_dist(draw):
    """Integer atoms with ties and integer weights that include zeros."""
    n = draw(st.integers(1, 7))
    atoms = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    return build_empirical(atoms, weights=weights)


class TestWasserstein2Properties:
    @pytest.mark.parametrize("swap", [False, True])
    def test_zero_weight_top_atom_terminates(self, swap):
        # the running weight before the zero-weight top atom rounds to
        # 1.0000000000000002, one ulp above the pinned top
        a = build_empirical([0, 1, 2, 3, 4], weights=[1, 6, 3, 3, 0])
        b = build_empirical([0.5])
        assert a.cum_weights[-2] > 1.0
        if swap:
            a, b = b, a
        oracle = lp_wasserstein2(a, b)
        assert abs(wasserstein2(a, b) - oracle) <= 1e-9 * max(1.0, oracle)

    @settings(max_examples=60, deadline=None)
    @given(tied_weighted_dist(), tied_weighted_dist())
    def test_symmetric_and_matches_lp_oracle(self, a, b):
        forward = wasserstein2(a, b)
        assert forward == wasserstein2(b, a)
        oracle = lp_wasserstein2(a, b)
        assert abs(forward - oracle) <= 1e-9 * max(1.0, oracle)


    @settings(max_examples=60, deadline=None)
    @given(tied_weighted_dist(), st.lists(tied_weighted_dist(), min_size=1, max_size=5))
    def test_padded_block_rows_equal_single_pairs(self, a, others):
        # padding a row with its pinned top 1.0 and its last atom adds only
        # zero-width pieces, which leave the sequential sum's bits unchanged
        width = max(len(b) for b in others) + 2
        C = np.ones((len(others), width))
        X = np.empty((len(others), width))
        for r, b in enumerate(others):
            C[r, : len(b)] = b.cum_weights
            X[r] = b.support[-1]
            X[r, : len(b)] = b.support
        block = np.sqrt(empirical._w2_squared_rows(a.cum_weights, a.support, C, X))
        np.testing.assert_array_equal(block, [wasserstein2(a, b) for b in others])


class TestNullConstants:
    def test_defaults(self):
        constants = NullConstants()
        assert constants.null_mean == 0.166
        assert constants.reject_threshold_05 == 0.462
        assert constants.alpha == 0.05

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            NullConstants(null_mean=0.5, reject_threshold_05=0.4)
