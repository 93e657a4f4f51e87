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
    ecdf_eval,
    quantile,
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


class TestEcdf:
    def test_two_of_three(self):
        assert ecdf_eval(uniform([1, 2, 3]), 2.0) == pytest.approx(2 / 3)

    def test_below_support(self):
        assert ecdf_eval(uniform([1, 2, 3]), 0.0) == 0.0

    def test_at_largest_atom(self):
        assert ecdf_eval(uniform([1, 2, 3]), 3.0) == 1.0

    def test_right_continuity(self):
        dist = uniform([0.0, 0.0, 1.0])
        assert ecdf_eval(dist, 0.0) == pytest.approx(2 / 3)

    def test_non_finite_point(self):
        with pytest.raises(ValueError):
            ecdf_eval(uniform([1]), np.nan)


class TestQuantile:
    def test_midpoint(self):
        assert quantile(uniform([1, 2, 3]), 0.5) == 2.0

    def test_top(self):
        assert quantile(uniform([1, 2, 3]), 1.0) == 3.0

    def test_bottom(self):
        assert quantile(uniform([1, 2, 3]), 1e-9) == 1.0

    def test_out_of_range(self):
        for u in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                quantile(uniform([1]), u)

    def test_zero_weight_atoms_skipped(self):
        dist = build_empirical([1, 2, 3], weights=[1, 0, 1])
        assert quantile(dist, 0.5) == 1.0
        assert quantile(dist, 0.6) == 3.0


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
        # kernel, ties and equal rows included
        monkeypatch.setattr(empirical, "_TABLE_MAX_ELEMENTS", table_max)
        rng = np.random.default_rng(m * 100 + n)
        xs = np.sort(rng.integers(0, 4, size=(20, m)).astype(float), axis=1)
        ys = np.sort(rng.integers(0, 4, size=(20, n)).astype(float), axis=1)
        if m == n:
            ys[::3] = xs[::3]
        expected = [empirical._w2t_from_sorted(x, y) for x, y in zip(xs, ys)]
        np.testing.assert_array_equal(empirical._w2t_rows(xs, ys), expected)


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


class TestNullConstants:
    def test_defaults(self):
        constants = NullConstants()
        assert constants.null_mean == 0.166
        assert constants.reject_threshold_05 == 0.462
        assert constants.alpha == 0.05

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            NullConstants(null_mean=0.5, reject_threshold_05=0.4)
