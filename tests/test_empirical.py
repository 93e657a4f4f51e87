from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpd import empirical
from wcpd.empirical import (
    NULL,
    EmpiricalDist,
    _NullConstants as NullConstants,
    build_empirical,
    w2t_statistic,
    wasserstein2,
)
from wcpd.simgen import DistSpec, sample

from helpers import exact_w2t, lp_wasserstein2


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



class TestW2TFromSorted:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (6, 2), (7, 7), (12, 9), (30, 30)])
    def test_matches_exact_arithmetic(self, m, n):
        # tied values; the statistic is one exact integer divided once, so it
        # is the correctly rounded rational value
        rng = np.random.default_rng(m * 100 + n + 3)
        for _ in range(20):
            x = np.sort(rng.integers(0, 4, size=m).astype(float))
            y = np.sort(rng.integers(0, 4, size=n).astype(float))
            assert empirical._w2t_from_sorted(x, y) == float(exact_w2t(x, y))

    @pytest.mark.parametrize("m,n", [(10007, 9973), (9973, 10007)])
    def test_sums_beyond_int64(self, m, n):
        # coprime sizes near 1e4: with x wholly below y every a_j is near m*n,
        # and the integer sum passes 2**63
        x = np.arange(m, dtype=float)
        y = np.arange(n, dtype=float) + m
        a = m * n - np.arange(n) * m
        assert 3 * sum(v * (v - m) for v in a.tolist()) > 2**63
        assert empirical._w2t_from_sorted(x, y) == float(exact_w2t(x, y))
        rng = np.random.default_rng(m)
        x = np.sort(rng.integers(0, 50, size=m).astype(float))
        y = np.sort(rng.integers(10, 60, size=n).astype(float))
        assert empirical._w2t_from_sorted(x, y) == float(exact_w2t(x, y))


def exact_windows(n, seed):
    """Tied and continuous (rows, n) window pairs; some y rows repeat their x row."""
    rng = np.random.default_rng(seed)
    rows = 3 if n > 100 else 8
    tied = (rng.integers(0, 4, size=(rows, n)) * 1.0, rng.integers(0, 4, size=(rows, n)) * 1.0)
    smooth = (rng.normal(size=(rows, n)), rng.normal(0.3, 1.0, size=(rows, n)))
    for xs, ys in (tied, smooth):
        ys[::3] = rng.permuted(xs[::3], axis=1)
        yield xs, ys


def statistics(totals, n):
    """The exact statistics S/(6*n^2) of the int64 row totals of w2t_keys."""
    assert totals.dtype == np.int64
    return [Fraction(s, 6 * n * n) for s in totals.tolist()]


@pytest.mark.parametrize("n", [1, 2, 7, 12, 100, 1030])
class TestKernelsAreCorrectlyRounded:
    def test_keys(self, n):
        for xs, ys in exact_windows(n, n + 11):
            expected = [exact_w2t(np.sort(x), np.sort(y)) for x, y in zip(xs, ys)]
            assert statistics(w2t_keys(*rank_keys(xs, ys)), n) == expected

    def test_row(self, n):
        for xs, ys in exact_windows(n, n + 13):
            for x, y in zip(np.sort(xs, axis=1), np.sort(ys, axis=1)):
                assert Fraction(w2t_row(x, y), 6 * n * n) == exact_w2t(x, y)


class TestW2TRow:
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_matches_scalar_kernel(self, n):
        # the integer is exact, ties and equal rows included (the online step
        # passes one row per dimension)
        rng = np.random.default_rng(n * 101)
        for rows in (1, 3, 20):
            xs = np.sort(rng.integers(0, 4, size=(rows, n)).astype(float), axis=1)
            ys = np.sort(rng.integers(0, 4, size=(rows, n)).astype(float), axis=1)
            ys[::3] = xs[::3]
            for x, y in zip(xs, ys):
                assert Fraction(w2t_row(x, y), 6 * n * n) == exact_w2t(x, y)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    @pytest.mark.parametrize("rows", [1, 2, 3, 9])
    def test_stacks_sum_their_rows(self, n, rows):
        # one join and one dot over a (rows, n) stack give the sum of the rows'
        # S; rows of equal windows add 0, tied rows that only share a first
        # sample do not
        rng = np.random.default_rng(rows * 1000 + n)
        for tied in (True, False):
            draw = (lambda: rng.integers(0, 4, size=(rows, n)) * 1.0) if tied else (
                lambda: rng.normal(size=(rows, n))
            )
            xs, ys = np.sort(draw(), axis=1), np.sort(draw(), axis=1)
            for equal in ([], [0], list(range(0, rows, 2)), list(range(rows))):
                ys_mixed = ys.copy()
                ys_mixed[equal] = xs[equal]
                expected = sum(exact_w2t(x, y) for x, y in zip(xs, ys_mixed))
                total = w2t_row(xs, ys_mixed)
                assert Fraction(int(total), 6 * n * n) == expected


def w2t_row(xs, ys):
    """_w2t_row on sorted windows (n,), or on (rows, n) stacks of them matched row by row."""
    windows = np.stack((xs, ys), axis=-2).reshape(-1, 2, xs.shape[-1])
    return empirical._w2t_row(*empirical._row_views(windows))


def w2t_keys(xk, yk):
    """_w2t_keys on (R, n) key windows, with their gaps and a workspace of their size."""
    work = empirical._workspace(*empirical._w2t_parts(*xk.shape, xk.dtype))
    gaps = yk.sum(1, dtype=np.int64) - xk.sum(1, dtype=np.int64)
    return empirical._w2t_keys(xk, yk, gaps, work)


def rank_keys(xs, ys):
    """Min-rank keys over all cells: 2*rank for x's, 2*rank + 1 for y's."""
    pooled = np.concatenate((xs.ravel(), ys.ravel()))
    ranks = np.sort(pooled).searchsorted(pooled).astype(np.uint16) << 1
    return ranks[: xs.size].reshape(xs.shape), (ranks[xs.size :] | 1).reshape(ys.shape)


class TestRankKeys:
    def test_min_rank_keys_index_the_sorted_values(self):
        # -0.0 and 0.0 are equal values and share a key
        values = np.array([2.0, -0.0, 5.0, 0.0, 2.0])
        vals, keys = empirical._rank_keys(values)
        np.testing.assert_array_equal(keys, [4, 0, 8, 0, 4])
        np.testing.assert_array_equal(vals[keys >> 1], values)

    def test_keys_widen_past_16_bits(self):
        # 2*rank + 1 must fit the key type; it is never narrower than 16 bits
        assert empirical._rank_keys(np.zeros(3))[1].dtype == np.uint16
        assert empirical._rank_keys(np.zeros((1 << 15) - 1))[1].dtype == np.uint16
        assert empirical._rank_keys(np.zeros(1 << 15))[1].dtype == np.uint32


class TestW2TKeys:
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_matches_scalar_kernel(self, n):
        # unsorted rows of tied values, ±0.0 among them; every third y row is
        # a permutation of its x row, so its statistic is 0
        rng = np.random.default_rng(n * 101 + 7)
        cells = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
        for rows in (1, 3, 20):
            xs = rng.choice(cells, size=(rows, n))
            ys = rng.choice(cells, size=(rows, n))
            ys[::3] = rng.permuted(xs[::3], axis=1)
            expected = [exact_w2t(np.sort(x), np.sort(y)) for x, y in zip(xs, ys)]
            assert statistics(w2t_keys(*rank_keys(xs, ys)), n) == expected

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
        w2t_keys(*rank_keys(rng.normal(size=(4, 6)), rng.normal(size=(4, 6))))
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

    def test_finite_at_large_magnitudes(self):
        # the squared gaps overflow past ~1e154; W2^2 = (1e308 + 4e308) / 2
        a = build_empirical([0.0, 1e154])
        b = build_empirical([-1e154])
        assert wasserstein2(a, b) == pytest.approx(np.sqrt(2.5) * 1e154, rel=1e-15)
        assert wasserstein2(a, b) == wasserstein2(b, a)

    def test_power_of_two_scaling_is_exact(self):
        # scaled inputs take the 2**k path and must give the scaled distance
        rng = np.random.default_rng(23)
        for k in (400, 600, 1000):
            a = build_empirical(rng.normal(size=6), weights=rng.random(6) + 0.01)
            b = build_empirical(rng.normal(size=4), weights=rng.random(4) + 0.01)
            big_a = EmpiricalDist(np.ldexp(a.support, k), a.weights)
            big_b = EmpiricalDist(np.ldexp(b.support, k), b.weights)
            assert wasserstein2(big_a, big_b) == np.ldexp(wasserstein2(a, b), k)

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
        # padding a row with its last key and atom adds only zero-width
        # pieces, which leave the sequential sum's bits unchanged
        n = len(a)
        cums = np.concatenate([a.cum_weights, *(b.cum_weights for b in others)])
        atoms = np.concatenate([a.support, *(b.support for b in others)])
        vals, keys = empirical._weight_keys(cums)
        sizes = np.array([len(b) for b in others])
        last = (n + sizes.cumsum() - 1)[:, None]
        first = last - sizes[:, None] + 1
        rows = keys.take(np.minimum(first + np.arange(sizes.max() + 2), last))
        squared = empirical._w2_squared_rows(vals, keys[:n], a.support, rows, atoms, first, last)
        np.testing.assert_array_equal(np.sqrt(squared), [wasserstein2(a, b) for b in others])


def walked_w2_squared(a, b):
    """Squared W2 from a plain float walk over the merged breakpoints.

    The capped cumulative weights of a and b are merged with a's first on a
    tie. The piece ending at each breakpoint pairs the atoms of a and b
    counted before it, each clipped to its last atom, and du * gap**2 is
    added in merged order.
    """
    ua = np.minimum(a.cum_weights, 1.0).tolist()
    ub = np.minimum(b.cum_weights, 1.0).tolist()
    x, y = a.support.tolist(), b.support.tolist()
    n, m = len(x), len(y)
    total = prev = 0.0
    i = j = 0
    while i < n or j < m:
        gap = x[min(i, n - 1)] - y[min(j, m - 1)]
        if j == m or (i < n and ua[i] <= ub[j]):
            u, i = ua[i], i + 1
        else:
            u, j = ub[j], j + 1
        total += (u - prev) * (gap * gap)
        prev = u
    return total


def random_dist(rng):
    """Up to 40 atoms: tied integers or spread floats, uniform or with zero weights."""
    n = int(rng.integers(1, 41))
    atoms = rng.integers(-3, 4, size=n) if rng.random() < 0.5 else rng.normal(size=n) * 1e3
    if rng.random() < 0.3:
        return build_empirical(atoms)
    weights = rng.integers(0, 4, size=n)
    weights[rng.integers(n)] = 1
    return build_empirical(atoms, weights=weights)


class TestKernelSummationOrder:
    # numpy sums a contiguous run pairwise, which gives other bits than the
    # sequential walk on rows of more than 8 breakpoints

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_block_rows_equal_the_sequential_walk(self, count):
        rng = np.random.default_rng(count)
        for _ in range(60):
            a, *others = (random_dist(rng) for _ in range(count + 1))
            n = len(a)
            cums = np.concatenate([a.cum_weights, *(b.cum_weights for b in others)])
            atoms = np.concatenate([a.support, *(b.support for b in others)])
            vals, keys = empirical._weight_keys(cums)
            sizes = np.array([len(b) for b in others])
            last = (n + sizes.cumsum() - 1)[:, None]
            first = last - sizes[:, None] + 1
            # each row padded with its last key, two beyond the longest row
            rows = keys.take(np.minimum(first + np.arange(sizes.max() + 2), last))
            squared = empirical._w2_squared_rows(vals, keys[:n], a.support, rows, atoms, first, last)
            assert squared.tolist() == [walked_w2_squared(a, b) for b in others]

    def test_wasserstein2_is_the_root_of_the_walk(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_dist(rng), random_dist(rng)
            assert wasserstein2(a, b) == np.sqrt(walked_w2_squared(a, b))


class TestNullConstants:
    def test_defaults(self):
        constants = NullConstants()
        assert constants.null_mean == 0.166
        assert constants.reject_threshold_05 == 0.462

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            NullConstants(null_mean=0.5, reject_threshold_05=0.4)
