import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpd import cpd, simgen
from wcpd.cpd import (
    DEFAULT_CHANGE_PAIRS,
    DetectorConfig,
    MatchedFilter,
    OnlineDetector,
    StatTrace,
    _taps_from_signature,
    apply_filter,
    detect,
    detect_peaks,
    estimate_matched_filter,
    load_filter,
    save_filter,
    sliding_statistic,
)
from wcpd.empirical import NULL, build_empirical, w2t_statistic
from wcpd.errors import NumericalError
from wcpd.metrics import cp_f1
from wcpd.series import TimeSeries
from wcpd.simgen import DistSpec, SeriesSpec, generate

from helpers import exact_w2t, member_by_member_filter, tap_order_filter


def make_trace(values, beta, filtered=False):
    arr = np.asarray(values, dtype=float)
    padded = np.concatenate([np.full(beta, np.nan), arr, np.full(beta, np.nan)])
    return StatTrace(padded, beta=beta, filtered=filtered)


def mean_shift_series(seed=42, left=200, right=200, shift=3.0):
    return generate(
        SeriesSpec(
            segments=(
                (DistSpec("normal", 0.0, 1.0), left),
                (DistSpec("normal", shift, 1.0), right),
            ),
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def filter_b50():
    return estimate_matched_filter(beta=50, ensemble_size=60, seed=77)


@pytest.fixture(scope="module")
def filter_b100():
    return estimate_matched_filter(beta=100, ensemble_size=40, seed=78)


@pytest.fixture(scope="module")
def filter_b25():
    return estimate_matched_filter(beta=25, ensemble_size=40, seed=21)


HUGE = np.finfo(np.longdouble).max  # beyond float64 where longdouble is wider


class TestStatTrace:
    def test_flags_warmup(self):
        trace = make_trace([1.0, 2.0, 3.0], beta=2)
        assert len(trace) == 7
        assert trace.valid_mask.sum() == 3

    def test_rejects_unflagged_warmup(self):
        with pytest.raises(ValueError, match="warm-up"):
            StatTrace(np.ones(10), beta=2)

    @pytest.mark.parametrize("beta", [3.0, "3", None])
    def test_rejects_non_integer_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be an integer"):
            StatTrace(np.full(10, np.nan), beta=beta)

    def test_stores_numpy_integer_beta_as_int(self):
        trace = StatTrace(np.full(10, np.nan), beta=np.int32(3))
        assert trace.beta == 3 and type(trace.beta) is int


class TestSlidingStatistic:
    @pytest.mark.parametrize("beta", [3.0, 3.5, "3"])
    def test_rejects_non_integer_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be an integer"):
            sliding_statistic(TimeSeries(np.arange(20.0)), beta)

    def test_constant_series_zero(self):
        series = TimeSeries(np.full(40, 3.14))
        trace = sliding_statistic(series, beta=6)
        valid = trace.values[trace.valid_mask]
        assert valid.size == 40 - 12
        assert np.all(valid == 0.0)

    def test_mean_shift_argmax(self):
        series = mean_shift_series(seed=42)
        trace = sliding_statistic(series, beta=50)
        assert abs(int(np.nanargmax(trace.values)) - 200) <= 10
        assert np.nanmin(trace.values) >= 0.0

    def test_two_dimensional_average(self):
        base = mean_shift_series(seed=5)
        data = np.column_stack([np.full(len(base), 7.0), base.data[:, 0]])
        trace_2d = sliding_statistic(TimeSeries(data), beta=30)
        trace_1d = sliding_statistic(base, beta=30)
        np.testing.assert_array_equal(trace_2d.values, trace_1d.values / 2.0)

    def test_mean_over_dimensions_is_rounded_once(self):
        # the statistics 1/24, 2/3 and 1/24 average to exactly 1/4; rounding
        # each one and then their float sum gives 0.24999999999999997
        data = np.array([
            [0, 2, 4, 4, 0, 4, 3, 2, 0],
            [1, 1, 1, 0, 0, 1, 3, 2, 1],
            [0, 3, 2, 3, 2, 3, 1, 1, 2],
        ], dtype=float).T
        per_dim = [
            exact_w2t(np.sort(data[:4, k]), np.sort(data[5:, k])) for k in range(3)
        ]
        assert per_dim == [Fraction(1, 24), Fraction(2, 3), Fraction(1, 24)]
        assert np.mean([float(v) for v in per_dim]) != 0.25
        assert sliding_statistic(TimeSeries(data), beta=4).values[4] == 0.25
        detector = OnlineDetector(DetectorConfig(beta=4))
        for sample in data:
            detector.step(sample)
        assert detector._sigma[4] == 0.25

    def test_too_short(self):
        with pytest.raises(ValueError, match="series too short"):
            sliding_statistic(TimeSeries(np.zeros(20)), beta=10)

    def test_translation_equivariance(self):
        series = mean_shift_series(seed=8, left=80, right=80)
        shifted = TimeSeries(series.data + 123.456)
        a = sliding_statistic(series, beta=20)
        b = sliding_statistic(shifted, beta=20)
        np.testing.assert_array_equal(a.values, b.values)

    def test_matches_bruteforce_windows(self):
        # incremental sorted windows agree with independently sorted slices
        from wcpd.empirical import _w2t_from_sorted

        rng = np.random.default_rng(3)
        data = rng.normal(size=60)
        beta = 8
        trace = sliding_statistic(TimeSeries(data), beta=beta)
        for t in range(beta, 60 - beta):
            before = np.sort(data[t - beta : t])
            after = np.sort(data[t + 1 : t + beta + 1])
            assert trace.values[t] == _w2t_from_sorted(before, after)


def exact_mean(data, t, beta):
    """Exact mean over dimensions of the statistic at t, independently sorted windows."""
    dim = data.shape[1]
    return sum(
        exact_w2t(np.sort(data[t - beta : t, k]), np.sort(data[t + 1 : t + beta + 1, k]))
        for k in range(dim)
    ) / dim


def reference_trace(data, beta):
    """The correctly rounded exact mean over dimensions at every valid index."""
    T = data.shape[0]
    values = np.full(T, np.nan)
    for t in range(beta, T - beta):
        values[t] = float(exact_mean(data, t, beta))
    return values


@st.composite
def integer_series(draw):
    """Small integer-valued (T, d) data with ±0.0, so windows are full of ties."""
    beta = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    T = draw(st.integers(2 * beta + 1, 2 * beta + 30))
    values = st.one_of(st.integers(-3, 3), st.sampled_from([-0.0, 0.0]))
    cells = draw(st.lists(values, min_size=T * dim, max_size=T * dim))
    return np.array(cells, dtype=float).reshape(T, dim), beta


class TestSlidingProperties:
    @settings(max_examples=40, deadline=None)
    @given(integer_series())
    def test_matches_sorted_window_reference(self, case):
        data, beta = case
        trace = sliding_statistic(TimeSeries(data), beta)
        assert np.array_equal(trace.values, reference_trace(data, beta), equal_nan=True)

    @settings(max_examples=40, deadline=None)
    @given(integer_series(), st.sampled_from([lambda x: 3.0 * x + 7.0, lambda x: x**3]))
    def test_rank_invariance(self, case, increasing):
        # both maps are strictly increasing and exact on small integers
        data, beta = case
        base = sliding_statistic(TimeSeries(data), beta)
        mapped = sliding_statistic(TimeSeries(increasing(data)), beta)
        assert np.array_equal(base.values, mapped.values, equal_nan=True)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunking_does_not_change_trace(self, monkeypatch, chunk):
        # 7 // 9 and 1 // 9 give chunks of one position, shorter than beta;
        # 100 // 9 = 11 positions per chunk, with a ragged last chunk
        rng = np.random.default_rng(chunk)
        data = rng.integers(0, 6, size=(75, 2)).astype(float)
        monkeypatch.setattr(cpd, "_CHUNK_ELEMENTS", chunk)
        trace = sliding_statistic(TimeSeries(data), beta=9)
        assert np.array_equal(trace.values, reference_trace(data, 9), equal_nan=True)

    def test_wide_windows_sorted_apart(self):
        # at beta = 130 a default chunk holds fewer positions than beta, so the
        # before and after rows of a chunk do not overlap; the last chunk is ragged
        rng = np.random.default_rng(130)
        data = rng.integers(0, 6, size=(561, 2)).astype(float)
        assert cpd._CHUNK_ELEMENTS // 130 <= 130
        trace = sliding_statistic(TimeSeries(data), beta=130)
        assert np.array_equal(trace.values, reference_trace(data, 130), equal_nan=True)

    def test_windows_of_a_thousand_samples(self):
        # beta = 1030: every index matches the scalar kernel bitwise
        from wcpd.empirical import _w2t_from_sorted

        beta = 1030
        rng = np.random.default_rng(1030)
        data = rng.integers(0, 50, size=2 * beta + 61).astype(float)
        trace = sliding_statistic(TimeSeries(data[:, None]), beta)
        for t in range(beta, data.size - beta):
            before = np.sort(data[t - beta : t])
            after = np.sort(data[t + 1 : t + beta + 1])
            assert trace.values[t] == _w2t_from_sorted(before, after)

    @pytest.mark.parametrize(
        "data,beta,expected",
        [
            # the windows are permutations of each other: exactly zero
            ([3, 1, 2, 9, 2, 3, 1], 3, 0.0),
            # every x_(j) <= y_(j), but the rank sums differ
            ([0, 0, 1, 5, 0, 1, 1], 3, 0.2778),
            # equal rank sums, but x_(1) > y_(1)
            ([0, 3, 9, 1, 2], 2, 0.0833),
        ],
    )
    def test_equal_window_zeroing(self, data, beta, expected):
        data = np.array(data, dtype=float)[:, None]
        trace = sliding_statistic(TimeSeries(data), beta)
        assert np.array_equal(trace.values, reference_trace(data, beta), equal_nan=True)
        assert trace.values[beta] == pytest.approx(expected, abs=1e-4)

    def test_long_series_widens_keys(self):
        # at T > 2**15 the rank keys 2*rank + 1 no longer fit 16 bits; rounded
        # normals keep ties and put the top ranks above 2**15
        T, beta = (1 << 15) + 100, 40
        rng = np.random.default_rng(15)
        data = rng.normal(size=T).round(1)
        assert np.sort(data).searchsorted(data).max() >= 1 << 15
        trace = sliding_statistic(TimeSeries(data[:, None]), beta)
        for t in rng.choice(np.arange(beta, T - beta), size=500, replace=False):
            expected = w2t_statistic(
                build_empirical(data[t - beta : t]), build_empirical(data[t + 1 : t + beta + 1])
            )
            assert trace.values[t] == expected


def periodic(rng, beta, dim, cells, periods):
    """Blocks of beta + 1 samples drawn from cells, each repeated periods times.

    Inside a block every window is equal: the before and after windows of an
    index are both one period without the sample at the index.
    """
    blocks = [np.tile(rng.choice(cells, size=(beta + 1, dim)), (count, 1)) for count in periods]
    return np.concatenate(blocks)


def equal_rank_sums(data, beta):
    """Indices of a flat series whose before and after windows have equal rank sums."""
    ranks = np.sort(data).searchsorted(data)
    return [
        t
        for t in range(beta, data.size - beta)
        if ranks[t - beta : t].sum() == ranks[t + 1 : t + beta + 1].sum()
    ]


class TestEqualWindows:
    """The scan zeroes exactly the equal windows, which it finds from rank-sum gaps."""

    CELLS = np.array([-1.0, -0.0, 0.0, 1.0, 2.0, 3.5])

    @pytest.mark.parametrize("beta,dim", [(1, 1), (3, 1), (5, 2), (12, 3)])
    def test_period_beta_plus_one_is_zero_everywhere(self, beta, dim):
        rng = np.random.default_rng(beta * 10 + dim)
        for cells in (self.CELLS, rng.normal(size=4 * beta)):
            data = periodic(rng, beta, dim, cells, [6])
            trace = sliding_statistic(TimeSeries(data), beta)
            assert np.array_equal(trace.values, reference_trace(data, beta), equal_nan=True)
            assert (trace.values[trace.valid_mask] == 0.0).all()

    def test_tied_rank_sums_of_unequal_windows_are_not_zeroed(self):
        # before {1, 4} and after {2, 3} have equal rank sums, but x_(1) = 4
        # lies above y_(1) = 3, so the windows differ and the statistic is not 0
        beta = 2
        data = np.tile([1.0, 4.0, 9.0, 2.0, 3.0], 8)
        ties = [
            t
            for t in equal_rank_sums(data, beta)
            if not np.array_equal(np.sort(data[t - beta : t]), np.sort(data[t + 1 : t + beta + 1]))
        ]
        assert 2 in ties and len(ties) >= 8
        trace = sliding_statistic(TimeSeries(data[:, None]), beta)
        assert np.array_equal(trace.values, reference_trace(data[:, None], beta), equal_nan=True)
        assert (trace.values[ties] > 0.0).all()

    @pytest.mark.parametrize(
        "chunk,beta,T,dim",
        [(7, 3, 70, 2), (16, 3, 70, 2), (16, 2, 7, 3), (7, 2, 6, 3), (1, 4, 40, 1)],
    )
    def test_ties_and_signed_zeros_across_chunks(self, monkeypatch, chunk, beta, T, dim):
        # periodic stretches of tied cells, ±0.0 among them, between random
        # ones; (16, 2, 7, 3) scans two rows per chunk
        rng = np.random.default_rng(chunk * 100 + T)
        data = np.concatenate(
            [
                periodic(rng, beta, dim, self.CELLS, [3, 2]),
                rng.choice(self.CELLS, size=(beta + 2, dim)),
                periodic(rng, beta, dim, self.CELLS, [4]),
            ]
        )[:T]
        monkeypatch.setattr(cpd, "_CHUNK_ELEMENTS", chunk)
        trace = sliding_statistic(TimeSeries(data), beta)
        assert np.array_equal(trace.values, reference_trace(data, beta), equal_nan=True)
        # every window inside the first block (three periods) is equal
        assert (trace.values[beta : min(T, 3 * (beta + 1)) - beta] == 0.0).all()

    def test_uint32_key_row(self):
        beta = 4
        rng = np.random.default_rng(32)
        data = np.concatenate(
            [periodic(rng, beta, 1, self.CELLS, [3]), rng.choice(self.CELLS, size=(20, 1))]
        )
        keys = cpd._rank_keys(data.T)[1]
        assert keys.dtype == np.uint16
        sums = cpd._window_sums(keys.astype(np.uint32), beta)
        assert np.array_equal(sums, cpd._window_sums(keys, beta))
        expected = reference_trace(data, beta)[beta:-beta]
        assert np.array_equal(sums[0] / (6 * beta * beta), expected)
        assert (sums[0, : beta + 1] == 0).all()

    def test_equality_check_reads_one_gap_per_window(self, monkeypatch):
        # the kernel gets one gap per window and reads the beta counts of a
        # window only when its gap is beta: none on continuous data, and on a
        # periodic block before continuous data those of its equal windows
        # and of the few others whose rank sums tie
        gaps_seen, counts_read = [], []
        kernel, greater = cpd._w2t_keys, np.greater

        def kernel_spy(xk, yk, gaps, work):
            assert gaps.size == xk.size // xk.shape[-1]
            gaps_seen.append(gaps.size)
            return kernel(xk, yk, gaps, work)

        def greater_spy(a, *args, **kwargs):
            counts_read.append(np.size(a))
            return greater(a, *args, **kwargs)

        monkeypatch.setattr(cpd, "_w2t_keys", kernel_spy)
        monkeypatch.setattr(np, "greater", greater_spy)
        beta = 20
        rng = np.random.default_rng(20)
        mixed = np.concatenate(
            [periodic(rng, beta, 2, rng.normal(size=50), [10]), rng.normal(size=(300, 2))]
        ).T
        for data in (rng.normal(size=(2, 600)), mixed):
            gaps_seen.clear()
            counts_read.clear()
            sums = cpd._window_sums(cpd._rank_keys(data)[1], beta)
            assert sum(gaps_seen) == sums.size
            ties = sum(len(equal_rank_sums(row, beta)) for row in data)
            assert sum(counts_read) == ties * beta
        assert 2 * (210 - 2 * beta) <= ties < sums.size // 2

    @pytest.mark.parametrize("dim, mixed", [(1, False), (3, False), (3, True)])
    def test_online_matches_offline_on_periodic_stream(self, monkeypatch, dim, mixed):
        # mixed: dimension 0 repeats with period beta + 1 throughout and the
        # other two are normal draws with a shift, so every step joins the
        # counts of two rows of three against a shorter ramp
        beta = 6
        rng = np.random.default_rng(dim)
        data = np.concatenate(
            [
                periodic(rng, beta, dim, self.CELLS, [5, 4]),
                rng.normal(size=(3 * beta, dim)),
                periodic(rng, beta, dim, rng.normal(size=10), [5]),
            ]
        )
        if mixed:
            data[:, 0] = np.resize(rng.normal(size=beta + 1), len(data))
            data[:, 1:] = rng.normal(size=(len(data), 2))
            data[len(data) // 2 :, 1:] += 2.5
        streamed = []
        advance = OnlineDetector._advance

        def advance_spy(self, i, value):
            streamed.append(value)
            return advance(self, i, value)

        monkeypatch.setattr(OnlineDetector, "_advance", advance_spy)
        config = DetectorConfig(beta=beta)
        detector = OnlineDetector(config)
        confirmed = [cp for cp in map(detector.step, data) if cp is not None]
        sigma = streamed.copy()
        confirmed += detector.finalize()
        offline = detect(TimeSeries(data), config)
        assert np.array_equal(sigma, offline.raw.values[beta:-beta])
        if mixed:
            alone = sliding_statistic(TimeSeries(data[:, :1]), beta).values[beta:-beta]
            assert (alone == 0.0).all() and (offline.raw.values[beta:-beta] > 0.0).all()
        else:
            assert (offline.raw.values[beta : 2 * beta + 1] == 0.0).all()
        assert confirmed == offline.change_points and confirmed


class TestEstimateMatchedFilter:
    def test_unit_area_and_zero_ends(self, filter_b50):
        assert abs(filter_b50.taps.sum() - 1.0) <= 1e-9
        assert filter_b50.taps[0] == 0.0
        assert filter_b50.taps[-1] == 0.0
        assert filter_b50.gamma > 0.0

    def test_peak_near_center(self, filter_b50):
        beta = filter_b50.beta
        peak_offset = int(np.argmax(filter_b50.taps)) - beta
        assert abs(peak_offset) <= beta // 4
        # central mass dominates the flanks
        center = filter_b50.taps[beta - beta // 4 : beta + beta // 4 + 1].sum()
        assert center > 0.5

    def test_single_member_huge_shift(self):
        pair = ((DistSpec("normal", 0.0, 1.0), DistSpec("normal", 10.0, 1.0)),)
        filt = estimate_matched_filter(beta=20, ensemble_size=1, change_pairs=pair, seed=2)
        assert abs(int(np.argmax(filt.taps)) - 20) <= 2

    ODD_PAIRS = (
        (DistSpec("laplace", 0.0, 2.0), DistSpec("normal", 1.0, 0.5)),
        (DistSpec("normal", 0.0, 1.0), DistSpec("normal", 1e300, 1.0)),
        (DistSpec("laplace", 3.0, 1e-3), DistSpec("laplace", 3.0, 1e-3)),
    )

    @pytest.mark.parametrize("beta", [2, 3, 5, 17, 50])
    @pytest.mark.parametrize("ensemble_size", [1, 2, 7, 41])
    @pytest.mark.parametrize("pairs", ["default", "odd"])
    @pytest.mark.parametrize("group", [None, 3])
    def test_batched_calibration_equals_member_by_member(
        self, monkeypatch, beta, ensemble_size, pairs, group
    ):
        # groups of three members put group boundaries inside a pair
        if group is not None:
            monkeypatch.setattr(cpd, "_CHUNK_ELEMENTS", group * (4 * beta + 1) + 1)
        change_pairs = DEFAULT_CHANGE_PAIRS if pairs == "default" else self.ODD_PAIRS
        filt = estimate_matched_filter(beta, ensemble_size, change_pairs, seed=beta)
        taps, gamma = member_by_member_filter(beta, ensemble_size, change_pairs, seed=beta)
        assert filt.taps.tobytes() == taps.tobytes()
        assert filt.gamma == gamma

    def test_calibration_memory_does_not_grow_with_the_ensemble(self):
        # members go through in groups: at these settings a calibration that
        # holds every member's windows at once peaks near 17.6 MiB, and one
        # that takes one member at a time near 0.54 MiB
        estimate_matched_filter(100, 1, seed=0)
        tracemalloc.start()
        try:
            estimate_matched_filter(100, 200, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 2**20

    def test_rejects_a_pair_of_non_specs(self):
        with pytest.raises(ValueError, match="DistSpec instances"):
            estimate_matched_filter(5, 1, [(DistSpec("normal"), "normal")])

    @pytest.mark.parametrize(
        "pair",
        [(DistSpec("normal"),) * 3, 5, (DistSpec("normal"),)],
        ids=["three-specs", "not-iterable", "one-spec"],
    )
    def test_rejects_a_pair_that_is_not_two_specs_naming_it(self, pair):
        # a triple failed unpacking, with no pair named; a non-iterable in a bare TypeError
        pairs = [(DistSpec("normal"), DistSpec("laplace")), pair]
        with pytest.raises(ValueError, match="change pair 1 must be two DistSpec instances"):
            estimate_matched_filter(5, 1, pairs)

    def test_deterministic(self):
        a = estimate_matched_filter(beta=10, ensemble_size=5, seed=4)
        b = estimate_matched_filter(beta=10, ensemble_size=5, seed=4)
        np.testing.assert_array_equal(a.taps, b.taps)

    @pytest.mark.parametrize("beta", [3.0, "3"])
    def test_rejects_non_integer_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be an integer"):
            estimate_matched_filter(beta, ensemble_size=1)

    @pytest.mark.parametrize("field, value", [("ensemble_size", 2.5), ("ensemble_size", "x"),
                                              ("ensemble_size", True), ("seed", 2.5),
                                              ("seed", "x"), ("seed", True)])
    def test_rejects_non_integer_ensemble_size_and_seed(self, monkeypatch, field, value):
        def refuse(spec, n, entropies):
            raise AssertionError("a member was simulated")

        monkeypatch.setattr(simgen, "_draw", refuse)
        options = {"ensemble_size": 1, "seed": 0, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, not {value!r}")):
            estimate_matched_filter(5, **options)

    # 10**15 asks for 14 PiB, which no address space holds, and 10**20 is past
    # numpy's dimension limit, so both fail under every overcommit mode
    @pytest.mark.parametrize("beta", [10**15, 10**20])
    def test_beta_too_large_to_allocate_raises_memory_error(self, beta):
        with pytest.raises(MemoryError):
            estimate_matched_filter(beta, ensemble_size=1)

    def test_accepts_numpy_integer_ensemble_size_and_seed(self):
        filt = estimate_matched_filter(5, ensemble_size=np.int64(3), seed=np.int64(4))
        assert (filt.ensemble_size, filt.seed) == (3, 4)
        assert type(filt.ensemble_size) is int and type(filt.seed) is int
        expected = estimate_matched_filter(5, ensemble_size=3, seed=4)
        np.testing.assert_array_equal(filt.taps, expected.taps)

    @pytest.mark.parametrize("beta", [3.0, 3.5, "3"])
    def test_filter_rejects_non_integer_beta(self, beta):
        # 3.0 == 3, so a float beta used to pass DetectorConfig's match check
        with pytest.raises(ValueError, match="beta must be an integer"):
            MatchedFilter(taps=np.full(7, 1 / 7), beta=beta, gamma=1.0, ensemble_size=1)

    def test_filter_stores_numpy_integer_beta_as_int(self):
        filt = MatchedFilter(taps=np.full(7, 1 / 7), beta=np.int64(3), gamma=1.0, ensemble_size=1)
        assert filt.beta == 3 and type(filt.beta) is int
        assert DetectorConfig(beta=3, filter=filt).filter is filt

    def test_no_signal_raises(self):
        flat = np.full(11, NULL.null_mean - 0.05)
        with pytest.raises(NumericalError, match="no signal above null mean"):
            _taps_from_signature(flat)

    def test_default_pairs_shape(self):
        assert len(DEFAULT_CHANGE_PAIRS) == 3
        families = [after.family for _, after in DEFAULT_CHANGE_PAIRS]
        assert families == ["normal", "normal", "laplace"]


class TestApplyFilter:
    def test_constant_trace_maps_to_itself(self, filter_b50):
        trace = make_trace(np.full(300, NULL.null_mean), beta=50)
        out = apply_filter(trace, filter_b50)
        valid = out.values[out.valid_mask]
        np.testing.assert_allclose(valid, NULL.null_mean, rtol=1e-12)
        assert out.filtered

    def test_generic_constant_in_deep_interior(self, filter_b50):
        # unit area maps any constant to itself wherever no padding reaches
        trace = make_trace(np.full(400, 0.8), beta=50)
        out = apply_filter(trace, filter_b50)
        deep = out.values[100:400]
        np.testing.assert_allclose(deep, 0.8, rtol=1e-12)

    def test_impulse_response(self):
        beta = 2
        taps = np.array([0.0, 0.5, 0.3, 0.2, 0.0])
        filt = MatchedFilter(taps=taps, beta=beta, gamma=1.0, ensemble_size=1)
        values = np.zeros(30)
        t0 = 15
        values[t0] = 1.0
        trace = make_trace(values[beta:-beta], beta=beta)
        out = apply_filter(trace, filt)
        for k in range(-beta, beta + 1):
            assert out.values[t0 + k] == taps[k + beta]

    def test_localization_and_false_positive_reduction(self, filter_b50):
        series = mean_shift_series(seed=42)
        raw = sliding_statistic(series, beta=50)
        filtered = apply_filter(raw, filter_b50)
        assert abs(int(np.nanargmax(filtered.values)) - 200) <= 5
        raw_peaks = detect_peaks(raw, NULL.reject_threshold_05)
        filtered_peaks = detect_peaks(filtered, NULL.reject_threshold_05)
        assert len(filtered_peaks) < len(raw_peaks)

    @pytest.mark.parametrize("beta", [1, 2, 3, 5, 15, 50])
    def test_sums_in_tap_order(self, beta):
        # bit for bit the plain-Python sum s += rev[k] * w[k], k = 0..2*beta,
        # for short filters (numpy's own correlate loop) and long ones (BLAS)
        rng = np.random.default_rng(beta)
        taps = rng.random(2 * beta + 1)
        filt = MatchedFilter(taps=taps / taps.sum(), beta=beta, gamma=1.0, ensemble_size=1)
        trace = make_trace(rng.random(8 * beta + 40), beta=beta)
        out = apply_filter(trace, filt)
        expected = tap_order_filter(trace.values.tolist(), filt.taps.tolist(), beta)
        assert out.values.tolist()[beta:-beta] == expected[beta:-beta]

    def test_beta_mismatch(self, filter_b50):
        trace = make_trace(np.zeros(100), beta=20)
        with pytest.raises(ValueError, match="does not match"):
            apply_filter(trace, filter_b50)

    def test_rejects_double_filtering(self, filter_b50):
        trace = make_trace(np.zeros(200), beta=50, filtered=True)
        with pytest.raises(ValueError, match="already filtered"):
            apply_filter(trace, filter_b50)


class TestDetectPeaks:
    def test_single_peak(self):
        trace = make_trace([0.0, 1.0, 0.0], beta=1)
        assert detect_peaks(trace, 0.5) == [2]

    def test_monotone_has_no_peaks(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0], beta=1)
        assert detect_peaks(trace, 0.0) == []

    def test_threshold_screens(self):
        trace = make_trace([0.0, 0.4, 0.0, 0.6, 0.0], beta=1)
        assert detect_peaks(trace, NULL.reject_threshold_05) == [4]

    def test_monotone_threshold_nesting(self):
        rng = np.random.default_rng(15)
        trace = make_trace(rng.random(200), beta=3)
        low = set(detect_peaks(trace, 0.2))
        high = set(detect_peaks(trace, 0.7))
        assert high <= low


class TestDetect:
    def test_constant_series(self, filter_b50):
        series = TimeSeries(np.full(400, 1.0))
        config = DetectorConfig(beta=50, filter=filter_b50)
        assert detect(series, config).change_points == []

    def test_four_segment_synthetic(self, filter_b100):
        series = generate(
            SeriesSpec(
                segments=(
                    (DistSpec("normal", 0.0, 1.0), 400),
                    (DistSpec("normal", 2.0, 1.0), 400),
                    (DistSpec("normal", 0.0, 1.0), 400),
                    (DistSpec("normal", 0.0, 3.0), 400),
                ),
                seed=12,
            )
        )
        config = DetectorConfig(beta=100, lam=NULL.reject_threshold_05, filter=filter_b100)
        result = detect(series, config)
        _, _, f1 = cp_f1(result.change_points, [400, 800, 1200], delta=25)
        assert f1 == 1.0

    def test_huge_threshold_silences(self, filter_b100):
        series = mean_shift_series(seed=9, left=300, right=300)
        config = DetectorConfig(beta=100, lam=10.0, filter=filter_b100)
        assert detect(series, config).change_points == []

    def test_unfiltered_mode(self):
        series = mean_shift_series(seed=10, left=150, right=150)
        config = DetectorConfig(beta=40, lam=NULL.reject_threshold_05, filter=None)
        result = detect(series, config)
        assert result.filtered is None
        assert result.change_points == detect_peaks(result.raw, config.lam)

    def test_config_validation(self, filter_b50):
        with pytest.raises(ValueError):
            DetectorConfig(beta=1)
        with pytest.raises(ValueError, match="does not match"):
            DetectorConfig(beta=60, filter=filter_b50)

    @pytest.mark.parametrize("beta", [3.0, 3.5, "3", None])
    def test_config_rejects_non_integer_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be an integer"):
            DetectorConfig(beta=beta)

    @pytest.mark.parametrize("lam", ["0.4", None, True, False])  # True used to run as 1.0
    def test_config_rejects_non_real_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be a finite real number"):
            DetectorConfig(beta=3, lam=lam)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), "0.4", True])
    def test_detect_peaks_refuses_what_the_config_refuses(self, lam):
        # a NaN lam compared false everywhere, so detect_peaks returned []
        trace = StatTrace(np.array([np.nan, 0.1, 0.3, 0.2, np.nan]), 1)
        with pytest.raises(ValueError, match=f"lam must be a finite real number, not {lam!r}"):
            detect_peaks(trace, lam)

    def test_config_accepts_numpy_integer_beta(self):
        config = DetectorConfig(beta=np.int64(3), lam=np.float64(0.4))
        assert config.beta == 3 and type(config.beta) is int
        series = mean_shift_series(seed=11, left=20, right=20)
        assert detect(series, config).change_points == detect(
            series, DetectorConfig(beta=3, lam=0.4)
        ).change_points


class TestOnlineDetector:
    def three_segment(self, seed):
        return generate(
            SeriesSpec(
                segments=(
                    (DistSpec("normal", 0.0, 1.0), 150),
                    (DistSpec("normal", 3.0, 1.0), 150),
                    (DistSpec("normal", 0.0, 3.0), 150),
                ),
                seed=seed,
            )
        )

    def run_stream(self, series, config):
        detector = OnlineDetector(config)
        emissions = []
        for s in range(len(series)):
            out = detector.step(series.data[s])
            if out is not None:
                emissions.append((out, s))
        return emissions, detector.finalize()

    def test_matches_offline_with_exact_delay(self, filter_b25):
        config = DetectorConfig(beta=25, filter=filter_b25)
        for seed in (31, 32, 33):
            series = self.three_segment(seed)
            offline = detect(series, config).change_points
            emissions, tail = self.run_stream(series, config)
            streamed = [cp for cp, _ in emissions]
            assert streamed + tail == offline
            assert all(arrival - cp == 2 * 25 for cp, arrival in emissions)

    def test_matches_offline_multidimensional(self, filter_b25):
        base = self.three_segment(40)
        noise = generate(
            SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 450),), seed=41)
        )
        series = TimeSeries(np.column_stack([base.data[:, 0], noise.data[:, 0]]))
        config = DetectorConfig(beta=25, filter=filter_b25)
        offline = detect(series, config).change_points
        emissions, tail = self.run_stream(series, config)
        assert [cp for cp, _ in emissions] + tail == offline

    def test_matches_offline_without_filter(self):
        series = self.three_segment(42)
        config = DetectorConfig(beta=25, filter=None)
        offline = detect(series, config).change_points
        emissions, tail = self.run_stream(series, config)
        assert [cp for cp, _ in emissions] + tail == offline

    def test_nonzero_leading_tap_needs_one_more_sample(self, filter_b25):
        # a loaded filter without a zero leading tap confirms at 2*beta + 1
        beta = 25
        taps = filter_b25.taps.copy()
        taps[0] = 0.02
        taps = taps / taps.sum()
        blunt = MatchedFilter(taps=taps, beta=beta, gamma=1.0, ensemble_size=1)
        config = DetectorConfig(beta=beta, filter=blunt)
        for seed in (51, 52):
            series = self.three_segment(seed)
            offline = detect(series, config).change_points
            emissions, tail = self.run_stream(series, config)
            assert [cp for cp, _ in emissions] + tail == offline
            assert all(arrival - cp == 2 * beta + 1 for cp, arrival in emissions)

    def test_tiny_beta_smoke(self):
        series = self.three_segment(53)
        config = DetectorConfig(beta=2, filter=None)
        offline = detect(series, config).change_points
        emissions, tail = self.run_stream(series, config)
        assert [cp for cp, _ in emissions] + tail == offline

    def test_constant_stream_never_emits(self, filter_b25):
        config = DetectorConfig(beta=25, filter=filter_b25)
        detector = OnlineDetector(config)
        for _ in range(300):
            assert detector.step([5.0]) is None
        assert detector.finalize() == []

    def test_short_stream_never_emits(self, filter_b25):
        config = DetectorConfig(beta=25, filter=filter_b25)
        detector = OnlineDetector(config)
        for value in np.linspace(0, 50, 50):
            assert detector.step([value]) is None
        assert detector.finalize() == []

    def test_empty_sample_rejected_without_state_change(self):
        series = self.three_segment(54)
        config = DetectorConfig(beta=25, filter=None)
        detector = OnlineDetector(config)
        with pytest.raises(ValueError, match="at least one dimension"):
            detector.step([])
        emissions = []
        for s in range(len(series)):
            with pytest.raises(ValueError, match="at least one dimension"):
                detector.step(np.empty(0))
            out = detector.step(series.data[s])
            if out is not None:
                emissions.append(out)
        assert emissions + detector.finalize() == detect(series, config).change_points

    @staticmethod
    def tricky_series(dim, beta, seed):
        """Tied values, ±0.0, constant runs and, at index beta, an after window
        that permutes the before window in every dimension (statistic 0)."""
        rng = np.random.default_rng(seed)
        cells = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])
        columns = []
        for _ in range(dim):
            block = rng.choice(cells, beta)
            ties = rng.choice(cells, 2 * beta)
            wide = rng.normal(size=2 * beta) * 10.0 ** rng.integers(-3, 4, 2 * beta)
            zeros = (np.full(beta, -0.0), np.zeros(beta + 1))
            equal = (block, [7.0], rng.permutation(block))
            columns.append(np.concatenate((*equal, ties, *zeros, wide)))
        return TimeSeries(np.column_stack(columns))

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    @pytest.mark.parametrize("beta", [2, 7, 50, 130])
    def test_pushed_statistics_are_bitwise_offline(self, dim, beta):
        # every statistic the step pushes has the bits of the offline trace
        series = self.tricky_series(dim, beta, seed=dim * 1000 + beta)
        detector = OnlineDetector(DetectorConfig(beta=beta))
        span = 2 * beta + 1
        pushed = []
        for sample in series.data:
            detector.step(sample)
            if detector._n >= span:  # the step wrote sigma[n - 1 - beta]
                pushed.append(detector._sigma[(detector._n - 1 - beta) % span])
        offline = sliding_statistic(series, beta).values[beta : len(series) - beta]
        assert offline[0] == 0.0  # the permuted window
        np.testing.assert_array_equal(
            np.array(pushed).view(np.uint64), offline.view(np.uint64)
        )

    @pytest.mark.parametrize("dim", [2, 3, 9])
    @pytest.mark.parametrize("beta", [2, 7, 50])
    def test_one_permuted_dimension_adds_zero(self, dim, beta):
        # at index beta only dimension 0's after window permutes its before
        # window: that row of the joined counts must add 0, the others their S
        rng = np.random.default_rng(dim * 100 + beta)
        block = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], beta)
        first = np.concatenate((block, [7.0], rng.permutation(block), rng.normal(size=beta)))
        data = np.column_stack([first, *rng.normal(size=(dim - 1, first.size))])
        series = TimeSeries(data)
        detector = OnlineDetector(DetectorConfig(beta=beta))
        span = 2 * beta + 1
        pushed = []
        for sample in series.data:
            detector.step(sample)
            if detector._n >= span:
                pushed.append(detector._sigma[(detector._n - 1 - beta) % span])
        offline = sliding_statistic(series, beta).values[beta : len(series) - beta]
        np.testing.assert_array_equal(
            np.array(pushed).view(np.uint64), offline.view(np.uint64)
        )
        before, after = np.sort(data[:beta], axis=0), np.sort(data[beta + 1 : span], axis=0)
        assert exact_w2t(before[:, 0], after[:, 0]) == 0
        others = sum(exact_w2t(before[:, i], after[:, i]) for i in range(1, dim)) * 6 * beta**2
        assert others.denominator == 1 and others > 0
        assert pushed[0] == others.numerator / (6 * beta * beta * dim)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("beta", [2, 7, 50])
    def test_filtered_values_are_bitwise_offline(self, tmp_path, dim, beta):
        # both paths add the taps in one order, so every filtered value the
        # stream computes, the flushed tail included, has the offline bits:
        # with random taps (nonzero leading tap), an estimated filter (leading
        # tap 0.0) and a loaded one whose leading tap is -0.0, whose last pad
        # the flush leaves out; on the whole series and on streams of 2*beta
        # (nothing to judge) to 2*beta + 3 samples, the first that can hold a
        # peak. lam = 0 judges every strict local maximum.
        series = self.tricky_series(dim, beta, seed=dim * 1000 + beta)
        rng = np.random.default_rng(beta)
        taps = rng.random(2 * beta + 1)
        signed = rng.random(2 * beta + 1) + 0.5
        signed[0], signed[-1] = -0.0, -0.25
        save_filter(
            MatchedFilter(taps=signed / signed.sum(), beta=beta, gamma=1.0, ensemble_size=1),
            tmp_path / "signed.json",
        )
        filters = [
            MatchedFilter(taps=taps / taps.sum(), beta=beta, gamma=1.0, ensemble_size=1),
            estimate_matched_filter(beta=beta, ensemble_size=5, seed=beta),
            load_filter(tmp_path / "signed.json"),
        ]
        leading = [f.taps[0] for f in filters]
        assert leading[0] != 0.0 and leading[1] == leading[2] == 0.0
        assert np.signbit(leading).tolist() == [False, False, True] and filters[2].taps[-1] < 0.0
        for filt in filters:
            config = DetectorConfig(beta=beta, lam=0.0, filter=filt)
            for size in (len(series), 2 * beta, 2 * beta + 1, 2 * beta + 2, 2 * beta + 3):
                data = series.data[:size]
                detector = OnlineDetector(config)
                online, advance = [], detector._advance

                def recording(i, value):
                    last_two = detector._last_two
                    confirmed = advance(i, value)
                    if detector._last_two is not last_two:  # filtered[t] was computed
                        online.append(detector._last_two[1])
                    return confirmed

                detector._advance = recording
                streamed = [cp for cp in map(detector.step, data) if cp is not None]
                flushed = detector.finalize()
                assert detector.stats()["confirmed"] == len(streamed) + len(flushed)
                if size == 2 * beta:
                    assert online == streamed == flushed == []
                    continue
                offline = detect(TimeSeries(data), config)
                assert streamed + flushed == offline.change_points
                np.testing.assert_array_equal(
                    np.array(online).view(np.uint64),
                    offline.filtered.values[beta : size - beta].view(np.uint64),
                )

    @pytest.mark.parametrize("sample", ["1.5", True, b"2", [True], [0.5, True], 1 + 2j, ["1", "2"], [None]])
    def test_rejects_non_real_samples_without_state_change(self, sample):
        # np.asarray(sample, dtype=float) parsed "1.5" and b"2", read True as
        # 1.0 and dropped an imaginary part with only a ComplexWarning
        series = self.three_segment(55)
        config = DetectorConfig(beta=25, filter=None)
        detector = OnlineDetector(config)
        emissions = []
        for s in range(len(series)):
            if s % 50 == 0:
                with pytest.raises(ValueError, match="sample must be real numbers, not"):
                    detector.step(sample)
            out = detector.step(series.data[s])
            if out is not None:
                emissions.append(out)
        assert emissions + detector.finalize() == detect(series, config).change_points

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize(
        "bad",
        [
            np.nan,
            -np.inf,
            pytest.param(
                HUGE,
                marks=pytest.mark.skipif(HUGE <= np.finfo(float).max, reason="no wider longdouble"),
            ),
        ],
    )
    def test_rejects_non_finite_samples_without_state_change(self, dim, bad):
        # a longdouble beyond float64 went into the ring as inf, with only an
        # overflow warning, while detect refused the same series
        config = DetectorConfig(beta=3)
        seen, clean = OnlineDetector(config), OnlineDetector(config)
        for t, row in enumerate(np.random.default_rng(dim).normal(size=(40, dim))):
            if t % 9 == 0:  # the first at t = 0, before the ring is sized
                sample = row.astype(np.longdouble)
                sample[-1] = bad
                before = seen.stats()
                with pytest.raises(ValueError, match="non-finite sample"):
                    seen.step(sample if dim > 1 else sample[0])
                assert seen.stats() == before
            assert seen.step(row) == clean.step(row)
        assert seen.stats() == clean.stats()
        assert np.array_equal(seen._sigma, clean._sigma)
        assert seen.finalize() == clean.finalize()

    def test_integer_samples_step_as_floats(self):
        config = DetectorConfig(beta=3)
        ints, floats = OnlineDetector(config), OnlineDetector(config)
        values = np.random.default_rng(3).integers(-5, 5, size=(40, 2))
        for row in values:
            assert ints.step(row) == floats.step(row.astype(float))
        assert ints.finalize() == floats.finalize()

    def test_integers_beyond_int64_step_as_time_series_reads_them(self, filter_b25):
        # numpy holds such an int in an object array: TimeSeries converted it,
        # while step refused it as "not object"
        config = DetectorConfig(beta=25, filter=filter_b25)
        values = self.three_segment(56).data[:, 0].tolist()
        values[200], values[380] = 2**64, -(2**70)
        offline = detect(TimeSeries(values), config).change_points
        detector = OnlineDetector(config)
        streamed = [detector.step(value) for value in values]
        assert [cp for cp in streamed if cp is not None] + detector.finalize() == offline
        assert offline == [152, 303]

    def test_step_after_finalize_rejected(self, filter_b25):
        detector = OnlineDetector(DetectorConfig(beta=25, filter=filter_b25))
        detector.finalize()
        with pytest.raises(ValueError, match="finalized"):
            detector.step([0.0])


    def test_state_stays_bounded(self):
        # the detector keeps O(beta) history however long the stream runs
        # (tracing multiplies the step cost about sixfold, so the traced
        # stretch is 2e4 steps; unbounded lists would retain over 1 MB there)
        detector = OnlineDetector(DetectorConfig(beta=3))
        samples = np.random.default_rng(0).normal(size=(21_000, 1))
        warm_up = 1_000
        for sample in samples[:warm_up]:
            detector.step(sample)
        tracemalloc.start()
        try:
            for sample in samples[warm_up:]:
                detector.step(sample)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    @pytest.mark.parametrize("dim", [1, 3])
    def test_stats_state_size_is_fixed_by_the_first_sample(self, dim):
        beta = 5
        detector = OnlineDetector(DetectorConfig(beta=beta))
        samples = np.random.default_rng(dim).normal(size=(1_000 * beta, dim))
        for sample in samples[: 10 * beta]:
            detector.step(sample)
        early = detector.stats()
        for sample in samples[10 * beta :]:
            detector.step(sample)
        late = detector.stats()
        assert early["samples"] == 10 * beta and late["samples"] == 1_000 * beta
        assert early["state_bytes"] == late["state_bytes"] > 0

    def test_stats_counts_confirmations_and_their_lag(self, filter_b25):
        series = self.three_segment(31)
        config = DetectorConfig(beta=25, filter=filter_b25)
        detector = OnlineDetector(config)
        stats = detector.stats()
        assert (stats["samples"], stats["confirmed"], stats["lag"]) == (0, 0, 2 * 25)
        streamed = [cp for cp in map(detector.step, series.data) if cp is not None]
        assert streamed and detector.stats()["confirmed"] == len(streamed)
        tail = detector.finalize()
        assert detector.stats()["confirmed"] == len(streamed) + len(tail)
        assert streamed + tail == detect(series, config).change_points
        taps = filter_b25.taps.copy()
        taps[0] = 0.02
        blunt = MatchedFilter(taps=taps / taps.sum(), beta=25, gamma=1.0, ensemble_size=1)
        assert OnlineDetector(DetectorConfig(beta=25, filter=blunt)).stats()["lag"] == 2 * 25 + 1

    @settings(max_examples=25, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from(["normal", "laplace"]),
                st.floats(-3.0, 3.0),
                st.floats(0.3, 3.0),
                st.integers(2 * 8 + 1, 60),
            ),
            min_size=1,
            max_size=4,
        ),
        dim=st.integers(1, 3),
        beta=st.integers(2, 8),
        taps_kind=st.sampled_from(["none", "estimated", "blunt"]),
        lam=st.sampled_from([0.0, 0.2, NULL.reject_threshold_05]),
        seed=st.integers(0, 2**16),
    )
    def test_online_matches_offline(self, segments, dim, beta, taps_kind, lam, seed):
        spec = SeriesSpec(
            segments=tuple((DistSpec(f, loc, scale), n) for f, loc, scale, n in segments),
            dimension=dim,
            seed=seed,
        )
        series = generate(spec)
        filt = None
        if taps_kind != "none":
            strong = ((DistSpec("normal", 0.0, 1.0), DistSpec("normal", 5.0, 1.0)),)
            filt = estimate_matched_filter(beta, 2, change_pairs=strong, seed=seed)
        if taps_kind == "blunt":
            taps = filt.taps.copy()
            taps[0] = 0.05
            filt = MatchedFilter(taps=taps / taps.sum(), beta=beta, gamma=1.0, ensemble_size=1)
        config = DetectorConfig(beta=beta, lam=lam, filter=filt)
        emissions, tail = self.run_stream(series, config)
        assert [cp for cp, _ in emissions] + tail == detect(series, config).change_points
        delay = 2 * beta + (1 if taps_kind == "blunt" else 0)
        assert all(arrival - cp == delay for cp, arrival in emissions)


class TestFilterSerialization:
    def test_round_trip(self, tmp_path, filter_b50):
        path = tmp_path / "filter.json"
        save_filter(filter_b50, path)
        loaded = load_filter(path)
        np.testing.assert_array_equal(loaded.taps, filter_b50.taps)
        assert loaded.beta == filter_b50.beta
        assert loaded.gamma == filter_b50.gamma
        assert loaded.ensemble_size == filter_b50.ensemble_size
        assert loaded.seed == filter_b50.seed
        assert loaded.change_pairs == filter_b50.change_pairs

    def test_tampered_taps_rejected(self, tmp_path, filter_b50):
        import json

        path = tmp_path / "filter.json"
        save_filter(filter_b50, path)
        payload = json.loads(path.read_text())
        payload["taps"][60] += 0.25
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unit area"):
            load_filter(path)

    @pytest.mark.parametrize("beta", [50.0, 50.7, "50"])
    def test_non_integer_beta_rejected(self, tmp_path, filter_b50, beta):
        import json

        path = tmp_path / "filter.json"
        save_filter(filter_b50, path)
        payload = json.loads(path.read_text())
        payload["beta"] = beta
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="beta must be an integer"):
            load_filter(path)

    def write_with(self, tmp_path, filt, key, value):
        import json

        path = tmp_path / "filter.json"
        save_filter(filt, path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize(
        "value,message",
        [(2.9, "must be an integer"), (True, "must be an integer"), ("3", "must be an integer"),
         (0, "must be at least 1")],
    )
    def test_bad_ensemble_size_rejected(self, tmp_path, filter_b50, value, message):
        # 2.9 used to load as an ensemble of 2
        path = self.write_with(tmp_path, filter_b50, "ensemble_size", value)
        with pytest.raises(ValueError, match=f"filter.json: .*ensemble size {message}"):
            load_filter(path)

    @pytest.mark.parametrize(
        "value,message",
        [("x", "must be an integer"), (1.5, "must be an integer"), (False, "must be an integer"),
         (-1, "must be nonnegative")],
    )
    def test_bad_seed_rejected(self, tmp_path, filter_b50, value, message):
        path = self.write_with(tmp_path, filter_b50, "seed", value)
        with pytest.raises(ValueError, match=f"filter.json: .*seed {message}"):
            load_filter(path)

    @pytest.mark.parametrize("value", ["1", True, 0.0, -2.0, float("inf")])
    def test_bad_gamma_rejected(self, tmp_path, filter_b50, value):
        path = self.write_with(tmp_path, filter_b50, "gamma", value)
        with pytest.raises(ValueError, match="filter.json: .*gamma must be a finite positive"):
            load_filter(path)

    def test_unloaded_seed_may_be_absent(self, tmp_path, filter_b50):
        path = self.write_with(tmp_path, filter_b50, "seed", None)
        assert load_filter(path).seed is None

    def test_unrecognized_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a matched filter"):
            load_filter(path)


def step_all(samples, finalize=0):
    detector = OnlineDetector(DetectorConfig(beta=2))
    for sample in samples:
        detector.step(sample)
    for _ in range(finalize):
        detector.finalize()


def load_text(tmp_path, text):
    path = tmp_path / "filter.json"
    path.write_text(text)
    return load_filter(path)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: StatTrace([], 1), "trace values must be a nonempty flat array"),
        (lambda tmp: StatTrace(np.full((5, 5), np.nan), 1), "must be a nonempty flat array"),
        (lambda tmp: step_all([[[0.0], [1.0]]]), "sample must be a flat vector"),
        (lambda tmp: step_all([[0.0, 1.0], [2.0]]), "sample dimension changed mid-stream"),
        (lambda tmp: step_all([0.0, 1.0], finalize=2), "detector already finalized"),
        (
            lambda tmp: load_text(tmp, '{"format": "wcpd.matched-filter", "version": 2}'),
            "filter.json: unsupported filter version 2",
        ),
    ],
)
def test_refuses_malformed_input(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


@pytest.mark.parametrize("lam", [10**400, -(10**400)], ids=["positive", "negative"])
def test_lam_beyond_float64_is_refused(lam):
    # math.isfinite raised OverflowError on an int beyond float64
    trace = StatTrace(np.array([np.nan, 0.1, 0.3, 0.2, np.nan]), 1)
    with pytest.raises(ValueError, match="lam must be a finite real number"):
        DetectorConfig(beta=3, lam=lam)
    with pytest.raises(ValueError, match="lam must be a finite real number"):
        detect_peaks(trace, lam)


def test_lam_beyond_int64_within_float64_is_taken():
    trace = StatTrace(np.array([np.nan, 0.1, 0.3, 0.2, np.nan]), 1)
    assert DetectorConfig(beta=3, lam=2**70).lam == 2**70
    assert detect_peaks(trace, 2**70) == [] and detect_peaks(trace, -(2**70)) == [2]


@pytest.mark.parametrize("gamma,taken", [(10**400, None), (2**70, float(2**70))],
                         ids=["beyond-float64", "beyond-int64"])
def test_gamma_is_taken_if_it_fits_in_a_float(gamma, taken):
    make = lambda: MatchedFilter(taps=np.full(3, 1 / 3), beta=1, gamma=gamma, ensemble_size=1)
    if taken is None:
        with pytest.raises(ValueError, match="gamma must be a finite positive number"):
            make()
    else:
        assert make().gamma == taken and type(make().gamma) is float
