import numpy as np
import pytest

from wcpd.cpd import MatchedFilter, StatTrace
from wcpd.empirical import EmpiricalDist, build_empirical
from wcpd.numeric import eigh_symmetric, hungarian, kmeans
from wcpd.series import TimeSeries
from wcpd.tssc import AffinityMatrix


class TestData:
    @pytest.mark.parametrize(
        "data",
        [["1.5", "2.5", "3"], [True, False, True], [0.0, 1.0, True], [1 + 2j, 0.0, 1.0],
         [b"1", b"2"], [[1.0, None], [2.0, 3.0]]],
    )
    def test_rejects_non_real_samples(self, data):
        # np.array(..., dtype=float) parsed the strings, read the bools as 1/0
        # and dropped the imaginary part with only a ComplexWarning
        with pytest.raises(ValueError, match="data must be real numbers, not"):
            TimeSeries(data)

    def test_integer_samples_become_floats(self):
        series = TimeSeries(np.array([[1, 2], [3, 4]], dtype=np.int8))
        assert series.data.dtype == np.dtype(float)
        assert series.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


NAN, INF = float("nan"), float("inf")


# Every entry that reads caller input as floats checks it as TimeSeries does;
# np.array(..., dtype=float) parsed strings and read bools as 1/0, and NaN
# passed eigh_symmetric's symmetry check (nan > tol is false)
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_empirical(["1", "2.5"]), "values must be real numbers"),
        (lambda: build_empirical([True, False]), "values must be real numbers"),
        (lambda: build_empirical([1.0, 2.0], ["1", "3"]), "weights must be real numbers"),
        (lambda: build_empirical([1.0, 2.0], [True, True]), "weights must be real numbers"),
        (lambda: EmpiricalDist(["1", "2"], [0.5, 0.5]), "support must be real numbers"),
        (lambda: EmpiricalDist([1.0, 2.0], [True, False]), "weights must be real numbers"),
        (lambda: StatTrace(["nan", "0.5", "nan"], 1), "trace values must be real numbers"),
        (lambda: MatchedFilter(["0.25", "0.5", "0.25"], 1, 1.0, 1), "taps must be real numbers"),
        (lambda: AffinityMatrix([[True, False], [False, True]]), "affinities must be real"),
        (lambda: eigh_symmetric([[True, False], [False, True]]), "matrix must be real numbers"),
        (lambda: eigh_symmetric([["1"]]), "matrix must be real numbers"),
        (lambda: eigh_symmetric([[NAN]]), "non-finite matrix entry"),
        (lambda: eigh_symmetric([[INF, 0.0], [0.0, 1.0]]), "non-finite matrix entry"),
        (lambda: hungarian([["1", "0"], ["0", "1"]]), "cost matrix must be real numbers"),
        (lambda: hungarian([[True, False], [False, True]]), "cost matrix must be real numbers"),
        # ints beyond int64 make numpy build an object array; any other entry
        # in it is still refused, and an int beyond float64 is named
        (lambda: TimeSeries([2**64, None]), "data must be real numbers, not object"),
        (lambda: TimeSeries([2**64, True]), "data must be real numbers, not object"),
        (lambda: TimeSeries([2**64, 1j]), "data must be real numbers, not object"),
        (lambda: TimeSeries([2**64, "1"]), "data must be real numbers, not"),
        (lambda: TimeSeries([10**400, 1]), "data must fit in a float: an integer is too large"),
        (lambda: hungarian([[10**400, 0], [0, 1]]), "cost matrix must fit in a float"),
        # the object-array path checks finiteness as the numeric one does
        (lambda: TimeSeries([2**64, NAN]), "non-finite sample"),
        (lambda: hungarian([[2**64, INF], [0, 1]]), "non-finite cost entry"),
        (lambda: MatchedFilter([0.25, NAN, 0.25], 1, 1.0, 1), "non-finite tap"),
        (lambda: AffinityMatrix([[1.0, NAN], [NAN, 1.0]]), "non-finite affinity"),
        # NaN marks an index with no statistic, but a statistic is at most
        # beta/6, so an infinite one is bad input
        (lambda: StatTrace([NAN, 0.1, INF, 0.2, NAN], 1), "infinite trace value"),
        (lambda: StatTrace([NAN, -INF, NAN], 1), "infinite trace value"),
    ],
)
def test_library_entries_refuse_non_real_and_non_finite_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_stat_trace_takes_nan_inside_as_no_statistic():
    trace = StatTrace([NAN, 0.1, NAN, 0.2, NAN], 1)
    assert trace.valid_mask.tolist() == [False, True, False, True, False]


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: hungarian([[2**70, 0], [0, 2**70]]), [1, 0]),
        (lambda: TimeSeries([2**64, 1]).data.tolist(), [[2.0**64], [1.0]]),
        (lambda: TimeSeries([[-(2**63) - 1, 0.5]]).data.tolist(), [[-(2.0**63), 0.5]]),
    ],
)
def test_python_ints_beyond_int64_are_read_as_floats(call, expected):
    # numpy holds them in an object array, which was refused as "not object"
    assert call() == expected


HUGE = np.finfo(np.longdouble).max


# the cast to float64 warned about the overflow before each entry's finiteness
# check ran, and pytest's filterwarnings = error raised that warning instead
@pytest.mark.skipif(HUGE <= np.finfo(float).max, reason="longdouble is float64 here")
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TimeSeries(np.array([1, HUGE])), "non-finite sample"),
        (lambda: build_empirical(np.array([1, HUGE])), "non-finite sample"),
        (lambda: kmeans(np.array([[0, 1], [HUGE, 1]]), 1, 0), "non-finite point"),
        (lambda: eigh_symmetric(np.array([[HUGE, 0], [0, 1]])), "non-finite matrix entry"),
        (lambda: hungarian(np.array([[HUGE, 0], [0, 1]])), "non-finite cost entry"),
    ],
)
def test_longdouble_beyond_float64_is_non_finite_without_a_warning(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestLabels:
    @pytest.mark.parametrize(
        "labels", [[0.5, 1.7, 2], [0.0, 1.0, 2.0], [True, False, True], ["0", "1", "2"]]
    )
    def test_rejects_non_integer_labels(self, labels):
        # np.array(..., dtype=int) would truncate 0.5 and 1.7 to 0 and 1
        with pytest.raises(ValueError, match="labels must be integers"):
            TimeSeries(np.zeros(3), labels=labels)

    def test_integer_labels_are_kept_read_only(self):
        source = np.array([3, 1, 2], dtype=np.uint8)
        series = TimeSeries(np.zeros(3), labels=source)
        assert series.labels.tolist() == [3, 1, 2]
        assert series.labels.dtype == np.dtype(int)
        assert not series.labels.flags.writeable
        assert source.flags.writeable

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="one entry per sample"):
            TimeSeries(np.zeros(3), labels=[0, 1])


class TestChangePoints:
    @pytest.mark.parametrize("cps", [[1.5, 3.7], [1.0, 3.0], [True], np.array([2.9])])
    def test_rejects_non_integer_change_points(self, cps):
        # np.array(..., dtype=int) would truncate [1.5, 3.7] to [1, 3]
        with pytest.raises(ValueError, match="change points must be integers"):
            TimeSeries(np.zeros(5), change_points=cps)

    def test_integer_and_empty_change_points(self):
        source = np.array([1, 3], dtype=np.uint8)
        series = TimeSeries(np.zeros(5), change_points=source)
        assert series.change_points.tolist() == [1, 3]
        assert series.change_points.dtype == np.dtype(int)
        assert not series.change_points.flags.writeable
        assert source.flags.writeable
        assert TimeSeries(np.zeros(5), change_points=[]).change_points.tolist() == []


@pytest.mark.parametrize(
    "data, cps, message",
    [
        ([], None, r"data must be a nonempty \(T, d\) array"),
        (np.zeros((2, 0)), None, r"data must be a nonempty \(T, d\) array"),
        (np.zeros((2, 2, 2)), None, r"data must be a nonempty \(T, d\) array"),
        (np.zeros(5), [[1, 2]], "change points must be a flat index sequence"),
        (np.zeros(5), [2, 2], "change points must be strictly increasing"),
        (np.zeros(5), [3, 1], "change points must be strictly increasing"),
        (np.zeros(5), [0, 2], r"change points must lie strictly inside \(0, T\)"),
        (np.zeros(5), [2, 5], r"change points must lie strictly inside \(0, T\)"),
    ],
)
def test_refuses_a_shape_or_split_it_cannot_hold(data, cps, message):
    with pytest.raises(ValueError, match=message):
        TimeSeries(data, change_points=cps)
