import numpy as np
import pytest

from wcpd.series import TimeSeries


class TestData:
    @pytest.mark.parametrize(
        "data",
        [["1.5", "2.5", "3"], [True, False, True], [1 + 2j, 0.0, 1.0], [b"1", b"2"],
         [[1.0, None], [2.0, 3.0]]],
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
