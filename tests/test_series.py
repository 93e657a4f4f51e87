import numpy as np
import pytest

from wcpd.series import TimeSeries


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
