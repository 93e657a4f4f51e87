import numpy as np
import pytest

from wcpd.simgen import DistSpec, SeriesSpec, generate, sample


class TestDistSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            DistSpec("cauchy", 0.0, 1.0)

    def test_rejects_bad_scale(self):
        for scale in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                DistSpec("normal", 0.0, scale)


class TestSample:
    def test_normal_moments(self):
        draws = sample(DistSpec("normal", 0.0, 1.0), 10**6, seed=100)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_laplace_unit_variance(self):
        # scale 1/sqrt(2) makes the variance 2 * b**2 = 1
        draws = sample(DistSpec("laplace", 0.0, 1.0 / np.sqrt(2.0)), 10**6, seed=101)
        assert abs(draws.var() - 1.0) < 0.01
        assert abs(draws.mean()) < 0.005

    def test_location_scale(self):
        draws = sample(DistSpec("normal", 5.0, 2.0), 10**5, seed=102)
        assert abs(draws.mean() - 5.0) < 0.05
        assert abs(draws.std() - 2.0) < 0.05

    def test_deterministic(self):
        spec = DistSpec("laplace", 1.0, 3.0)
        np.testing.assert_array_equal(sample(spec, 1000, 7), sample(spec, 1000, 7))

    def test_odd_count(self):
        assert sample(DistSpec("normal", 0.0, 1.0), 7, seed=0).shape == (7,)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample(DistSpec("normal", 0.0, 1.0), 0, seed=0)

    @pytest.mark.parametrize(
        "spec", [DistSpec("normal", 0.0, 1e308), DistSpec("laplace", 1.7e308, 1e307)]
    )
    def test_overflow_raises_without_warning(self, spec):
        # numpy's overflow warning would fail the test (warnings are errors)
        with pytest.raises(ValueError, match="overflow to a non-finite sample"):
            sample(spec, 50, seed=1)


class TestGenerate:
    def test_boundaries(self):
        spec = SeriesSpec(
            segments=(
                (DistSpec("normal", 0.0, 1.0), 100),
                (DistSpec("normal", 3.0, 1.0), 50),
            ),
            seed=1,
        )
        series = generate(spec)
        assert len(series) == 150
        np.testing.assert_array_equal(series.change_points, [100])

    def test_repeated_specs_share_labels(self):
        a = DistSpec("normal", 0.0, 1.0)
        b = DistSpec("normal", 3.0, 1.0)
        series = generate(SeriesSpec(segments=((a, 10), (b, 10), (a, 10)), seed=2))
        labels = series.labels
        assert labels[0] == labels[25]
        assert labels[0] != labels[15]
        assert np.unique(labels).size == 2

    def test_single_segment_no_changes(self):
        series = generate(SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 20),), seed=3))
        assert series.change_points.size == 0

    def test_bitwise_determinism(self):
        spec = SeriesSpec(
            segments=(
                (DistSpec("normal", 0.0, 1.0), 64),
                (DistSpec("laplace", 2.0, 1.0), 64),
            ),
            dimension=3,
            seed=9,
        )
        first = generate(spec)
        second = generate(spec)
        np.testing.assert_array_equal(first.data, second.data)
        np.testing.assert_array_equal(first.labels, second.labels)

    def test_dimensions_get_distinct_streams(self):
        series = generate(
            SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 50),), dimension=2, seed=4)
        )
        assert not np.array_equal(series.data[:, 0], series.data[:, 1])

    def test_rejects_zero_length_segment(self):
        with pytest.raises(ValueError, match="at least 1"):
            SeriesSpec(segments=((DistSpec("normal", 0.0, 1.0), 0),), seed=0)
