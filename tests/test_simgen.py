import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpd.simgen import DistSpec, SeriesSpec, _draw, generate, sample

from helpers import one_stream_draw


class TestDistSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            DistSpec("cauchy", 0.0, 1.0)

    def test_rejects_bad_scale(self):
        for scale in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                DistSpec("normal", 0.0, scale)

    @pytest.mark.parametrize("field", ["location", "scale"])
    @pytest.mark.parametrize("value", [True, "1", None])
    def test_rejects_non_real_location_and_scale(self, field, value):
        # a True location used to run silently at location 1.0
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            DistSpec("normal", **{field: value})

    def test_accepts_numpy_and_integer_values(self):
        spec = DistSpec("normal", np.float64(0.5), 2)
        assert (spec.location, spec.scale) == (0.5, 2)


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

    @pytest.mark.parametrize(
        "field,value",
        [("length", 30.9), ("length", True), ("length", "30"),
         ("dimension", 2.0), ("dimension", True), ("seed", 1.5), ("seed", False)],
    )
    def test_rejects_non_integer_fields(self, field, value):
        # a 30.9 length used to make 30 samples
        length = value if field == "length" else 30
        options = {field: value} if field != "length" else {}
        name = "segment length" if field == "length" else field
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SeriesSpec(segments=((DistSpec("normal"), length),), **options)

    def test_numpy_integers_stored_as_int(self):
        spec = SeriesSpec(
            segments=((DistSpec("normal"), np.int64(30)),), dimension=np.int32(2), seed=np.uint8(3)
        )
        assert spec.segments[0][1] == 30 and type(spec.segments[0][1]) is int
        assert (type(spec.dimension), type(spec.seed)) == (int, int)


class TestSample:
    @pytest.mark.parametrize(
        "n,seed,message",
        [(2.5, 0, "sample count must be an integer, not 2.5"),
         (True, 0, "sample count must be an integer, not True"),
         (0, 0, "sample count must be at least 1"),
         (3, 1.5, "seed must be an integer, not 1.5"),
         (3, True, "seed must be an integer, not True"),
         (3, -1, "seed must be nonnegative")],
    )
    def test_rejects_bad_count_and_seed(self, n, seed, message):
        # 2.5 and 1.5 used to raise a bare TypeError, and True ran as 1
        with pytest.raises(ValueError, match=message):
            sample(DistSpec("normal"), n, seed)

    def test_numpy_integers_accepted(self):
        spec = DistSpec("laplace")
        assert sample(spec, np.int64(5), np.uint8(2)).tobytes() == sample(spec, 5, 2).tobytes()


class TestBatchedDraw:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["normal", "laplace"]),
        location=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
        n=st.integers(1, 1001),
        entropies=st.lists(
            st.one_of(st.integers(0, 2**70), st.lists(st.integers(0, 2**64), min_size=1,
                                                     max_size=3)),
            min_size=1, max_size=12,
        ),
    )
    def test_each_row_is_its_one_stream_draw(self, family, location, scale, n, entropies):
        spec = DistSpec(family, location, scale)
        rows = _draw(spec, n, entropies)
        assert rows.shape == (len(entropies), n)
        for row, entropy in zip(rows, entropies):
            assert row.tobytes() == one_stream_draw(spec, n, entropy).tobytes()

    def test_sample_is_the_one_row_case(self):
        spec = DistSpec("normal", 1.0, 2.0)
        assert sample(spec, 9, 4).tobytes() == one_stream_draw(spec, 9, 4).tobytes()

    def test_generate_draws_stream_seed_segment_dimension(self):
        spec = DistSpec("laplace", 0.5, 1.5)
        series = generate(SeriesSpec(((DistSpec("normal"), 4), (spec, 7)), dimension=3, seed=8))
        for dim in range(3):
            expected = one_stream_draw(spec, 7, [8, 1, dim])
            assert series.data[4:, dim].tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "segments, message",
    [
        ((), "series spec needs at least one segment"),
        (((DistSpec("normal"), 4), ("normal", 4)), "segment specs must be DistSpec instances"),
    ],
)
def test_series_spec_refuses_what_it_cannot_generate(segments, message):
    with pytest.raises(ValueError, match=message):
        SeriesSpec(segments)
