"""The CLI's table I/O: numpy's verdict on every table body, the bytes of the
writers, and the types of config values."""

import contextlib
import csv
import functools
import io
import itertools
import json
import os
import re
import sys
import tracemalloc
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcpd import cli
from wcpd.cli import ingest_csv, main
from wcpd.cpd import DetectorConfig, detect, load_filter
from wcpd.series import TimeSeries
from wcpd.simgen import generate
from wcpd.tssc import cluster_segments


def run(args):
    return main([str(a) for a in args])


def outcome(read, *args, **kwargs):
    """What a reader returns, as comparable bytes, or the message it raises."""
    try:
        value = read(*args, **kwargs)
    except (ValueError, TypeError, csv.Error) as exc:
        return type(exc), str(exc)
    if isinstance(value, TimeSeries):
        labels = None if value.labels is None else value.labels.tolist()
        return value.data.shape, value.data.tobytes(), labels
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def column(col, dtype, what):
    """``cli._read_column`` of ``col`` as ``dtype``, as a partial the oracle can read."""
    return functools.partial(cli._read_column, col=col, dtype=dtype, what=what)


def loadtxt(path, dtype, skip, rows=None, **options):
    """numpy's own reading of the ``rows`` records (all, without) after the first
    ``skip`` lines of ``path``; a body of no records has no rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, dtype=dtype, comments=None, skiprows=skip, max_rows=rows,
                          **options)


def csv_records(path, delimiter):
    """The fields of the first row of ``path``, the lines it spans, and the line each
    later nonempty row ends on: the records of a table's body."""
    limit = csv.field_size_limit(sys.maxsize)
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            header = next(reader, None)
            skip = reader.line_num
            return header, skip, [reader.line_num for row in reader if row]
    finally:
        csv.field_size_limit(limit)


def numpy_reading(read, path):
    """numpy's own reading of the body that ``read`` (a reader, or a partial of one)
    reads from ``path``: ``parse(skip, rows=None)``, which raises ValueError where
    numpy refuses the ``rows`` records after the first ``skip`` lines; the lines
    before the body; the line each of its records ends on; and the ``outcome`` that
    ``read`` makes of numpy's array of the whole body."""
    func, kw = getattr(read, "func", read), getattr(read, "keywords", {})
    if func is cli._read_indices:
        with open(path, newline="") as handle:
            ends = [n for n, line in enumerate(handle, start=1) if not line.isspace()]

        def indices(skip, rows=None):
            found = loadtxt(path, int, skip, rows, ndmin=2)
            if found.shape[1] != 1:
                raise ValueError("not one field a line")
            return found

        return indices, 0, ends, lambda found: found[:, 0].tolist()
    delimiter = kw.get("delimiter", ",")
    header, skip, ends = csv_records(path, delimiter)
    options = {"delimiter": delimiter, "quotechar": '"', "ndmin": 1}
    if func is cli._read_column:
        parse = functools.partial(loadtxt, path, kw["dtype"], usecols=kw["col"], **options)
        return parse, skip, ends, lambda found: outcome(lambda: found)
    names = [name.strip() for name in header]
    label, time = kw.get("label_column"), kw.get("time_column")
    values = [i for i, name in enumerate(names) if name not in (label, time)]
    dtype = np.dtype([(f"c{i}", np.int64 if name == label else float if i in values else "U0")
                      for i, name in enumerate(names)])

    def series(found):
        if found.size == 0:
            return ValueError, f"{path}: empty series"
        data = np.stack([found[f"c{i}"] for i in values], axis=1)
        if not np.isfinite(data).all():
            r, c = np.argwhere(~np.isfinite(data))[0]
            return ValueError, (f"{path}: line {ends[r]}: non-finite value '{data[r, c]}' "
                                f"in column {names[values[c]]!r}")
        return outcome(lambda: TimeSeries(data, found[f"c{names.index(label)}"] if label else None))

    return functools.partial(loadtxt, path, dtype, **options), skip, ends, series


def refuses(parse, skip, rows=None):
    try:
        parse(skip, rows)
    except ValueError:
        return True
    return False


def follows_numpy(read, path):
    """The oracle: ``read(path)`` gives what it makes of numpy's array of the body, or
    raises naming the line of a record that numpy refuses on its own while numpy
    accepts every record before it. Returns ``outcome(read, path)``."""
    got = outcome(read, path)
    parse, skip, ends, made = numpy_reading(read, path)
    try:
        found = parse(skip)
    except TypeError:  # a delimiter numpy cannot split on
        assert got[0] is TypeError, got
        return got
    except ValueError:
        assert got[0] is ValueError, got
        line = int(re.match(rf"{re.escape(str(path))}: line (\d+): ", got[1])[1])
        r = ends.index(line)
        assert refuses(parse, ends[r - 1] if r else skip, 1)
        assert r == 0 or not refuses(parse, skip, r)
        return got
    assert got == made(found)
    return got


# csv's reader refuses a field over 131,072 characters unless its limit is raised
LONG = 140_000

INGEST_CASES = [
    # (file bytes, ingest_csv options, values and labels, or the message after "<path>: ")
    (b't,x0,label\r\n0,"1.5",2\r\n1,"-2.25","3"\r\n', {"label_column": "label", "time_column": "t"},
     ([[1.5], [-2.25]], [2, 3])),
    (b"t,x0\n0,1.5\n1,2.5", {"time_column": "t"}, ([[1.5], [2.5]], None)),
    (b"x,y\n1,2\n\n\n3\n", {}, "line 5: expected 2 fields, found 1"),
    (b"x,y\n1,2\n \n3,4\n", {}, "line 3: expected 2 fields, found 1"),
    (b"x\n1\n \n", {}, "line 3: non-numeric value ' ' in column 'x'"),
    (b"x,y\n1,2\n3,4,5\n", {}, "line 3: expected 2 fields, found 3"),
    (b"x,label\n1,0\n2,2.5\n", {"label_column": "label"}, "line 3: non-integer label '2.5'"),
    (b"x,label\n1,0\n2,1e3\n", {"label_column": "label"}, "line 3: non-integer label '1e3'"),
    (b"x,label\n1, 3 \n", {"label_column": "label"}, ([[1.0]], [3])),
    (b"x\n1_0\n2\n", {}, "line 2: non-numeric value '1_0' in column 'x'"),
    (b"t,x\n2020-01-01,1.5\n2020-01-02,2.5\n", {"time_column": "t"}, ([[1.5], [2.5]], None)),
    (b"x\n1\n\n\ninf\n", {}, "line 5: non-finite value 'inf' in column 'x'"),
    (b"x,y\n1,2\n\n3,nan\n", {}, "line 4: non-finite value 'nan' in column 'y'"),
    (b"x\n\n\n", {}, "empty series"),
    # numpy cannot split on its quote character
    (b'x"y\n1"2\n', {"delimiter": '"'}, TypeError),
    (b"x,label\n1,0\n2,99999999999999999999\n", {"label_column": "label"},
     "line 3: non-integer label '99999999999999999999'"),
    (b"x,label\n1,9223372036854775807\n2,-9223372036854775808\n", {"label_column": "label"},
     ([[1.0], [2.0]], [2**63 - 1, -(2**63)])),
    # a quoted field that spans lines counts each of its lines
    (b'x\n" 1\n"\noops\n', {}, "line 4: non-numeric value 'oops' in column 'x'"),
    (b'x\n" 1\n"\ninf\n', {}, "line 4: non-finite value 'inf' in column 'x'"),
    pytest.param(b"x\n1\n" + b"0" * (LONG - 1) + b"1\n", {}, ([[1.0], [1.0]], None),
                 id="long-number"),
    pytest.param(b"x\n1\n" + b"y" * LONG + b"\n", {},
                 f"line 3: non-numeric value {'y' * LONG!r} in column 'x'", id="long-cell"),
    pytest.param(b"t," + b"x" * LONG + b"\n0,1.5\n", {"time_column": "t"}, ([[1.5]], None),
                 id="long-header-name"),
    # numpy reads any number of leading zeros, though int() refuses more than 4,300 digits
    pytest.param(b"x,label\n1,10\n2," + b"0" * 5_000 + b"2\n", {"label_column": "label"},
                 ([[1.0], [2.0]], [10, 2]), id="padded-label"),
]


@pytest.mark.parametrize("content,options,expected", INGEST_CASES)
def test_ingest_follows_numpy(tmp_path, content, options, expected):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    got = follows_numpy(functools.partial(ingest_csv, **options), path)
    if expected is TypeError:
        assert got[0] is TypeError
    elif isinstance(expected, str):
        assert got == (ValueError, f"{path}: {expected}")
    else:
        values, labels = expected
        series = ingest_csv(path, **options)
        np.testing.assert_array_equal(series.data, values)
        assert labels == (None if series.labels is None else series.labels.tolist())


def test_ingest_error_keeps_exit_code(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("t,x0\n0,1.0\n\n\n1,inf\n")
    code = run(["detect", "--input", path, "--time-column", "t", "--beta", 1,
                "--out-dir", tmp_path / "out"])
    assert code == 2
    assert f"error: {path}: line 5: non-finite value 'inf' in column 'x0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,options,message",
    [
        ("x\n1\n\n\ninf\n", {}, "line 5: non-finite value 'inf' in column 'x'"),
        ("t,x,y\n0,1,2\n\n1,3,nan\n2,-inf,4\n", {"time_column": "t"},
         "line 4: non-finite value 'nan' in column 'y'"),
        ("x,label\n1,0\n-inf,1\n", {"label_column": "label"},
         "line 3: non-finite value '-inf' in column 'x'"),
    ],
    ids=["one-column", "time-column", "label-column"],
)
def test_non_finite_value_numpy_parsed_is_not_read_again(tmp_path, content, options, message):
    # the line is found by one walk up to its row, not by another parse
    path = tmp_path / "in.csv"
    path.write_text(content)
    assert routed(lambda p: ingest_csv(p, **options), path) == (message, [str(path)])


def scan_peak(path, rows, dim):
    """tracemalloc peak of ingest_csv on a file with a text time column, and the
    file's body bytes per row."""
    rng = np.random.default_rng(rows + dim)
    body = "".join(
        f"t{i}," + ",".join(map(repr, rng.normal(size=dim).tolist())) + f",{i % 3}\n"
        for i in range(rows)
    )
    path.write_text("t," + ",".join(f"x{j}" for j in range(dim)) + ",label\n" + body)
    tracemalloc.start()
    try:
        series, sources = routed(lambda p: ingest_csv(p, time_column="t", label_column="label"),
                                 path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.data.shape == (rows, dim)
    assert sources == [str(path)]
    return peak, len(body)


@pytest.mark.parametrize("dim", [1, 3])
def test_text_time_column_peak_per_row_is_the_values(tmp_path, dim):
    # numpy reads the file by name in blocks and stores no byte of the time
    # column, so a row holds its dim values and its label at 8 bytes each, and
    # the series' copies of the values, but none of the file's text
    small, _ = scan_peak(tmp_path / "small.csv", 2_000, dim)
    large, _ = scan_peak(tmp_path / "large.csv", 20_000, dim)
    per_row = (large - small) / 18_000
    assert per_row < 32 * (dim + 1)


@pytest.mark.parametrize("cell", ["2020-01-01T00:00:00", "2020年1月", "", '"a,\nb"', "y" * 200_000],
                         ids=["iso", "non-ascii", "empty", "quoted-newline", "long"])
def test_an_ignored_column_is_a_zero_width_string(tmp_path, monkeypatch, cell):
    # numpy takes any text in a column typed U0 and keeps none of it, in the
    # one call that parses the body; the field count is still checked
    bodies = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        bodies.append(loadtxt(*args, **kwargs))
        return bodies[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    path = tmp_path / "in.csv"
    path.write_text(f"t,x,label\n{cell},1.5,2\n{cell},2.5,3\n")
    series = ingest_csv(path, time_column="t", label_column="label")
    assert (series.data.tolist(), series.labels.tolist()) == ([[1.5], [2.5]], [2, 3])
    assert [body.dtype["c0"] for body in bodies] == [np.dtype("U0")]
    path.write_text(f"t,x,label\n{cell},1.5,2\n{cell},2.5,3,4\n")
    line = 1 + 2 * (cell.count("\n") + 1)
    with pytest.raises(ValueError, match=f"line {line}: expected 3 fields, found 4$"):
        ingest_csv(path, time_column="t", label_column="label")


READER_CASES = [
    # (reader, file text, message after "<path>: " or the values read)
    (cli._read_indices, "1\n\n  \n2\n", [1, 2]),
    (cli._read_indices, " 3 \n1_0\n", "line 2: not an index: '1_0'"),
    (cli._read_indices, "", []),
    (cli._read_indices, "1 2\n", "line 1: not an index: '1 2'"),
    (cli._read_indices, "1\n2,3\n", "line 2: not an index: '2,3'"),
    (cli._read_indices, "# 3\n", "line 1: not an index: '# 3'"),
    (cli._read_indices, "1\n\n2.5\n", "line 3: not an index: '2.5'"),
    (column(2, float, "trace"), "t,a,b\n0,nan,1.5\n\n1,2,3,extra\n", np.array([1.5, 3.0])),
    (column(2, float, "trace"), "t,a,b\n0,1,2\n \n", "line 3: malformed trace row"),
    (column(2, float, "trace"), "t,a,b\n0,1,2\n1,2\n", "line 3: malformed trace row"),
    (column(1, int, "label"), 't,label\n0," 3 "\n1,1_0\n', "line 3: malformed label row"),
    (column(1, int, "label"), "t,label\n0,1\n1,1e3\n", "line 3: malformed label row"),
    (column(1, int, "label"), "t,label\n", np.array([], dtype=int)),
    (column(1, int, "label"), "t,label\n0,1\n1,9223372036854775808\n",
     "line 3: malformed label row"),
    (cli._read_indices, "1\n99999999999999999999\n", "line 2: not an index: '99999999999999999999'"),
    (cli._read_indices, "-9223372036854775809\n", "line 1: not an index: '-9223372036854775809'"),
    (cli._read_indices, "9223372036854775807\n1_0\n", "line 2: not an index: '1_0'"),
    # a quoted field that spans lines counts each of its lines, and lines end
    # only at \n, \r and \r\n, not also at \f, \v and U+2028 as str.splitlines
    (column(1, float, "trace"), 't,a\n0," 1\n"\n1,oops\n', "line 4: malformed trace row"),
    (column(1, int, "label"), 't,label\n0," 1\n"\n1,inf\n', "line 4: malformed label row"),
    (cli._read_indices, "1\n\f\n2x\n", "line 3: not an index: '2x'"),
    (cli._read_indices, "1\n\u2028\n2x\n", "line 3: not an index: '2x'"),
    (cli._read_indices, "1\f2\n", "line 1: not an index: '1\\x0c2'"),
    pytest.param(column(2, float, "trace"),
                 "t,a,b\n0,nan," + "0" * (LONG - 1) + "1\n", np.array([1.0]), id="long-number"),
    pytest.param(column(1, float, "trace"),
                 "t,a\n0,1\n1," + "x" * LONG + "\n", "line 3: malformed trace row", id="long-cell"),
    pytest.param(column(1, int, "label"),
                 "t," + "l" * LONG + "\n0,3\n", np.array([3]), id="long-header-name"),
    pytest.param(cli._read_indices, "3\n" + "0" * (LONG - 1) + "1\nx\n", "line 3: not an index: 'x'",
                 id="padded-index"),
    pytest.param(column(1, int, "label"),
                 "t,label\n0,10\n1," + "0" * 5_000 + "2\n", np.array([10, 2]), id="padded-label"),
]


@pytest.mark.parametrize("read,content,expected", READER_CASES)
def test_readers_follow_numpy(tmp_path, read, content, expected):
    path = tmp_path / "in.txt"
    path.write_text(content)
    got = follows_numpy(read, path)
    if isinstance(expected, str):
        assert got == (ValueError, f"{path}: {expected}")
    else:
        assert got == outcome(lambda: expected)


@pytest.mark.parametrize("text", [
    "0" * 30 + "1", "-" + "0" * 30 + "5", " +" + "0_0" * 10 + "_7 ", "0" * 30, "0_" * 15 + "1",
    "0__" + "0" * 30 + "1", "0" * 30 + "_", "_" + "0" * 30 + "1", "- " + "0" * 30 + "1",
    "1" + "0" * 30, "0" * 30 + "9223372036854775808", "0" * 30 + "9223372036854775807",
    "1" + "0" * 30 + "1",
])
def test_integers_read_as_int_reads_them_without_underscores(tmp_path, text):
    # numpy drops leading zeros as int() does, but refuses its underscores
    try:
        value = int(text) if "_" not in text else None
    except ValueError:
        value = None
    value = value if value is not None and -(2**63) <= value < 2**63 else None
    indices, table = tmp_path / "in.txt", tmp_path / "in.csv"
    indices.write_text(f"3\n{text}\n")
    table.write_text(f"x,label\n1,3\n2,{text}\n")
    got = [follows_numpy(cli._read_indices, indices),
           follows_numpy(functools.partial(ingest_csv, label_column="label"), table),
           follows_numpy(column(1, int, "label"), table)]
    if value is None:
        assert got == [(ValueError, f"{indices}: line 2: not an index: {text.strip()!r}"),
                       (ValueError, f"{table}: line 3: non-integer label {text!r}"),
                       (ValueError, f"{table}: line 3: malformed label row")]
    else:
        assert got == [[3, value],
                       outcome(lambda: TimeSeries(np.array([[1.0], [2.0]]), np.array([3, value]))),
                       outcome(lambda: np.array([3, value]))]


def routed(read, path):
    """``read(path)``'s value or message, and what each ``np.loadtxt`` call was
    given to read: a file name, or the type of what holds the lines (the lines
    of a handle after its header are an ``itertools.islice``)."""
    sources = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source if isinstance(source, str) else type(source))
        return loadtxt(source, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", spy)
        try:
            value = read(path)
        except ValueError as exc:
            value = str(exc).removeprefix(f"{path}: ")
    return value, sources


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "read,content,expected",
    [
        (lambda p: ingest_csv(p).data.tolist(), "x\n1\n2\n", [[1.0], [2.0]]),
        (lambda p: ingest_csv(p, time_column="t").data.tolist(),
         "t,x\n2020-01-01,1\n\n2020-01-02,2\n", [[1.0], [2.0]]),
        (lambda p: ingest_csv(p).data.tolist(), "x\n1\n\noops\n",
         "line 4: non-numeric value 'oops' in column 'x'"),
        (lambda p: cli._read_column(p, 1, int, "label").tolist(), "t,label\n0,1_0\n",
         "line 2: malformed label row"),
        (cli._read_indices, "3\n1_0\n", "line 2: not an index: '1_0'"),
        (lambda p: cli._read_column(p, 1, int, "label").tolist(), "t,label\n0,1\n1,2\n", [1, 2]),
        (cli._read_indices, "3\n10\n", [3, 10]),
    ],
    ids=["numeric", "text-time-column", "bad-row", "label-column", "indices",
         "numeric-label-column", "numeric-indices"],
)
def test_pipe_is_read_like_a_file(tmp_path, read, content, expected):
    # the pipe is buffered once, so numpy parses its body, and finds a refused
    # record, through the handle as it would a file by its name
    read_end, write_end = os.pipe()
    os.write(write_end, content.encode())
    os.close(write_end)
    try:
        value, sources = routed(read, f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert value == expected
    assert sources[0] is itertools.islice
    path = tmp_path / "in.csv"
    path.write_text(content)
    assert routed(read, path) == (value, [str(path), *sources[1:]])


TABLE = "t,x,label\n0,1.5,2\n1,2.5,3\n"
ROUTE_READERS = [
    (lambda p: ingest_csv(p, time_column="t", label_column="label").data.tolist(), TABLE,
     [[1.5], [2.5]]),
    (lambda p: cli._read_column(p, 2, int, "label").tolist(), TABLE, [2, 3]),
    (cli._read_indices, "3\n10\n", [3, 10]),
]
ROUTE_IDS = ["ingest_csv", "read_column", "read_indices"]


@pytest.mark.parametrize("read,content,expected", ROUTE_READERS, ids=ROUTE_IDS)
def test_numpy_reads_a_regular_file_by_its_absolute_name(tmp_path, monkeypatch, read, content,
                                                         expected):
    # by name numpy reads the file in blocks in C; relative, the name is made absolute
    monkeypatch.chdir(tmp_path)
    Path("in.csv").write_text(content)
    assert routed(read, "in.csv") == (expected, [str(tmp_path / "in.csv")])


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("read,content,expected", ROUTE_READERS, ids=ROUTE_IDS)
def test_numpy_reads_a_pipe_through_its_handle(read, content, expected):
    read_end, write_end = os.pipe()
    os.write(write_end, content.encode())
    os.close(write_end)
    try:
        assert routed(read, f"/dev/fd/{read_end}") == (expected, [itertools.islice])
    finally:
        os.close(read_end)


@pytest.mark.parametrize("name", ["x.csv", "x.csv.gz", "x.csv.bz2", "x.csv.xz", "x.csv.lzma",
                                  "http://x.csv"])
@pytest.mark.parametrize("read,content,expected", ROUTE_READERS, ids=ROUTE_IDS)
def test_a_name_numpy_would_decompress_or_fetch_reads_as_plain_text(tmp_path, monkeypatch, name,
                                                                    read, content, expected):
    # numpy decompresses a file by its suffix, and fetches a name that parses
    # as a URL; "http://x.csv" is the local file x.csv under the directory "http:"
    def no_network(*args, **kwargs):
        raise AssertionError("a reader opened a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    path = Path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(content)
    by_name = os.path.splitext(name)[1] not in (".gz", ".bz2", ".xz", ".lzma")
    source = str(tmp_path / path) if by_name else itertools.islice
    assert routed(read, name) == (expected, [source])


@pytest.mark.parametrize(
    "read,content,expected",
    [
        (lambda p: ingest_csv(p, label_column="la\nbel").labels.tolist(),
         'x,"la\nbel"\n1,2\n3,4\n', [2, 4]),
        (lambda p: cli._read_column(p, 1, float, "trace").tolist(),
         't,"a\r\nb"\r\n0,1.5\r\n1,2.5\r\n', [1.5, 2.5]),
        (lambda p: cli._read_column(p, 1, int, "label").tolist(), 't,"a\rb"\r0,1\r1,2\r', [1, 2]),
    ],
    ids=["newline", "crlf", "cr"],
)
def test_numpy_skips_the_physical_lines_of_a_header(tmp_path, read, content, expected):
    # the header's quoted field spans two lines: skipping one would leave numpy
    # a line it rejects, skipping three would lose a row
    path = tmp_path / "in.csv"
    path.write_bytes(content.encode())
    assert routed(read, path) == (expected, [str(path)])


@pytest.mark.parametrize("read,content,expected", ROUTE_READERS, ids=ROUTE_IDS)
def test_a_file_numpy_cannot_open_by_name_is_read_through_its_handle(tmp_path, monkeypatch, read,
                                                                     content, expected):
    # say the file was replaced by a directory after the reader opened it
    loadtxt = np.loadtxt

    def refuse_names(source, *args, **kwargs):
        if isinstance(source, str):
            raise IsADirectoryError(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", refuse_names)
    path = tmp_path / "in.csv"
    path.write_text(content)
    assert routed(read, path) == (expected, [str(path), itertools.islice])


CELL = st.sampled_from(["0", "1", "-2.5", "3e1", "1_0", "nan", "inf", " 4 ", '"5"', '"6', "x", ""])
SEPARATOR = st.sampled_from([",", "\n", "\r\n", ",", "\n", '"', " ", ";"])


@settings(max_examples=150, deadline=None)
@given(body=st.lists(st.one_of(CELL, SEPARATOR), max_size=24),
       delimiter=st.sampled_from([",", ",", ";", " ", '"']))
def test_readers_follow_numpy_on_any_text(tmp_path_factory, body, delimiter):
    path = tmp_path_factory.mktemp("fuzz") / "in.csv"
    text = "".join(body)
    path.write_text(delimiter.join(["t", "x", "label"]) + "\n" + text)
    for read in [functools.partial(ingest_csv, delimiter=delimiter),
                 functools.partial(ingest_csv, label_column="label", time_column="t",
                                   delimiter=delimiter),
                 column(2, int, "label"),
                 column(1, float, "trace")]:
        follows_numpy(read, path)
    path.write_text(text)
    follows_numpy(cli._read_indices, path)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("io")
    spec = {"seed": 11, "dimension": 2, "segments": [
        {"family": "normal", "location": 0, "scale": 1, "length": 80},
        {"family": "laplace", "location": 2, "scale": 1, "length": 80},
        {"family": "normal", "location": 0, "scale": 2, "length": 80},
    ]}
    (base / "spec.json").write_text(json.dumps(spec))
    assert run(["simulate", "--spec", base / "spec.json", "--out", base / "data.csv"]) == 0
    assert run(["calibrate-filter", "--beta", 15, "--ensemble", 8, "--seed", 2,
                "--out", base / "filter.json"]) == 0
    return base


def test_simulate_csv_bytes_match_the_cell_formatter(small_run):
    series = generate(cli._load_series_spec(small_run / "spec.json"))
    lines = ["t,x0,x1,label"]
    for t in range(len(series)):
        cells = [str(t), *(repr(float(v)) for v in series.data[t]), str(int(series.labels[t]))]
        lines.append(",".join(cells))
    assert (small_run / "data.csv").read_bytes() == "".join(f"{line}\n" for line in lines).encode()
    cps = "".join(f"{int(cp)}\n" for cp in series.change_points)
    assert (small_run / "data.csv.cps").read_text() == cps
    labels = "".join(f"{int(label)}\n" for label in series.labels)
    assert (small_run / "data.csv.labels").read_text() == labels


def test_change_point_beyond_int64_names_file_and_line(configs, tmp_path, capsys):
    cps = tmp_path / "big.txt"
    cps.write_text("3\n99999999999999999999\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(configs["cluster"]))
    assert run(["cluster", "--config", config, "--change-points", cps]) == 2
    assert (f"error: {cps}: line 2: not an index: '99999999999999999999'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("with_filter", [True, False])
def test_trace_csv_bytes_match_the_row_formatter(small_run, tmp_path, with_filter):
    argv = ["detect", "--input", small_run / "data.csv", "--time-column", "t",
            "--label-column", "label", "--beta", 15, "--out-dir", tmp_path]
    filt = None
    if with_filter:
        argv += ["--filter", small_run / "filter.json"]
        filt = load_filter(small_run / "filter.json")
    assert run(argv) == 0

    series = ingest_csv(small_run / "data.csv", label_column="label", time_column="t")
    result = detect(series, DetectorConfig(beta=15, lam=0.462, filter=filt))
    filtered = result.filtered.values if filt is not None else np.full(len(series), np.nan)
    rows = "".join(
        f"{t},{repr(float(result.raw.values[t]))},{repr(float(filtered[t]))}\n"
        for t in range(len(series))
    )
    expected = "t,sigma_raw,sigma_filtered\n" + rows
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode()
    assert "nan" in rows.splitlines()[0]


def test_labels_csv_bytes_match_the_row_formatter(small_run, tmp_path):
    assert run(["cluster", "--input", small_run / "data.csv", "--time-column", "t",
                "--label-column", "label", "--beta", 15, "--k", 3, "--seed", 4,
                "--change-points", small_run / "data.csv.cps", "--out-dir", tmp_path]) == 0

    series = ingest_csv(small_run / "data.csv", label_column="label", time_column="t")
    cps = [int(line) for line in (small_run / "data.csv.cps").read_text().split()]
    per_sample = cluster_segments(series, cps, K=3, beta=15, seed=4).per_sample(len(series))
    expected = "t,label\n" + "".join(f"{t},{per_sample[t]}\n" for t in range(len(series)))
    assert (tmp_path / "labels.csv").read_bytes() == expected.encode()


B = cli._BLOCK_LINES


@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_write_text_gives_the_joined_lines_at_every_block_boundary(tmp_path, count):
    lines = [f"{i},{i / 7!r}" for i in range(count)]
    path = tmp_path / "new" / "out.csv"
    cli._write_text(path, (line for line in lines))
    expected = "\n".join(lines) + "\n" if lines else ""
    assert path.read_bytes() == expected.encode()


def write_text_peak(path, count):
    """tracemalloc's peak while ``_write_text`` writes ``count`` lazily made lines."""
    lines = (f"{i:09d},0.12345678901234567,{-i / 3!r}" for i in range(count))
    tracemalloc.start()
    try:
        cli._write_text(path, lines)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_text_peak_does_not_grow_with_the_line_count(tmp_path):
    # the parent held every line, the joined text and its encoding: ten
    # times the lines took about ten times the memory
    short = write_text_peak(tmp_path / "short.csv", 2 * B)
    long = write_text_peak(tmp_path / "long.csv", 20 * B)
    assert long < 1.25 * short


def test_writer_outputs_do_not_depend_on_the_block_size(small_run, tmp_path, monkeypatch):
    # blocks of 7 lines split the series, its segments and every column
    def outputs(out):
        ingest = ["--input", out / "data.csv", "--time-column", "t", "--label-column", "label"]
        assert run(["simulate", "--spec", small_run / "spec.json", "--out", out / "data.csv"]) == 0
        assert run(["detect", *ingest, "--beta", 15, "--filter", small_run / "filter.json",
                    "--out-dir", out]) == 0
        assert run(["cluster", *ingest, "--beta", 15, "--k", 3, "--seed", 4,
                    "--change-points", out / "data.csv.cps", "--out-dir", out]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    default = outputs(tmp_path / "default")
    monkeypatch.setattr(cli, "_BLOCK_LINES", 7)
    assert outputs(tmp_path / "small") == default
    assert len(default) == 7


def test_labels_csv_writes_hold_at_most_a_block_of_lines(small_run, tmp_path, monkeypatch):
    # runs of one line, of a block, and of more than a block, cut at 7 lines:
    # joining 7 runs per write, as a block of lines does, put 49 lines in one
    cps = tmp_path / "cps.txt"
    cps.write_text("".join(f"{cp}\n" for cp in [1, 2, 3, 10, 24, 40, 41, 150]))
    args = ["cluster", "--input", small_run / "data.csv", "--time-column", "t",
            "--label-column", "label", "--beta", 15, "--k", 3, "--seed", 4, "--change-points", cps]
    assert run([*args, "--out-dir", tmp_path / "default"]) == 0
    writes = []
    open_ = Path.open

    class Recorder:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def write(self, text):
            writes.append(text)
            return self.handle.write(text)

    def spy(path, mode="r", *args, **kwargs):
        handle = open_(path, mode, *args, **kwargs)
        return Recorder(handle) if path.name == "labels.csv" and "w" in mode else handle

    monkeypatch.setattr(cli, "_BLOCK_LINES", 7)
    monkeypatch.setattr(Path, "open", spy)
    assert run([*args, "--out-dir", tmp_path / "small"]) == 0
    written = (tmp_path / "small" / "labels.csv").read_bytes()
    assert "".join(writes).encode() == written
    assert written == (tmp_path / "default" / "labels.csv").read_bytes()
    assert max(text.count("\n") for text in writes) == 7


@pytest.mark.parametrize("cps, k", [([], 1), ([1, 2, 5, 6], 2), ([3], 2)],
                         ids=["one-segment", "length-one-segments", "two-segments"])
def test_cluster_csv_bytes_match_the_row_formatters(configs, tmp_path, cps, k):
    data = configs["cluster"]["input"]
    cps_path = tmp_path / "case.cps"
    cps_path.write_text("".join(f"{cp}\n" for cp in cps))
    out = tmp_path / "clustered"
    assert run(["cluster", "--input", data, "--time-column", "t", "--beta", 2, "--k", k,
                "--change-points", cps_path, "--out-dir", out]) == 0

    series = ingest_csv(data, time_column="t")
    labeling = cluster_segments(series, cps, K=k, beta=2, seed=0)
    bounds = [0, *cps, len(series)]
    segments = "".join(f"{i},{bounds[i]},{bounds[i + 1]},{label}\n"
                       for i, label in enumerate(labeling.labels.tolist()))
    per_sample = labeling.per_sample(len(series)).tolist()
    labels = "".join(f"{t},{label}\n" for t, label in enumerate(per_sample))
    assert (out / "segments.csv").read_bytes() == f"segment_index,start,end,label\n{segments}".encode()
    assert (out / "labels.csv").read_bytes() == f"t,label\n{labels}".encode()


def test_change_points_txt_is_empty_when_nothing_is_detected(configs, tmp_path):
    out = tmp_path / "quiet"
    assert run(["detect", "--input", configs["detect"]["input"], "--time-column", "t",
                "--beta", 2, "--lambda", 1e300, "--out-dir", out]) == 0
    assert (out / "change_points.txt").read_bytes() == b""


@pytest.fixture()
def configs(tmp_path):
    data = tmp_path / "seven.csv"
    data.write_text("t,x0\n" + "".join(f"{t},{(3 * t) % 7}\n" for t in range(7)))
    cps = tmp_path / "cps.txt"
    cps.write_text("3\n")
    trace = tmp_path / "trace.csv"
    trace.write_text("t,sigma_raw,sigma_filtered\n"
                     + "".join(f"{t},{v},{v}\n" for t, v in enumerate("nan 1 2 3 2 1 nan".split())))
    ingest = {"input": str(data), "time-column": "t", "beta": 2, "out-dir": str(tmp_path / "out")}
    return {
        "detect": ingest,
        "cluster": {**ingest, "k": 1, "change-points": str(cps)},
        "evaluate": {"predicted": str(cps), "truth": str(cps), "delta": 1, "trace": str(trace)},
    }


@pytest.mark.parametrize("command", ["detect", "cluster", "evaluate"])
def test_config_of_the_right_types_runs(configs, tmp_path, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(configs[command]))
    assert run([command, "--config", config]) == 0


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("detect", "input", 5),
        ("detect", "out-dir", ["out"]),
        ("detect", "filter", 5),
        ("cluster", "change-points", 3),
        ("evaluate", "truth", 7),
        ("detect", "label-column", 1),
        ("detect", "time-column", ["t"]),
        ("detect", "value-columns", 3),
        ("detect", "value-columns", ["x0", 1]),
        ("evaluate", "trace-column", ["raw"]),
        ("detect", "difference", "false"),
        ("detect", "difference", 1),
        ("detect", "beta", 2.9),
        ("detect", "beta", True),
        ("cluster", "k", "3"),
        ("cluster", "seed", 1.5),
        ("evaluate", "delta", 1.7),
        ("detect", "lambda", True),
        ("detect", "lambda", "0.5"),
        ("detect", "lambda", 10**400),
        ("evaluate", "trace-column", "bogus"),
    ],
    ids=["path-input", "path-out-dir", "path-filter", "path-change-points", "path-truth",
         "column-label", "column-time", "columns-number", "columns-list-of-number",
         "column-trace", "bool-string", "bool-number", "int-float", "int-bool", "int-string",
         "seed-float", "delta-float", "number-bool", "number-string", "number-too-large",
         "column-trace-name"],
)
def test_config_value_of_wrong_type_names_file_and_key(configs, tmp_path, capsys,
                                                      command, key, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**configs[command], key: value}))
    assert run([command, "--config", config]) == 2
    assert f"error: {config}: {key!r}: " in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", ['"', "\n", "\r"])
def test_a_delimiter_numpy_cannot_split_on_is_refused(configs, tmp_path, capsys, delimiter):
    # numpy raises TypeError for its quote and for a line end: from the flag a
    # usage error, from the config file a data error, from the library numpy's
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(configs["detect"]))
    assert run(["detect", "--config", config, "--delimiter", delimiter]) == 1
    assert capsys.readouterr().err.startswith("usage error: --delimiter: must be one character")
    config.write_text(json.dumps({**configs["detect"], "delimiter": delimiter}))
    assert run(["detect", "--config", config]) == 2
    assert f"error: {config}: 'delimiter': " in capsys.readouterr().err
    with pytest.raises(TypeError):
        ingest_csv(configs["detect"]["input"], delimiter=delimiter)


@pytest.mark.parametrize("lam", [1, 0.25])
def test_config_lambda_takes_any_json_number(configs, tmp_path, lam):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**configs["detect"], "lambda": lam}))
    assert run(["detect", "--config", config]) == 0


@pytest.mark.parametrize("difference,rows", [(False, 7), (True, 6)])
def test_config_difference_is_a_json_bool(configs, tmp_path, difference, rows):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**configs["detect"], "difference": difference}))
    assert run(["detect", "--config", config]) == 0
    assert len((tmp_path / "out/trace.csv").read_text().splitlines()) == rows + 1


def test_config_value_columns_as_list_or_string(configs, tmp_path):
    outputs = []
    for columns in (["x0"], " x0 ,"):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**configs["detect"], "value-columns": columns}))
        assert run(["detect", "--config", config]) == 0
        outputs.append((tmp_path / "out/trace.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["detect", "evaluate"])
@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_non_finite_lambda_names_flag_or_file_and_key(configs, tmp_path, capsys, command, lam):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(configs[command]))
    assert run([command, "--config", config, f"--lambda={lam}"]) == 1
    assert "usage error: --lambda: must be finite" in capsys.readouterr().err
    config.write_text(json.dumps({**configs[command], "lambda": float(lam)}))
    assert run([command, "--config", config]) == 2
    assert f"error: {config}: 'lambda': must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,key,value,low",
    [
        ("detect", "beta", 1, 2),
        ("cluster", "beta", 0, 1),
        ("cluster", "k", 0, 1),
        ("cluster", "seed", -1, 0),
        ("evaluate", "delta", -1, 0),
        ("evaluate", "k", 0, 1),
        ("evaluate", "beta", -7, 1),  # used to be written into the report
    ],
)
def test_integer_below_its_bound_names_flag_or_file_and_key(configs, tmp_path, capsys,
                                                           command, key, value, low):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(configs[command]))
    assert run([command, "--config", config, f"--{key}", value]) == 1
    assert f"usage error: --{key}: must be at least {low}, not {value}" in capsys.readouterr().err
    config.write_text(json.dumps({**configs[command], key: value}))
    assert run([command, "--config", config]) == 2
    assert (f"error: {config}: {key!r}: must be at least {low}, not {value}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key,value,low", [("beta", 1, 2), ("ensemble", 0, 1), ("seed", -1, 0)])
def test_calibrate_option_below_its_bound_is_a_usage_error(tmp_path, capsys, key, value, low):
    out = tmp_path / "filter.json"
    assert run(["calibrate-filter", f"--{key}", value, "--out", out]) == 1
    assert f"usage error: --{key}: must be at least {low}, not {value}" in capsys.readouterr().err
    assert not out.exists()


def test_trace_column_flag_is_checked_by_its_converter(configs, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(configs["evaluate"]))
    assert run(["evaluate", "--config", config, "--trace-column", "bogus"]) == 1
    assert ("usage error: --trace-column: must be 'raw' or 'filtered', not 'bogus'"
            in capsys.readouterr().err)


def test_cluster_k_above_segment_count_stays_a_data_error(configs, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**configs["cluster"], "k": 3}))
    assert run(["cluster", "--config", config]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "key,value",
    [
        ("length", 30.9),
        ("length", True),
        ("length", "30"),
        ("location", True),
        ("location", "0"),
        ("location", float("nan")),
        ("scale", None),
        ("dimension", 2.0),
        ("seed", "1"),
        ("seed", False),
    ],
)
def test_spec_value_of_wrong_type_names_file_and_key(tmp_path, capsys, key, value):
    segment = {"family": "normal", "location": 0, "scale": 1, "length": 30}
    spec = {"seed": 1, "dimension": 1, "segments": [segment]}
    if key in spec:
        spec[key] = value
    else:
        segment[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["simulate", "--spec", path, "--out", tmp_path / "x.csv"]) == 2
    assert f"error: {path}: {key!r}: " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"seed": 1}, "spec needs a 'segments' key"),
        ({"segments": [{"length": 30}]}, "segment entries need a 'family' key"),
        ({"segments": [{"family": "normal"}]}, "segment entries need a 'length' key"),
    ],
)
def test_spec_missing_key_is_named(tmp_path, capsys, spec, message):
    # a spec without "segments" was reported as a segment entry without one
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["simulate", "--spec", path, "--out", tmp_path / "x.csv"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "family,location,scale",
    [("normal", 0.0, 1e308), ("laplace", 1.7e308, 1e307), ("laplace", -1.7e308, 1e307)],
)
def test_simulate_overflow_names_file_and_segment(tmp_path, capsys, family, location, scale):
    # the second segment overflows float64: no numpy warning, exit 2, and
    # the message names the spec file and the segment
    huge = {"family": family, "location": location, "scale": scale, "length": 50}
    spec = {"seed": 1, "segments": [{"family": "normal", "length": 30}, huge]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["simulate", "--spec", path, "--out", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: segment 1: ")
    assert "Warning" not in err
    assert not (tmp_path / "x.csv").exists()


def test_readers_restore_the_field_size_limit(tmp_path):
    # the readers lift csv's process-wide limit only while they read
    path = tmp_path / "in.csv"
    limit = csv.field_size_limit(1_000)
    try:
        for content in ("x\n1\n", "x\n1\n" + "y" * LONG + "\n"):
            path.write_text(content)
            outcome(ingest_csv, path)
            outcome(cli._read_column, path, 0, float, "trace")
            assert csv.field_size_limit() == 1_000
    finally:
        csv.field_size_limit(limit)


# The CLI fuzz: a small valid round trip whose files and option values are
# mutated. Paths are relative to the directory each example writes.
FUZZ_ARGS = {
    "simulate": {"spec": "spec.json", "out": "out/data.csv"},
    "calibrate-filter": {"beta": 5, "ensemble": 2, "seed": 0, "pairs": "pairs.json",
                         "out": "out/filter.json"},
    "detect": {"config": "detect.json", "beta": 5, "filter": "filter.json"},
    "cluster": {"input": "data.csv", "time-column": "t", "label-column": "label", "beta": 5,
                "k": 2, "seed": 0, "change-points": "data.csv.cps", "out-dir": "out"},
    "evaluate": {"config": "evaluate.json", "trace": "trace.csv", "predicted-labels": "labels.csv",
                 "truth-labels": "data.csv.labels", "k": 2, "beta": 5},
}
FUZZ_CONFIGS = {
    "detect.json": {"input": "data.csv", "time-column": "t", "label-column": "label",
                    "lambda": 0.3, "out-dir": "out"},
    "evaluate.json": {"predicted": "change_points.txt", "truth": "data.csv.cps", "delta": 5},
}
FUZZ_PATHS = {"spec", "pairs", "config", "filter", "input", "change-points", "predicted", "truth",
              "trace", "predicted-labels", "truth-labels", "out", "out-dir"}
FUZZ_OUTPUTS = {"out", "out-dir"}
FUZZ_JSON = {"simulate": ["spec.json"], "calibrate-filter": ["pairs.json"],
             "detect": ["detect.json", "filter.json"], "cluster": [], "evaluate": ["evaluate.json"]}
FUZZ_TABLES = {"simulate": [], "calibrate-filter": [], "detect": ["data.csv"],
               "cluster": ["data.csv", "data.csv.cps"],
               "evaluate": ["change_points.txt", "data.csv.cps", "trace.csv", "labels.csv",
                            "data.csv.labels"]}
MISSING = object()  # a JSON mutation that deletes the key or the list entry
DROP = object()  # a CSV mutation that deletes the cell, so the row has one field fewer
JSON_VALUES = [float("nan"), float("inf"), -float("inf"), 2**63, [[1, 2]], MISSING]
CSV_TEXTS = ['"1"', '"', '2"3', "1_0", "", "1,2", DROP, "y" * LONG]
INTEGERS = [0, -1, 10**5, 10**20]
# calibrate-filter runs any beta and ensemble it accepts, so draw only the
# values it must refuse: a beta of 10**5 or an ensemble of 10**5 runs for seconds
REFUSED = {("calibrate-filter", "beta"): [0, -1, 10**15, 10**20], ("calibrate-filter", "ensemble"): [0, -1]}


@st.composite
def cli_cases(draw):
    """A command and one or two mutations of its files or integer options."""
    command = draw(st.sampled_from(sorted(FUZZ_ARGS)))
    kinds = [
        st.tuples(st.just("option"), st.just(name),
                  st.sampled_from(REFUSED.get((command, name), INTEGERS)))
        for name, value in FUZZ_ARGS[command].items() if isinstance(value, int)
    ]
    if FUZZ_JSON[command]:
        kinds.append(st.tuples(st.just("json"), st.sampled_from(FUZZ_JSON[command]),
                               st.integers(0, 40), st.sampled_from(JSON_VALUES)))
    if FUZZ_TABLES[command]:
        kinds.append(st.tuples(st.just("csv"), st.sampled_from(FUZZ_TABLES[command]),
                               st.integers(0, 200), st.integers(0, 3),
                               st.sampled_from(CSV_TEXTS)))
    return command, tuple(draw(st.lists(st.one_of(kinds), min_size=1, max_size=2)))


def json_slots(node):
    """Every (container, key or index) of a JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from json_slots(node[key])


def mutate(directory, args, mutation):
    kind, target, *rest = mutation
    if kind == "option":
        args[target] = rest[0]
    elif kind == "json":
        position, value = rest
        path = directory / target
        document = json.loads(path.read_text())
        slots = list(json_slots(document))
        if not slots:  # an earlier mutation emptied the document
            return
        container, key = slots[position % len(slots)]
        if value is MISSING:
            del container[key]
        else:
            container[key] = value
        path.write_text(json.dumps(document))
    else:
        line, cell, text = rest
        path = directory / target
        lines = path.read_text().split("\n")
        cells = lines[line % len(lines)].split(",")
        if text is DROP:
            del cells[cell % len(cells)]
        else:
            cells[cell % len(cells)] = text
        lines[line % len(lines)] = ",".join(cells)
        path.write_text("\n".join(lines))


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """The bytes of every file the fuzzed commands read."""
    base = tmp_path_factory.mktemp("round-trip")
    spec = {"seed": 3, "dimension": 1, "segments": [
        {"family": "normal", "location": 0, "scale": 1, "length": 30},
        {"family": "laplace", "location": 4, "scale": 1, "length": 30},
    ]}
    pairs = [[{"family": "normal", "location": 0, "scale": 1},
              {"family": "normal", "location": 3, "scale": 1}]]
    (base / "spec.json").write_text(json.dumps(spec))
    (base / "pairs.json").write_text(json.dumps(pairs))
    ingest = ["--input", base / "data.csv", "--time-column", "t", "--label-column", "label",
              "--beta", 5]
    for argv in (["simulate", "--spec", base / "spec.json", "--out", base / "data.csv"],
                 ["calibrate-filter", "--beta", 5, "--ensemble", 2, "--pairs", base / "pairs.json",
                  "--out", base / "filter.json"],
                 ["detect", *ingest, "--filter", base / "filter.json", "--out-dir", base],
                 ["cluster", *ingest, "--k", 2, "--change-points", base / "data.csv.cps",
                  "--out-dir", base]):
        assert run(argv) == 0
    return {path.name: path.read_bytes() for path in base.iterdir()}


@settings(max_examples=400, deadline=None)
@given(case=cli_cases())
@example(case=("evaluate", (("option", "k", 10**20),)))
@example(case=("evaluate", (("option", "k", 10**5),)))
@example(case=("calibrate-filter", (("option", "beta", 10**20),)))
@example(case=("calibrate-filter", (("option", "beta", 10**15),)))
@example(case=("detect", (("csv", "data.csv", 5, 1, "y" * LONG),)))
@example(case=("evaluate", (("csv", "trace.csv", 30, 2, "y" * LONG),)))
@example(case=("simulate", (("json", "spec.json", 1, 2**63),)))  # the dimension
def test_every_mutated_input_gets_its_exit_code(tmp_path_factory, round_trip, case):
    command, mutations = case
    directory = tmp_path_factory.mktemp("cli-fuzz")
    for name, content in round_trip.items():
        (directory / name).write_bytes(content)
    for name, config in FUZZ_CONFIGS.items():
        (directory / name).write_text(json.dumps(
            {key: str(directory / value) if key in FUZZ_PATHS else value
             for key, value in config.items()}))
    args = dict(FUZZ_ARGS[command])
    for mutation in mutations:
        mutate(directory, args, mutation)

    argv = [command]
    for name, value in args.items():
        argv += [f"--{name}", str(directory / value) if name in FUZZ_PATHS else str(value)]
    inputs = [str(directory / value) for name, value in args.items()
              if name in FUZZ_PATHS - FUZZ_OUTPUTS]
    if "config" in args:
        inputs += [str(directory / value) for key, value in FUZZ_CONFIGS[args["config"]].items()
                   if key in FUZZ_PATHS - FUZZ_OUTPUTS]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code == 1:
        assert err.startswith("usage error:"), err
    elif code == 2:
        assert err.startswith("error: "), err
        assert any(path in err for path in inputs), err
    elif code == 3:
        assert err.startswith("numerical failure:"), err


WALK = cli._WALK_RECORDS
# the first and the last record of the first two blocks the walk hands numpy
EDGES = pytest.mark.parametrize("bad_at", [0, WALK - 1, WALK, 2 * WALK - 1],
                                ids=["first", "last-of-block", "first-of-next", "last"])


def walk_table(header, records):
    """``header`` and ``records`` as a file's text, a blank line before every eighth
    record, so the first of each block; and the line each record ends on."""
    lines = [header]
    ends = []
    for r, record in enumerate(records):
        lines += [""] * (r % 8 == 0) + record.split("\n")
        ends.append(len(lines))
    return "\n".join(lines) + "\n", ends


TABLE_READERS = pytest.mark.parametrize("read,message", [
    (ingest_csv, "non-numeric value {bad!r} in column 'x'"),
    (column(0, float, "trace"), "malformed trace row"),
], ids=["ingest_csv", "read_column"])


@EDGES
@TABLE_READERS
def test_the_walk_names_a_refused_record_at_a_block_edge(tmp_path, read, message, bad_at):
    records = [str(r) for r in range(2 * WALK)]
    records[bad_at] = "oops"
    text, ends = walk_table("x", records)
    path = tmp_path / "in.csv"
    path.write_text(text)
    expected = f"{path}: line {ends[bad_at]}: {message.format(bad='oops')}"
    assert follows_numpy(read, path) == (ValueError, expected)


@pytest.mark.parametrize("quoted_at,quoted,bad_at", [
    (WALK - 1, '" 1\n\n"', WALK),  # numpy takes it: it ends the first block, three lines long
    (WALK - 1, '"1\nx"', WALK - 1),  # refused, it ends the first block
    (WALK, '"1\nx"', WALK),  # refused, it starts the second
    (WALK, '" 1\n"', WALK + 1),
], ids=["taken-last", "refused-last", "refused-first", "taken-first"])
@TABLE_READERS
def test_the_walk_counts_the_lines_of_a_quoted_record_at_a_block_edge(tmp_path, read, message,
                                                                      quoted_at, quoted, bad_at):
    records = [str(r) for r in range(2 * WALK)]
    records[quoted_at] = quoted
    if bad_at != quoted_at:
        records[bad_at] = "oops"
    text, ends = walk_table("x", records)
    path = tmp_path / "in.csv"
    path.write_text(text)
    bad = "oops" if bad_at != quoted_at else quoted.strip('"')
    expected = f"{path}: line {ends[bad_at]}: {message.format(bad=bad)}"
    assert follows_numpy(read, path) == (ValueError, expected)


@EDGES
def test_the_walk_names_a_refused_index_at_a_block_edge(tmp_path, bad_at):
    # every line of an index file is a record for the walk, a blank one too
    lines = ["" if n % 8 in (1, 6) else str(n) for n in range(2 * WALK)]
    lines[bad_at] = "2x"
    path = tmp_path / "in.txt"
    path.write_text("\n".join(lines) + "\n")
    expected = (ValueError, f"{path}: line {bad_at + 1}: not an index: '2x'")
    assert follows_numpy(cli._read_indices, path) == expected


@pytest.mark.parametrize("last,message", [("oops", "non-numeric value 'oops'"),
                                          ("inf", "non-finite value 'inf'")])
def test_a_refused_row_is_found_without_holding_the_file(tmp_path, last, message):
    # the walk holds one block of records at a time, and the non-finite value's
    # line is found by a walk too: every line of this 8 MB file as a string
    # takes about 30 MB
    rows = 200_000
    rng = np.random.default_rng(rows)
    path = tmp_path / "in.csv"
    with path.open("w") as handle:
        handle.write("t,x0,label\n")
        handle.writelines(f"2020-01-01 t{i},{v!r},{i % 3}\n"
                          for i, v in enumerate(rng.normal(size=rows - 1).tolist()))
        handle.write(f"2020-01-01 t{rows - 1},{last},0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"line {rows + 1}: {message} in column 'x0'$"):
            ingest_csv(path, time_column="t", label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_a_body_no_record_of_which_numpy_refuses_alone_keeps_numpy_message(tmp_path,
                                                                          monkeypatch):
    # numpy reads the file by its name and the walk reads the handle, so they
    # differ where the path was given another file after the reader opened it:
    # numpy's verdict on the body then stands, and a refused body always raises
    loadtxt = np.loadtxt

    def refuse_names(source, *args, **kwargs):
        if isinstance(source, str):
            raise ValueError("refused by name")
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", refuse_names)
    path = tmp_path / "in.csv"
    for read, content in [(ingest_csv, "x\n1\n"), (column(0, float, "trace"), "a\n1\n"),
                          (cli._read_indices, "1\n")]:
        path.write_text(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: refused by name$"):
            read(path)


def test_the_first_value_column_numpy_refuses_is_named_and_no_later_one_judged(tmp_path,
                                                                               monkeypatch):
    columns = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        columns.append(kwargs.get("usecols"))
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    path = tmp_path / "in.csv"
    path.write_text("x,y,z\n1,2,3\n4,a,b\n")
    with pytest.raises(ValueError, match="line 3: non-numeric value 'a' in column 'y'$"):
        ingest_csv(path)
    assert [c for c in columns if c is not None] == [[0], [1]]
