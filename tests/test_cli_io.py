"""The CLI's table I/O: numpy's body parse against the line-by-line reader,
the bytes of the writers, and the types of config values."""

import csv
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    if isinstance(value, TimeSeries):
        labels = None if value.labels is None else value.labels.tolist()
        return value.data.shape, value.data.tobytes(), labels
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def both_ways(read, *args, **kwargs):
    """``outcome`` with numpy's body parse, and with the line-by-line reader alone."""
    fast = outcome(read, *args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse_body", lambda *args, **kwargs: None)
        slow = outcome(read, *args, **kwargs)
    return fast, slow


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
    (b"x\n1_0\n2\n", {}, ([[10.0], [2.0]], None)),
    (b"t,x\n2020-01-01,1.5\n2020-01-02,2.5\n", {"time_column": "t"}, ([[1.5], [2.5]], None)),
    (b"x\n1\n\n\ninf\n", {}, "line 5: non-finite value 'inf' in column 'x'"),
    (b"x,y\n1,2\n\n3,nan\n", {}, "line 4: non-finite value 'nan' in column 'y'"),
    (b"x\n\n\n", {}, "empty series"),
    (b'x"y\n1"2\n', {"delimiter": '"'}, ([[1.0, 2.0]], None)),
    (b"x,label\n1,0\n2,99999999999999999999\n", {"label_column": "label"},
     "line 3: non-integer label '99999999999999999999'"),
    (b"x,label\n1,9223372036854775807\n2,-9223372036854775808\n", {"label_column": "label"},
     ([[1.0], [2.0]], [2**63 - 1, -(2**63)])),
]


@pytest.mark.parametrize("content,options,expected", INGEST_CASES)
def test_ingest_numpy_path_matches_line_by_line(tmp_path, content, options, expected):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    fast, slow = both_ways(ingest_csv, path, **options)
    assert fast == slow
    if isinstance(expected, str):
        assert fast == (ValueError, f"{path}: {expected}")
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


def scan_peak(path, rows, dim):
    """tracemalloc peak of ingest_csv on a file whose text time column only
    the line-by-line reader takes, and the file's body bytes per row."""
    rng = np.random.default_rng(rows + dim)
    body = "".join(
        f"t{i}," + ",".join(map(repr, rng.normal(size=dim).tolist())) + f",{i % 3}\n"
        for i in range(rows)
    )
    path.write_text("t," + ",".join(f"x{j}" for j in range(dim)) + ",label\n" + body)
    tracemalloc.start()
    try:
        series = ingest_csv(path, time_column="t", label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.data.shape == (rows, dim)
    return peak, len(body)


@pytest.mark.parametrize("dim", [1, 3])
def test_line_by_line_peak_per_row_is_the_text_and_the_values(tmp_path, dim):
    # besides the file text, a row holds its dim values and its label at
    # 8 bytes each (and the series' copy); the parent kept a list of Python
    # floats per row and a line number: about 200 more bytes a row
    small, small_bytes = scan_peak(tmp_path / "small.csv", 2_000, dim)
    large, large_bytes = scan_peak(tmp_path / "large.csv", 20_000, dim)
    per_row = (large - small) / 18_000
    assert per_row < (large_bytes - small_bytes) / 18_000 + 32 * (dim + 1)



READER_CASES = [
    # (reader, file text, message after "<path>: " or the values read)
    (cli._read_indices, "1\n\n  \n2\n", [1, 2]),
    (cli._read_indices, " 3 \n1_0\n", [3, 10]),
    (cli._read_indices, "", []),
    (cli._read_indices, "1 2\n", "line 1: not an index: '1 2'"),
    (cli._read_indices, "1\n2,3\n", "line 2: not an index: '2,3'"),
    (cli._read_indices, "# 3\n", "line 1: not an index: '# 3'"),
    (cli._read_indices, "1\n\n2.5\n", "line 3: not an index: '2.5'"),
    (lambda p: cli._read_column(p, 2, float, "trace"),
     "t,a,b\n0,nan,1.5\n\n1,2,3,extra\n", np.array([1.5, 3.0])),
    (lambda p: cli._read_column(p, 2, float, "trace"), "t,a,b\n0,1,2\n \n",
     "line 3: malformed trace row"),
    (lambda p: cli._read_column(p, 2, float, "trace"), "t,a,b\n0,1,2\n1,2\n",
     "line 3: malformed trace row"),
    (lambda p: cli._read_column(p, 1, int, "label"), 't,label\n0," 3 "\n1,1_0\n', np.array([3, 10])),
    (lambda p: cli._read_column(p, 1, int, "label"), "t,label\n0,1\n1,1e3\n",
     "line 3: malformed label row"),
    (lambda p: cli._read_column(p, 1, int, "label"), "t,label\n", np.array([], dtype=int)),
    (lambda p: cli._read_column(p, 1, int, "label"), "t,label\n0,1\n1,9223372036854775808\n",
     "line 3: malformed label row"),
    (cli._read_indices, "1\n99999999999999999999\n", "line 2: not an index: '99999999999999999999'"),
    (cli._read_indices, "-9223372036854775809\n", "line 1: not an index: '-9223372036854775809'"),
    (cli._read_indices, "9223372036854775807\n1_0\n", [2**63 - 1, 10]),
]


@pytest.mark.parametrize("read,content,expected", READER_CASES)
def test_readers_numpy_path_matches_line_by_line(tmp_path, read, content, expected):
    path = tmp_path / "in.txt"
    path.write_text(content)
    fast, slow = both_ways(read, path)
    assert fast == slow
    if isinstance(expected, str):
        assert fast == (ValueError, f"{path}: {expected}")
    else:
        assert fast == outcome(lambda: expected)


def routed(read, path):
    """``read(path)``'s value or message, and whether numpy parsed each body it read."""
    routes = []
    parse_body = cli._parse_body

    def spy(*args, **kwargs):
        body = parse_body(*args, **kwargs)
        routes.append(body is not None)
        return body

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse_body", spy)
        try:
            value = read(path)
        except ValueError as exc:
            value = str(exc).removeprefix(f"{path}: ")
    return value, routes


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "read,content,expected,numpy_parses",
    [
        (lambda p: ingest_csv(p).data.tolist(), "x\n1\n2\n", [[1.0], [2.0]], True),
        (lambda p: ingest_csv(p, time_column="t").data.tolist(),
         "t,x\n2020-01-01,1\n\n2020-01-02,2\n", [[1.0], [2.0]], False),
        (lambda p: ingest_csv(p).data.tolist(), "x\n1\n\noops\n",
         "line 4: non-numeric value 'oops' in column 'x'", False),
        (lambda p: cli._read_column(p, 1, int, "label").tolist(), "t,label\n0,1_0\n", [10], False),
        (cli._read_indices, "3\n1_0\n", [3, 10], False),
        (lambda p: cli._read_column(p, 1, int, "label").tolist(), "t,label\n0,1\n1,2\n", [1, 2],
         True),
        (cli._read_indices, "3\n10\n", [3, 10], True),
    ],
    ids=["numeric", "text-time-column", "bad-row", "label-column", "indices",
         "numeric-label-column", "numeric-indices"],
)
def test_pipe_is_read_like_a_file(tmp_path, read, content, expected, numpy_parses):
    # the pipe is buffered once, so numpy parses its body as it would a file's
    read_end, write_end = os.pipe()
    os.write(write_end, content.encode())
    os.close(write_end)
    try:
        from_pipe = routed(read, f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert from_pipe == (expected, [numpy_parses])
    (tmp_path / "in.csv").write_text(content)
    assert routed(read, tmp_path / "in.csv") == from_pipe


CELL = st.sampled_from(["0", "1", "-2.5", "3e1", "1_0", "nan", "inf", " 4 ", '"5"', '"6', "x", ""])
SEPARATOR = st.sampled_from([",", "\n", "\r\n", ",", "\n", '"', " ", ";"])


@settings(max_examples=150, deadline=None)
@given(body=st.lists(st.one_of(CELL, SEPARATOR), max_size=24),
       delimiter=st.sampled_from([",", ",", ";", " ", '"']))
def test_numpy_path_matches_line_by_line_on_any_text(tmp_path_factory, body, delimiter):
    path = tmp_path_factory.mktemp("fuzz") / "in.csv"
    text = "".join(body)
    path.write_text(delimiter.join(["t", "x", "label"]) + "\n" + text)
    for read, *args in [(ingest_csv, path, None, None, None, delimiter),
                        (ingest_csv, path, None, "label", "t", delimiter),
                        (cli._read_column, path, 2, int, "label"),
                        (cli._read_column, path, 1, float, "trace")]:
        fast, slow = both_ways(read, *args)
        assert fast == slow
    path.write_text(text)
    fast, slow = both_ways(cli._read_indices, path)
    assert fast == slow


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
