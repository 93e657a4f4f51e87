"""Command-line front end: simulate, calibrate-filter, detect, cluster, evaluate.

All randomness flows from explicit seeds and every writer emits text in a
fixed order, so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cpd import (
    DEFAULT_CHANGE_PAIRS,
    DetectorConfig,
    StatTrace,
    _change_pairs,
    detect,
    estimate_matched_filter,
    load_filter,
    save_filter,
)
from .empirical import NULL
from .errors import NumericalError
from .metrics import cp_auc, cp_f1, label_accuracy
from .series import TimeSeries
from .simgen import DistSpec, SeriesSpec, generate
from .tssc import SegmentLabeling, cluster_segments

__all__ = ["main", "entrypoint", "ingest_csv"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


_BLOCK_LINES = 4096  # lines a writer formats, joins and writes at a time


def _write_text(path: Path, lines) -> None:
    """Each of ``lines`` ended by a newline; no lines, an empty file.

    ``lines`` is read ``_BLOCK_LINES`` at a time, and each block is joined
    and written before the next is read, so a writer that makes its lines
    lazily holds one block of text, not the whole file.
    """
    lines = iter(lines)
    blocks = iter(lambda: list(itertools.islice(lines, _BLOCK_LINES)), [])
    _write_blocks(path, ("\n".join([*block, ""]) for block in blocks))


def _write_blocks(path: Path, texts) -> None:
    """Each of ``texts`` written as it comes, by one write each, to a new file at ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:  # text mode, as Path.write_text opens it
        for text in texts:
            handle.write(text)


def _scalars(array: np.ndarray):
    """The rows of ``array`` as Python objects, converted one block at a time."""
    return itertools.chain.from_iterable(
        array[lo : lo + _BLOCK_LINES].tolist() for lo in range(0, len(array), _BLOCK_LINES)
    )


@contextlib.contextmanager
def _naming(path, error=ValueError):
    """An ``error`` raised in the with block, raised again as a ValueError naming ``path``."""
    try:
        yield
    except error as exc:
        raise ValueError(f"{path}: {exc}") from None


# the suffixes np.loadtxt decompresses a file by, whatever its bytes
_COMPRESSED = frozenset({".gz", ".bz2", ".xz", ".lzma"})


@contextlib.contextmanager
def _open_table(path):
    """``path`` as a rewindable text handle, and the name numpy may read it by, or None.

    A regular file is opened as itself. Anything else, such as a pipe, is
    read whole into memory, so it reads like a file. The name is the
    absolute path of a regular file whose suffix numpy does not decompress
    by: given a name, numpy reads the file in large blocks in C, but a
    handle one line at a time. Absolute, the name never reads as a URL.
    Text that does not decode, met anywhere in the with block, names ``path``.
    While the block runs, csv fields may be of any length, as numpy's are.
    """
    limit = csv.field_size_limit(sys.maxsize)
    try:
        with open(path, "rb") as file:
            raw, source = file, None
            if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                source = str(Path(path).absolute())  # keeps "..", as the kernel resolves it
                if os.path.splitext(source)[1] in _COMPRESSED:
                    source = None
            else:
                raw = io.BytesIO(file.read())
            with io.TextIOWrapper(raw, newline="") as handle:
                with _naming(path, UnicodeDecodeError):
                    yield handle, source
    finally:
        csv.field_size_limit(limit)


def _loadtxt(source, dtype, **options):
    """``np.loadtxt`` of table text; a body of no records, which numpy warns about, has no rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=dtype, comments=None, **options)


def _parse_body(handle, source, skip, dtype, fault, **options):
    """``_loadtxt`` of what follows the first ``skip`` physical lines of the table.

    numpy reads the file named ``source``, or ``handle`` where there is no
    name or numpy cannot open it (say the file was replaced by a directory).
    Where numpy refuses the body, the ValueError names the line of the first
    record it refuses alone and ``fault(lines)`` of the lines up to it.
    """
    try:
        if source is not None:
            with contextlib.suppress(OSError):
                return _loadtxt(source, dtype, skiprows=skip, encoding=handle.encoding, **options)
        handle.seek(0)
        return _loadtxt(itertools.islice(handle, skip, None), dtype, **options)
    except ValueError:
        lineno, record = _first_refused(handle, skip, dtype, **options)
        raise ValueError(f"line {lineno}: {fault(record)}") from None


def _records(handle, skip, delimiter):
    """The physical lines of ``handle``, and the line each record after the first ``skip`` ends on.

    Lines end as csv and numpy end them. With ``delimiter`` None there is no
    quoting, so each line is taken for a record (numpy accepts a blank one as
    none); else a record is a nonempty csv row, whose quoted fields may span lines.
    """
    handle.seek(0)
    lines = handle.readlines()
    if delimiter is None:
        return lines, list(range(skip + 1, len(lines) + 1))
    reader = csv.reader(lines[skip:], delimiter=delimiter)
    return lines, [skip + reader.line_num for row in reader if row]


def _first_refused(handle, skip, dtype, **options):
    """The line the first record numpy refuses alone ends on, and the lines up to it.

    Halving the refused range of records (see ``_records``) costs about one
    more parse, and numpy's messages are never read.
    """
    lines, ends = _records(handle, skip, options.get("delimiter"))
    starts = [skip, *ends[:-1]]
    lo, hi = 0, len(ends)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _refuses(lines[starts[lo] : ends[mid - 1]], dtype, **options):
            hi = mid
        else:
            lo = mid
    return ends[lo], lines[starts[lo] : ends[lo]]


def _refuses(lines, dtype, **options) -> bool:
    try:
        _loadtxt(lines, dtype, **options)
    except ValueError:
        return True
    return False


def _read_indices(path) -> list[int]:
    """The integer on each nonblank line of ``path``, as numpy reads it: one field a line."""
    with _open_table(path) as (handle, source), _naming(path):
        body = _parse_body(handle, source, 0, [("i", "i8")],
                           lambda lines: f"not an index: {''.join(lines).strip()!r}", ndmin=1)
    return body["i"].tolist()


def ingest_csv(
    path,
    value_columns=None,
    label_column=None,
    time_column=None,
    delimiter=",",
    difference=False,
) -> TimeSeries:
    """Parse a header-bearing delimited file into a series.

    Every non-label, non-time column is a value dimension unless
    ``value_columns`` names them explicitly. ``difference`` replaces the
    values with their first difference (indices then refer to the transformed
    series).

    numpy parses the body in one call: value columns as floats, the label
    column as integers, and any other column as a zero-width string, which
    takes any text and keeps none. Where numpy refuses the body, the message
    names the physical line of the first record it refuses. The values are
    checked finite once. A delimiter numpy cannot split on raises TypeError.
    """
    path = Path(path)
    with _open_table(path) as (handle, source):
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty series") from None
        header = [name.strip() for name in header]
        column_of = {name: i for i, name in enumerate(header)}
        if len(column_of) < len(header):
            repeated = next(name for i, name in enumerate(header) if column_of[name] != i)
            raise ValueError(f"{path}: duplicate column name {repeated!r}")

        ignored = [name for name in (label_column, time_column) if name is not None]
        value_names = (list(value_columns) if value_columns is not None
                       else [name for name in header if name not in ignored])
        for name in (*ignored, *value_names):
            if name not in column_of:
                raise ValueError(f"{path}: no column named {name!r}")
        if not value_names:
            raise ValueError(f"{path}: no value columns")
        value_idx = [column_of[name] for name in value_names]
        label_idx = column_of[label_column] if label_column is not None else None

        columns = np.dtype([(f"c{i}", "i8" if i == label_idx else "f8" if i in value_idx else "U0")
                            for i in range(len(header))])
        skip = reader.line_num
        options = {"delimiter": delimiter, "quotechar": '"', "ndmin": 1}

        def fault(lines):  # numpy refuses a record's field count, a value or the label
            row = next(filter(None, csv.reader(lines, delimiter=delimiter)))
            bad = [i for i in value_idx if _refuses(lines, float, usecols=[i], **options)]
            return (f"expected {len(header)} fields, found {len(row)}" if len(row) != len(header)
                    else f"non-numeric value {row[bad[0]]!r} in column {header[bad[0]]!r}" if bad
                    else f"non-integer label {row[label_idx]!r}")

        with _naming(path):
            body = _parse_body(handle, source, skip, columns, fault, **options)
        if body.size == 0:
            raise ValueError(f"{path}: empty series")
        data = np.stack([body[f"c{i}"] for i in value_idx], axis=1, dtype=float)
        labels = body[f"c{label_idx}"] if label_idx is not None else None
        if not np.isfinite(data).all():
            r, c = np.argwhere(~np.isfinite(data))[0]
            lineno = _records(handle, skip, delimiter)[1][r]
            raise ValueError(
                f"{path}: line {lineno}: non-finite value '{data[r, c]}' "
                f"in column {header[value_idx[c]]!r}"
            )

    if difference:
        if data.shape[0] < 2:
            raise ValueError(f"{path}: need at least two samples to difference")
        data = np.diff(data, axis=0)
        if labels is not None:
            labels = labels[1:]
    return TimeSeries(data=data, labels=labels)


def _read_json(path):
    with _naming(path):  # undecodable text, or an integer of too many digits
        try:
            return json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None


def _load_config(path) -> dict:
    """The config file's object; a key that no command reads is a data error.

    One file may serve detect, cluster and evaluate, so a key that only
    another of them reads passes.
    """
    if path is None:
        return {}
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = [key for key in payload if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"{path}: {unknown[0]!r} is not an option of any wcpd command")
    return payload


def _options(args):
    """``read(name)``: a command option from its flag, else the config file, else its default.

    An option is resolved when the command reads it, so an input error met
    before (an unreadable series, say) wins over a bad option read after.
    The row's converter checks flags and config values alike: a value it
    rejects is a usage error from a flag and a data error naming the file and
    key from the config file.
    """
    path = getattr(args, "config", None)
    config = _load_config(path)
    rows = {row.name: row for row in _OPTIONS if args.command in row.commands}

    def read(name: str):
        value, where, error = getattr(args, name.replace("-", "_")), f"--{name}", _UsageError
        if value is None:
            value, where, error = config.get(name), f"{path}: {name!r}", ValueError
        if value is None:
            if rows[name].default is _REQUIRED:
                raise _UsageError(f"missing required option --{name}")
            return rows[name].default
        try:
            return rows[name].convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{where}: {exc}") from None

    return read


def _delimiter(value) -> str:
    if not isinstance(value, str) or len(value) != 1 or value in '"\r\n':
        raise ValueError(f"must be one character other than '\"', '\\r' and '\\n', not {value!r}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, not {value!r}")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, not {value!r}")
    return value


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, not {value!r}")
    return value


def _at_least(low: int):
    """A converter to an integer no smaller than ``low``."""

    def convert(value) -> int:
        if _integer(value) < low:
            raise ValueError(f"must be at least {low}, not {value}")
        return value

    return convert


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"must be finite, not {value!r}")
    return float(value)


def _trace_column(value) -> str:
    if value not in ("raw", "filtered"):
        raise ValueError(f"must be 'raw' or 'filtered', not {value!r}")
    return value


def _column_names(value) -> list:
    if isinstance(value, str):
        return [name.strip() for name in value.split(",") if name.strip()]
    if isinstance(value, list) and all(isinstance(name, str) for name in value):
        return value
    raise ValueError(f"must be a comma-separated string or a list of strings, not {value!r}")


_REQUIRED = object()  # a default the flag or the config file must override


class _Option(NamedTuple):
    """A flag of ``commands``; for detect, cluster and evaluate also a config key."""

    name: str
    commands: tuple
    parse: type  # argparse's type for the flag; bool makes a switch
    convert: Callable  # checks and converts the flag's or the config file's value
    default: object
    help: str


_SIM, _CAL, _DET, _CLU, _EVAL = (
    ("simulate",), ("calibrate-filter",), ("detect",), ("cluster",), ("evaluate",)
)
_INGEST = _DET + _CLU
_CONFIGURED = _DET + _CLU + _EVAL
_OPTIONS = (
    _Option("spec", _SIM, str, _text, _REQUIRED, "JSON series spec"),
    _Option("out", _SIM, str, _text, _REQUIRED, "output CSV path"),
    _Option("truth-out", _SIM, str, _text, None, "change point sidecar (default <out>.cps)"),
    _Option("labels-out", _SIM, str, _text, None, "label sidecar (default <out>.labels)"),
    _Option("beta", _CAL, int, _at_least(2), 50, "window size"),
    _Option("ensemble", _CAL, int, _at_least(1), 200, "simulated sequences per change pair"),
    _Option("pairs", _CAL, str, _text, None, "JSON list of [before, after] distribution pairs"),
    _Option("out", _CAL, str, _text, _REQUIRED, "filter file path"),
    _Option("config", _CONFIGURED, str, _text, None, "JSON config; flags override its values"),
    _Option("input", _INGEST, str, _text, _REQUIRED, "delimited series file with a header row"),
    _Option("value-columns", _INGEST, str, _column_names, None, "comma-separated value columns"),
    _Option("label-column", _INGEST, str, _text, None, "ground-truth label column name"),
    _Option("time-column", _INGEST, str, _text, None, "column to ignore as a time axis"),
    _Option("delimiter", _INGEST, str, _delimiter, ",", "field delimiter (default ',')"),
    _Option("difference", _INGEST, bool, _boolean, False, "first-difference the values"),
    _Option("beta", _DET, int, _at_least(2), _REQUIRED, "window size"),
    _Option("lambda", _DET, float, _number, NULL.reject_threshold_05, "detection threshold"),
    _Option("filter", _DET, str, _text, None, "matched filter file from calibrate-filter"),
    _Option("out-dir", _DET, str, _text, _REQUIRED, "directory for change_points.txt, trace.csv"),
    _Option("beta", _CLU, int, _at_least(1), _REQUIRED, "window size"),
    _Option("k", _CLU, int, _at_least(1), _REQUIRED, "number of clusters"),
    _Option("seed", _CAL + _CLU, int, _at_least(0), 0, "random seed"),
    _Option("change-points", _CLU, str, _text, _REQUIRED, "file of change point indices"),
    _Option("out-dir", _CLU, str, _text, _REQUIRED, "directory for segments.csv, labels.csv"),
    _Option("predicted", _EVAL, str, _text, _REQUIRED, "file of predicted change point indices"),
    _Option("truth", _EVAL, str, _text, _REQUIRED, "file of true change point indices"),
    _Option("delta", _EVAL, int, _at_least(0), _REQUIRED, "matching margin in samples"),
    _Option("trace", _EVAL, str, _text, None, "trace.csv from detect, enables AUC"),
    _Option("trace-column", _EVAL, str, _trace_column, "filtered", "raw or filtered (default)"),
    _Option("predicted-labels", _EVAL, str, _text, None, "labels.csv from cluster"),
    _Option("truth-labels", _EVAL, str, _text, None, "file of true labels, one per line"),
    _Option("k", _EVAL, int, _at_least(1), None, "number of clusters, to score labels"),
    _Option("beta", _EVAL, int, _at_least(1), None, "window size, for the report"),
    _Option("lambda", _EVAL, float, _number, None, "detection threshold, for the report"),
    _Option("out", _EVAL, str, _text, None, "report path (default stdout)"),
)
# one config file may serve every command that takes one, so it takes any of their options
_CONFIG_KEYS = frozenset(o.name for o in _OPTIONS if set(_CONFIGURED) & set(o.commands)) - {"config"}


def _spec_value(entry: dict, key: str, convert, default=None):
    """``convert(entry[key])``, or ``default`` for an absent key that has one."""
    if default is not None and key not in entry:
        return default
    try:
        return convert(entry[key])
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def _load_series_spec(path) -> SeriesSpec:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: spec must be a JSON object")
    if "segments" not in payload:
        raise ValueError(f"{path}: spec needs a 'segments' key")
    try:
        segments = tuple(
            (
                DistSpec(
                    family=seg["family"],
                    location=_spec_value(seg, "location", _number, 0.0),
                    scale=_spec_value(seg, "scale", _number, 1.0),
                ),
                _spec_value(seg, "length", _integer),
            )
            for seg in payload["segments"]
        )
        return SeriesSpec(
            segments=segments,
            dimension=_spec_value(payload, "dimension", _integer, 1),
            seed=_spec_value(payload, "seed", _integer, 0),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: segment entries need a {exc.args[0]!r} key") from None
    except TypeError:
        raise ValueError(f"{path}: segments must be a list of JSON objects") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_pairs(path) -> tuple:
    payload = _read_json(path)
    try:
        return _change_pairs(payload)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: pairs must be [before, after] lists of distribution specs: {exc}"
        ) from None


def _read_column(path, col: int, dtype, what: str) -> np.ndarray:
    """Column ``col`` of each row of a header-bearing CSV written by this tool.

    ``dtype`` is ``float`` or ``int``: numpy's type for the column.
    """
    with _open_table(path) as (handle, source):
        reader = csv.reader(handle)
        if next(reader, None) is None:
            raise ValueError(f"{path}: empty {what} file")
        options = {"delimiter": ",", "quotechar": '"', "usecols": col, "ndmin": 1}
        with _naming(path):
            return _parse_body(handle, source, reader.line_num, dtype,
                               lambda lines: f"malformed {what} row", **options)


def _labeling_from_samples(sample_labels: np.ndarray, K: int) -> SegmentLabeling:
    changes = np.flatnonzero(np.diff(sample_labels) != 0) + 1
    labels = sample_labels[np.concatenate(([0], changes))]
    return SegmentLabeling(change_points=changes, labels=labels, K=K)


def _ingest(opt) -> TimeSeries:
    path = opt("input")
    keys = ("value-columns", "label-column", "time-column", "delimiter", "difference")
    return ingest_csv(path, **{key.replace("-", "_"): opt(key) for key in keys})


def _cmd_simulate(opt) -> int:
    spec_path, out = opt("spec"), Path(opt("out"))
    spec = _load_series_spec(spec_path)
    with _naming(spec_path):
        series = generate(spec)

    header = "t," + ",".join(f"x{d}" for d in range(series.dim)) + ",label"
    samples = zip(_scalars(series.data), _scalars(series.labels))
    rows = (",".join([str(t), *map(repr, values), str(label)])
            for t, (values, label) in enumerate(samples))
    _write_text(out, itertools.chain([header], rows))
    _write_text(Path(opt("truth-out") or out.with_suffix(out.suffix + ".cps")),
                map(str, series.change_points.tolist()))
    _write_text(Path(opt("labels-out") or out.with_suffix(out.suffix + ".labels")),
                map(str, _scalars(series.labels)))
    print(f"wrote {out} ({len(series)} samples, {series.change_points.size} change points)")
    return 0


def _cmd_calibrate_filter(opt) -> int:
    beta, ensemble, seed, pairs_path = opt("beta"), opt("ensemble"), opt("seed"), opt("pairs")
    out = Path(opt("out"))
    pairs = _load_pairs(pairs_path) if pairs_path else DEFAULT_CHANGE_PAIRS
    with _naming(pairs_path) if pairs_path else contextlib.nullcontext():
        try:
            filt = estimate_matched_filter(
                beta=beta, ensemble_size=ensemble, change_pairs=pairs, seed=seed
            )
        except MemoryError as exc:  # beta sizes every array calibration allocates
            raise ValueError(f"--beta {beta} is too large to calibrate: {exc}") from None
    out.parent.mkdir(parents=True, exist_ok=True)
    save_filter(filt, out)
    peak_offset = int(np.argmax(filt.taps)) - filt.beta
    print(f"beta={filt.beta}")
    print(f"gamma={_fmt(filt.gamma)}")
    print(f"ensemble={filt.ensemble_size}")
    print(f"taps_sum={_fmt(float(filt.taps.sum()))}")
    print(f"peak_offset={peak_offset}")
    return 0


def _cmd_detect(opt) -> int:
    series = _ingest(opt)
    beta, lam, filter_path = opt("beta"), opt("lambda"), opt("filter")
    filt = load_filter(filter_path) if filter_path else None
    with _naming(filter_path):  # the options are checked, so only the filter's beta fails
        config = DetectorConfig(beta=beta, lam=lam, filter=filt)
    out_dir = Path(opt("out-dir"))

    with _naming(opt("input")):
        result = detect(series, config)
    _write_text(out_dir / "change_points.txt", [str(cp) for cp in result.change_points])
    # the raw statistic is S/(6β²·d) for an integer S, so its values repeat:
    # repr each distinct one once. It never holds -0.0, which np.unique would
    # merge with 0.0, and the NaNs that np.unique merges all print "nan"
    distinct, index = np.unique(result.raw.values, return_inverse=True)
    raw_text = list(map(repr, distinct.tolist()))
    filtered = (itertools.repeat(math.nan) if result.filtered is None
                else _scalars(result.filtered.values))
    rows = (f"{t},{raw_text[i]},{f!r}" for t, (i, f) in enumerate(zip(_scalars(index), filtered)))
    _write_text(out_dir / "trace.csv", itertools.chain(["t,sigma_raw,sigma_filtered"], rows))
    print(f"detected {len(result.change_points)} change points")
    return 0


def _cmd_cluster(opt) -> int:
    series = _ingest(opt)
    beta, k, seed, cps_path = opt("beta"), opt("k"), opt("seed"), opt("change-points")
    cps = _read_indices(cps_path)
    segments = len(cps) + 1
    if k > segments:
        raise ValueError(
            f"--k {k} exceeds the {segments} segments that the change points in {cps_path} give"
        )
    out_dir = Path(opt("out-dir"))

    with _naming(cps_path):  # cluster_segments checks the change points against the series length
        labeling = cluster_segments(series, cps, K=k, beta=beta, seed=seed)
    bounds = np.concatenate(([0], labeling.change_points, [len(series)]))
    segment_lines = ["segment_index,start,end,label"]
    segment_lines.extend(
        f"{i},{bounds[i]},{bounds[i + 1]},{labeling.labels[i]}"
        for i in range(labeling.labels.size)
    )
    _write_text(out_dir / "segments.csv", segment_lines)
    # one join and one write per run of at most a block of one segment's
    # "t,label" lines, so no write holds more than _BLOCK_LINES lines: a
    # format per line cost 0.6 ms per 10,000 samples
    runs = (
        f",{label}\n".join(map(str, range(start, hi)[:_BLOCK_LINES])) + f",{label}\n"
        for lo, hi, label in zip(bounds[:-1].tolist(), bounds[1:].tolist(), labeling.labels.tolist())
        for start in range(lo, hi, _BLOCK_LINES)
    )
    _write_blocks(out_dir / "labels.csv", itertools.chain(["t,label\n"], runs))
    print(f"clustered {labeling.labels.size} segments into {k} classes")
    return 0


def _cmd_evaluate(opt) -> int:
    delta = opt("delta")
    predicted = _read_indices(opt("predicted"))
    truth = _read_indices(opt("truth"))
    precision, recall, f1 = cp_f1(predicted, truth, delta)

    auc = float("nan")
    trace_path, column = opt("trace"), opt("trace-column")
    if trace_path:
        values = _read_column(trace_path, 1 if column == "raw" else 2, float, "trace")
        if values.size == 0 or np.all(np.isnan(values)):
            raise ValueError(f"{trace_path}: trace column {column!r} contains no values")
        warmup = max(int(np.argmax(~np.isnan(values))), 1)
        with _naming(trace_path):
            trace = StatTrace(values, beta=warmup, filtered=column == "filtered")
        with _naming(f"{opt('truth')}, {trace_path}"):
            auc = cp_auc(trace, truth, delta)

    accuracy = float("nan")
    k, predicted_labels, truth_labels = opt("k"), opt("predicted-labels"), opt("truth-labels")
    if bool(predicted_labels) != bool(truth_labels):
        missing = "truth-labels" if predicted_labels else "predicted-labels"
        raise _UsageError(f"--{missing} is required to score labels")
    if predicted_labels:
        if k is None:
            raise _UsageError("--k is required to score labels")
        sample_labels = _read_column(predicted_labels, 1, int, "label")
        if sample_labels.size == 0:
            raise ValueError(f"{predicted_labels}: empty label file")
        truth_ids = _read_indices(truth_labels)
        if sample_labels.size != len(truth_ids):
            raise ValueError(
                f"{predicted_labels}: {sample_labels.size} labels, "
                f"but {truth_labels} has {len(truth_ids)}"
            )
        with _naming(predicted_labels):
            labeling = _labeling_from_samples(sample_labels, k)
        with _naming(truth_labels):
            accuracy = label_accuracy(labeling, truth_ids, k)

    beta, lam = opt("beta"), opt("lambda")
    lines = [
        f"k={k if k is not None else 'none'}",
        f"beta={beta if beta is not None else 'none'}",
        f"lambda={_fmt(lam) if lam is not None else 'none'}",
        f"delta={delta}",
        f"cp_precision={_fmt(precision)}",
        f"cp_recall={_fmt(recall)}",
        f"cp_f1={_fmt(f1)}",
        f"cp_auc={_fmt(auc)}",
        f"label_accuracy={_fmt(accuracy)}",
    ]
    out = opt("out")
    if out:
        _write_text(Path(out), lines)
    else:
        for line in lines:
            print(line)
    return 0


_COMMANDS = {
    "simulate": (_cmd_simulate, "generate a synthetic series from a spec file"),
    "calibrate-filter": (_cmd_calibrate_filter, "estimate and save a matched filter"),
    "detect": (_cmd_detect, "run change point detection on a series"),
    "cluster": (_cmd_cluster, "cluster the segments between change points"),
    "evaluate": (_cmd_evaluate, "score predictions against ground truth"),
}


def build_parser() -> _Parser:
    """A fresh parser: one sub-parser per command, one flag per row of ``_OPTIONS``."""
    parser = _Parser(prog="wcpd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    for row in _OPTIONS:
        kind = ({"action": "store_true", "default": None} if row.parse is bool
                else {"type": row.parse})
        for command in row.commands:
            commands[command].add_argument(f"--{row.name}", help=row.help, **kind)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """One parser per process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_options(args))
    except SystemExit as exc:  # argparse exits only once it has printed --help
        return exc.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:  # console script hook
    raise SystemExit(main())
