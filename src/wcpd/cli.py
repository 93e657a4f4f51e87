"""Command-line front end: simulate, calibrate-filter, detect, cluster, evaluate.

All randomness flows from explicit seeds and every writer emits text in a
fixed order, so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import array
import csv
import functools
import io
import itertools
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cpd import (
    DEFAULT_CHANGE_PAIRS,
    DetectorConfig,
    StatTrace,
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
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    with path.open("w") as handle:  # text mode, as Path.write_text opens it
        while block := list(itertools.islice(lines, _BLOCK_LINES)):
            block.append("")
            handle.write("\n".join(block))


def _scalars(array: np.ndarray):
    """The rows of ``array`` as Python objects, converted one block at a time."""
    return itertools.chain.from_iterable(
        array[lo : lo + _BLOCK_LINES].tolist() for lo in range(0, len(array), _BLOCK_LINES)
    )


def _open_buffered(path) -> io.TextIOWrapper:
    """``path`` read whole into a rewindable text handle, so a pipe reads like a file."""
    return io.TextIOWrapper(io.BytesIO(Path(path).read_bytes()), newline="")


def _parse_body(handle, dtype, **options):
    """The rest of ``handle`` parsed by ``np.loadtxt``, or None where numpy rejects it.

    numpy's cell parsers accept a subset of what ``float()`` and ``int()``
    accept, and agree with them bitwise there. So a caller that gets None
    re-reads the file line by line: that reader either accepts what numpy
    did not (``1_0``, a text time column) or words the error with its line.
    An empty body, which numpy only warns about, and a delimiter numpy does
    not take (TypeError), such as the quote character, also give None.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(handle, dtype=dtype, comments=None, **options)
        except (ValueError, TypeError, Warning):
            return None


def _int64(text) -> int:
    """``int(text)``, rejected like numpy's parse where it does not fit in int64."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} does not fit in int64")
    return value


def _read_indices(path) -> list[int]:
    with _open_buffered(path) as handle:
        indices = _parse_body(handle, int, ndmin=2)
        if indices is not None and indices.shape[1] == 1:
            return indices[:, 0].tolist()
        handle.seek(0)
        text = handle.read()
    indices = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            indices.append(_int64(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: not an index: {line!r}") from exc
    return indices


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

    numpy parses the body in one call, every column as a float and the label
    column as an integer. A file it cannot parse, such as one with a text
    time column, goes through a slower line-by-line reader. The accepted
    syntax and every error message are those of that reader.
    """
    path = Path(path)
    with _open_buffered(path) as handle:
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

        skip = set()
        for special in (label_column, time_column):
            if special is not None:
                if special not in column_of:
                    raise ValueError(f"{path}: no column named {special!r}")
                skip.add(special)
        if value_columns is None:
            value_names = [name for name in header if name not in skip]
        else:
            value_names = list(value_columns)
            for name in value_names:
                if name not in column_of:
                    raise ValueError(f"{path}: no column named {name!r}")
        if not value_names:
            raise ValueError(f"{path}: no value columns")
        value_idx = [column_of[name] for name in value_names]
        label_idx = column_of[label_column] if label_column is not None else None

        columns = np.dtype(
            [(f"c{i}", np.int64 if i == label_idx else np.float64) for i in range(len(header))]
        )
        body = _parse_body(handle, columns, delimiter=delimiter, quotechar='"', ndmin=1)
        if body is not None:
            data = np.stack([body[f"c{i}"] for i in value_idx], axis=1, dtype=float)
            labels = body[f"c{label_idx}"] if label_idx is not None else None
        if body is None or not np.isfinite(data).all():
            data, labels = _scan_rows(handle, reader, path, header, value_idx, label_idx)

    if difference:
        if data.shape[0] < 2:
            raise ValueError(f"{path}: need at least two samples to difference")
        data = np.diff(data, axis=0)
        if labels is not None:
            labels = labels[1:]
    return TimeSeries(data=data, labels=labels)


def _scan_rows(handle, reader, path, header, value_idx, label_idx):
    """``ingest_csv``'s body row by row with ``float()`` and ``_int64()``.

    ``reader`` reads ``handle``, which is rewound to the row after the
    header. Returns the values and the labels (None without a label column),
    or raises naming the first bad line. The values and labels go into flat
    typed buffers, 8 bytes each; a non-finite value is found at the end, and
    its line by a second scan.
    """

    def body():
        handle.seek(0)
        next(reader)
        return ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)

    values = array.array("d")
    labels = array.array("q")
    for lineno, row in body():
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(header)} fields, found {len(row)}"
            )
        try:
            values.extend([float(row[i]) for i in value_idx])
        except ValueError:
            bad = next(i for i in value_idx if not _is_float(row[i]))
            raise ValueError(
                f"{path}: line {lineno}: non-numeric value {row[bad]!r} "
                f"in column {header[bad]!r}"
            ) from None
        if label_idx is not None:
            try:
                labels.append(_int64(row[label_idx]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer label {row[label_idx]!r}"
                ) from None

    if not values:
        raise ValueError(f"{path}: empty series")
    data = np.frombuffer(values, dtype=float).reshape(-1, len(value_idx))
    non_finite = np.argwhere(~np.isfinite(data))
    if non_finite.size:
        r, c = non_finite[0]
        lineno = next(itertools.islice(body(), r, None))[0]
        raise ValueError(
            f"{path}: line {lineno}: non-finite value '{data[r, c]}' "
            f"in column {header[value_idx[c]]!r}"
        )
    return data, np.frombuffer(labels, dtype=np.int64) if label_idx is not None else None


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


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


def _one_char(value) -> str:
    if not isinstance(value, str) or len(value) != 1:
        raise ValueError(f"must be one character, not {value!r}")
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
    _Option("delimiter", _INGEST, str, _one_char, ",", "field delimiter (default ',')"),
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
        return tuple(
            (DistSpec(**before), DistSpec(**after)) for before, after in payload
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: pairs must be [before, after] lists of distribution specs: {exc}"
        ) from None


def _read_column(path, col: int, dtype, what: str) -> np.ndarray:
    """Column ``col`` of each row of a header-bearing CSV written by this tool.

    ``dtype`` is ``float`` or ``int``: numpy's type for the column. The
    line-by-line reader, for what numpy rejects, converts with ``float()`` or
    ``_int64()``.
    """
    convert = _int64 if dtype is int else float
    with _open_buffered(path) as handle:
        reader = csv.reader(handle)
        if next(reader, None) is None:
            raise ValueError(f"{path}: empty {what} file")
        values = _parse_body(handle, dtype, delimiter=",", quotechar='"', usecols=col, ndmin=1)
        if values is not None:
            return values
        handle.seek(0)
        next(reader)
        values = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values.append(convert(row[col]))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: line {lineno}: malformed {what} row") from None
    return np.asarray(values, dtype=dtype)


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
    try:
        series = generate(spec)
    except ValueError as exc:
        raise ValueError(f"{spec_path}: {exc}") from None

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
    try:
        filt = estimate_matched_filter(
            beta=beta, ensemble_size=ensemble, change_pairs=pairs, seed=seed
        )
    except ValueError as exc:  # the options are checked, so only a custom pair fails
        raise ValueError(f"{pairs_path}: {exc}") from None
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
    config = DetectorConfig(beta=beta, lam=lam, filter=filt)
    out_dir = Path(opt("out-dir"))

    try:
        result = detect(series, config)
    except ValueError as exc:
        raise ValueError(f"{opt('input')}: {exc}") from None
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
    cps = sorted(_read_indices(cps_path))
    try:  # TimeSeries checks the change points against the series length
        series = replace(series, change_points=cps)
    except ValueError as exc:
        raise ValueError(f"{cps_path}: {exc}") from None
    segments = len(cps) + 1
    if k > segments:
        raise ValueError(
            f"--k {k} exceeds the {segments} segments that the change points in {cps_path} give"
        )
    out_dir = Path(opt("out-dir"))

    labeling = cluster_segments(series, series.change_points, K=k, beta=beta, seed=seed)
    bounds = np.concatenate(([0], labeling.change_points, [len(series)]))
    segment_lines = ["segment_index,start,end,label"]
    segment_lines.extend(
        f"{i},{bounds[i]},{bounds[i + 1]},{labeling.labels[i]}"
        for i in range(labeling.labels.size)
    )
    _write_text(out_dir / "segments.csv", segment_lines)
    # one join per run of at most a block of one segment's "t,label" lines, so
    # a block here holds up to _BLOCK_LINES runs: a format per line cost 0.6 ms
    # per 10,000 samples
    runs = (
        f",{label}\n".join(map(str, range(start, hi)[:_BLOCK_LINES])) + f",{label}"
        for lo, hi, label in zip(bounds[:-1].tolist(), bounds[1:].tolist(), labeling.labels.tolist())
        for start in range(lo, hi, _BLOCK_LINES)
    )
    _write_text(out_dir / "labels.csv", itertools.chain(["t,label"], runs))
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
        try:
            trace = StatTrace(values, beta=warmup, filtered=column == "filtered")
        except ValueError as exc:
            raise ValueError(f"{trace_path}: {exc}") from None
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
        try:
            labeling = _labeling_from_samples(sample_labels, k)
        except ValueError as exc:
            raise ValueError(f"{predicted_labels}: {exc}") from None
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
