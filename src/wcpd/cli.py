"""Command-line front end: simulate, calibrate-filter, detect, cluster, evaluate.

All randomness flows from explicit seeds and every writer emits text in a
fixed order, so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

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


def _write_text(path: Path, lines) -> None:
    """Each of ``lines`` ended by a newline; no lines, an empty file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = list(lines)
    path.write_text("\n".join(lines) + "\n" if lines else "")


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
            handle.seek(0)
            next(reader)
            data, labels = _scan_rows(reader, path, header, value_idx, label_idx)

    if difference:
        if data.shape[0] < 2:
            raise ValueError(f"{path}: need at least two samples to difference")
        data = np.diff(data, axis=0)
        if labels is not None:
            labels = labels[1:]
    return TimeSeries(data=data, labels=labels)


def _scan_rows(reader, path, header, value_idx, label_idx):
    """``ingest_csv``'s body row by row with ``float()`` and ``_int64()``.

    Returns the values and the labels (None without a label column), or
    raises naming the first bad line.
    """
    rows = []
    row_lines = []
    labels = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(header)} fields, found {len(row)}"
            )
        try:
            rows.append([float(row[i]) for i in value_idx])
        except ValueError:
            bad = next(i for i in value_idx if not _is_float(row[i]))
            raise ValueError(
                f"{path}: line {lineno}: non-numeric value {row[bad]!r} "
                f"in column {header[bad]!r}"
            ) from None
        row_lines.append(lineno)
        if label_idx is not None:
            try:
                labels.append(_int64(row[label_idx]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer label {row[label_idx]!r}"
                ) from None

    if not rows:
        raise ValueError(f"{path}: empty series")
    data = np.asarray(rows, dtype=float)
    non_finite = np.argwhere(~np.isfinite(data))
    if non_finite.size:
        r, c = non_finite[0]
        raise ValueError(
            f"{path}: line {row_lines[r]}: non-finite value '{data[r, c]}' "
            f"in column {header[value_idx[c]]!r}"
        )
    return data, np.asarray(labels, dtype=int) if label_idx is not None else None


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
    if path is None:
        return {}
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return payload


def _resolve(args, config: dict, name: str, convert, default=None, required=False):
    """A flag's value, else the config file's, else ``default``.

    ``convert`` checks and converts the first two: a value it rejects is a
    usage error from a flag and a data error naming the file and key from the
    config file.
    """
    value = getattr(args, name.replace("-", "_"), None)
    where, error = f"--{name}", _UsageError
    if value is None:
        value = config.get(name)
        where, error = f"{args.config}: {name!r}", ValueError
    if value is None:
        if required:
            raise _UsageError(f"missing required option --{name}")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{where}: {exc}") from None


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
        value = _integer(value)
        if value < low:
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


def _add_ingest_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="delimited series file (header row required)")
    parser.add_argument("--value-columns", help="comma-separated value column names")
    parser.add_argument("--label-column", help="ground-truth label column name")
    parser.add_argument("--time-column", help="column to ignore as a time axis")
    parser.add_argument("--delimiter", help="field delimiter (default ',')")
    parser.add_argument(
        "--difference",
        action="store_true",
        default=None,
        help="first-difference the values before processing",
    )


def _ingest_from_args(args, config: dict) -> TimeSeries:
    return ingest_csv(
        _resolve(args, config, "input", _text, required=True),
        value_columns=_resolve(args, config, "value-columns", _column_names),
        label_column=_resolve(args, config, "label-column", _text),
        time_column=_resolve(args, config, "time-column", _text),
        delimiter=_resolve(args, config, "delimiter", _one_char, default=","),
        difference=_resolve(args, config, "difference", _boolean, default=False),
    )


def _cmd_simulate(args) -> int:
    spec = _load_series_spec(args.spec)
    try:
        series = generate(spec)
    except ValueError as exc:
        raise ValueError(f"{args.spec}: {exc}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    labels = series.labels.tolist()
    header = "t," + ",".join(f"x{d}" for d in range(series.dim)) + ",label"
    rows = (",".join([str(t), *map(repr, values), str(label)])
            for t, (values, label) in enumerate(zip(series.data.tolist(), labels)))
    _write_text(out, [header, *rows])

    cps_path = Path(args.truth_out) if args.truth_out else out.with_suffix(out.suffix + ".cps")
    _write_text(cps_path, map(str, series.change_points.tolist()))
    labels_path = (
        Path(args.labels_out) if args.labels_out else out.with_suffix(out.suffix + ".labels")
    )
    _write_text(labels_path, map(str, labels))
    print(f"wrote {out} ({len(series)} samples, {series.change_points.size} change points)")
    return 0


def _cmd_calibrate_filter(args) -> int:
    # no config file here: every option has a default, so only flags are read
    beta = _resolve(args, {}, "beta", _at_least(2))
    ensemble = _resolve(args, {}, "ensemble", _at_least(1))
    seed = _resolve(args, {}, "seed", _at_least(0))
    pairs = _load_pairs(args.pairs) if args.pairs else DEFAULT_CHANGE_PAIRS
    filt = estimate_matched_filter(beta=beta, ensemble_size=ensemble, change_pairs=pairs, seed=seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_filter(filt, out)
    peak_offset = int(np.argmax(filt.taps)) - filt.beta
    print(f"beta={filt.beta}")
    print(f"gamma={_fmt(filt.gamma)}")
    print(f"ensemble={filt.ensemble_size}")
    print(f"taps_sum={_fmt(float(filt.taps.sum()))}")
    print(f"peak_offset={peak_offset}")
    return 0


def _cmd_detect(args) -> int:
    config_file = _load_config(args.config)
    series = _ingest_from_args(args, config_file)
    beta = _resolve(args, config_file, "beta", _at_least(2), required=True)
    lam = _resolve(args, config_file, "lambda", _number, default=NULL.reject_threshold_05)
    filter_path = _resolve(args, config_file, "filter", _text)
    filt = load_filter(filter_path) if filter_path else None
    config = DetectorConfig(beta=beta, lam=lam, filter=filt)

    try:
        result = detect(series, config)
    except ValueError as exc:
        raise ValueError(f"{_resolve(args, config_file, 'input', _text)}: {exc}") from None
    out_dir = Path(_resolve(args, config_file, "out-dir", _text, required=True))
    _write_text(out_dir / "change_points.txt", [str(cp) for cp in result.change_points])
    raw = result.raw.values.tolist()
    filtered = [np.nan] * len(raw) if result.filtered is None else result.filtered.values.tolist()
    _write_text(
        out_dir / "trace.csv",
        ["t,sigma_raw,sigma_filtered",
         *(f"{t},{r!r},{f!r}" for t, (r, f) in enumerate(zip(raw, filtered)))],
    )
    print(f"detected {len(result.change_points)} change points")
    return 0


def _cmd_cluster(args) -> int:
    config_file = _load_config(args.config)
    series = _ingest_from_args(args, config_file)
    beta = _resolve(args, config_file, "beta", _at_least(1), required=True)
    k = _resolve(args, config_file, "k", _at_least(1), required=True)
    seed = _resolve(args, config_file, "seed", _at_least(0), default=0)
    cps_path = _resolve(args, config_file, "change-points", _text, required=True)
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

    labeling = cluster_segments(series, series.change_points, K=k, beta=beta, seed=seed)
    out_dir = Path(_resolve(args, config_file, "out-dir", _text, required=True))
    bounds = np.concatenate(([0], labeling.change_points, [len(series)]))
    segment_lines = ["segment_index,start,end,label"]
    segment_lines.extend(
        f"{i},{bounds[i]},{bounds[i + 1]},{labeling.labels[i]}"
        for i in range(labeling.labels.size)
    )
    _write_text(out_dir / "segments.csv", segment_lines)
    # one join of the "t,label" lines per segment
    blocks = (
        f",{label}\n".join(map(str, range(lo, hi))) + f",{label}"
        for lo, hi, label in zip(bounds[:-1].tolist(), bounds[1:].tolist(), labeling.labels.tolist())
    )
    _write_text(out_dir / "labels.csv", ["t,label", *blocks])
    print(f"clustered {labeling.labels.size} segments into {k} classes")
    return 0


def _cmd_evaluate(args) -> int:
    config_file = _load_config(args.config)
    delta = _resolve(args, config_file, "delta", _at_least(0), required=True)
    predicted = _read_indices(_resolve(args, config_file, "predicted", _text, required=True))
    truth = _read_indices(_resolve(args, config_file, "truth", _text, required=True))
    precision, recall, f1 = cp_f1(predicted, truth, delta)

    auc = float("nan")
    trace_path = _resolve(args, config_file, "trace", _text)
    if trace_path:
        column = _resolve(args, config_file, "trace-column", _trace_column, default="filtered")
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
    k = _resolve(args, config_file, "k", _at_least(1))
    predicted_labels = _resolve(args, config_file, "predicted-labels", _text)
    truth_labels = _resolve(args, config_file, "truth-labels", _text)
    if predicted_labels and truth_labels:
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

    beta = _resolve(args, config_file, "beta", _integer)
    lam = _resolve(args, config_file, "lambda", _number)
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
    if args.out:
        _write_text(Path(args.out), lines)
    else:
        for line in lines:
            print(line)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wcpd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic series from a spec file")
    p_sim.add_argument("--spec", required=True, help="JSON series spec")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--truth-out", help="change point sidecar (default <out>.cps)")
    p_sim.add_argument("--labels-out", help="per-sample label sidecar (default <out>.labels)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate-filter", help="estimate and save a matched filter")
    p_cal.add_argument("--beta", type=int, default=50)
    p_cal.add_argument("--ensemble", type=int, default=200)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--pairs", help="JSON list of [before, after] distribution pairs")
    p_cal.add_argument("--out", required=True, help="filter file path")
    p_cal.set_defaults(func=_cmd_calibrate_filter)

    p_det = sub.add_parser("detect", help="run change point detection on a series")
    p_det.add_argument("--config", help="JSON config; flags override its values")
    _add_ingest_options(p_det)
    p_det.add_argument("--beta", type=int)
    p_det.add_argument("--lambda", type=float, help="detection threshold")
    p_det.add_argument("--filter", help="matched filter file from calibrate-filter")
    p_det.add_argument("--out-dir", help="directory for change_points.txt and trace.csv")
    p_det.set_defaults(func=_cmd_detect)

    p_clu = sub.add_parser("cluster", help="cluster the segments between change points")
    p_clu.add_argument("--config", help="JSON config; flags override its values")
    _add_ingest_options(p_clu)
    p_clu.add_argument("--beta", type=int)
    p_clu.add_argument("--k", type=int)
    p_clu.add_argument("--seed", type=int)
    p_clu.add_argument("--change-points", help="file of change point indices, one per line")
    p_clu.add_argument("--out-dir", help="directory for segments.csv and labels.csv")
    p_clu.set_defaults(func=_cmd_cluster)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    p_eval.add_argument("--config", help="JSON config; flags override its values")
    p_eval.add_argument("--predicted", help="file of predicted change point indices")
    p_eval.add_argument("--truth", help="file of true change point indices")
    p_eval.add_argument("--delta", type=int, help="matching margin in samples")
    p_eval.add_argument("--trace", help="trace.csv from detect, enables AUC")
    p_eval.add_argument("--trace-column", choices=("raw", "filtered"))
    p_eval.add_argument("--predicted-labels", help="labels.csv from cluster")
    p_eval.add_argument("--truth-labels", help="file of true labels, one per line")
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--beta", type=int)
    p_eval.add_argument("--lambda", type=float)
    p_eval.add_argument("--out", help="report path (default stdout)")
    p_eval.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
