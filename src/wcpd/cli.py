"""Command-line front end: simulate, calibrate-filter, detect, cluster, evaluate.

All randomness flows from explicit seeds and every writer emits text in a
fixed order, so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
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
from .errors import NumericalError
from .metrics import EvalReport, cp_auc, cp_f1, label_accuracy
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{line}\n" for line in lines))


def _read_indices(path) -> list[int]:
    indices = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            indices.append(int(line))
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
    truth_path=None,
) -> TimeSeries:
    """Parse a header-bearing delimited file into a series.

    Every non-label, non-time column is a value dimension unless
    ``value_columns`` names them explicitly. ``difference`` replaces the
    values with their first difference (indices then refer to the transformed
    series). ``truth_path`` points at a sidecar of ground-truth change point
    indices, one per line.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty series") from None
        header = [name.strip() for name in header]
        column_of = {name: i for i, name in enumerate(header)}

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
                    labels.append(int(row[label_idx]))
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
            f"in column {value_names[c]!r}"
        )
    label_arr = np.asarray(labels, dtype=int) if label_idx is not None else None
    if difference:
        if data.shape[0] < 2:
            raise ValueError(f"{path}: need at least two samples to difference")
        data = np.diff(data, axis=0)
        if label_arr is not None:
            label_arr = label_arr[1:]
    change_points = None
    if truth_path is not None:
        change_points = np.asarray(_read_indices(truth_path), dtype=int)
    return TimeSeries(data=data, labels=label_arr, change_points=change_points)


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


def _resolve(args, config: dict, name: str, default=None, required=False):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        value = config.get(name, default)
    if required and value is None:
        raise _UsageError(f"missing required option --{name}")
    return value


def _load_series_spec(path) -> SeriesSpec:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: spec must be a JSON object")
    try:
        segments = tuple(
            (
                DistSpec(
                    family=seg["family"],
                    location=float(seg.get("location", 0.0)),
                    scale=float(seg.get("scale", 1.0)),
                ),
                int(seg["length"]),
            )
            for seg in payload["segments"]
        )
        return SeriesSpec(
            segments=segments,
            dimension=int(payload.get("dimension", 1)),
            seed=int(payload.get("seed", 0)),
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


def _trace_rows(raw: StatTrace, filtered: StatTrace | None):
    filt_values = filtered.values if filtered is not None else np.full(len(raw), np.nan)
    for t in range(len(raw)):
        yield f"{t},{_fmt(raw.values[t])},{_fmt(filt_values[t])}"


def _read_trace(path, column: str) -> StatTrace:
    col = {"raw": 1, "filtered": 2}.get(column)
    if col is None:
        raise _UsageError("trace column must be 'raw' or 'filtered'")
    values = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty trace file")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values.append(float(row[col]))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: line {lineno}: malformed trace row") from None
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or np.all(np.isnan(arr)):
        raise ValueError(f"{path}: trace column {column!r} contains no values")
    leading = int(np.argmax(~np.isnan(arr)))
    beta = max(leading, 1)
    return StatTrace(arr, beta=beta, filtered=column == "filtered")


def _labeling_from_samples(sample_labels: np.ndarray, K: int) -> SegmentLabeling:
    changes = np.flatnonzero(np.diff(sample_labels) != 0) + 1
    labels = sample_labels[np.concatenate(([0], changes))]
    return SegmentLabeling(change_points=changes, labels=labels, K=K)


def _read_sample_labels(path) -> np.ndarray:
    labels = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty label file")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                labels.append(int(row[1]))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: line {lineno}: malformed label row") from None
    if not labels:
        raise ValueError(f"{path}: empty label file")
    return np.asarray(labels, dtype=int)


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
    parser.add_argument("--truth", help="sidecar of true change point indices")


def _ingest_from_args(args, config: dict) -> TimeSeries:
    value_columns = _resolve(args, config, "value-columns")
    if isinstance(value_columns, str):
        value_columns = [name.strip() for name in value_columns.split(",") if name.strip()]
    return ingest_csv(
        _resolve(args, config, "input", required=True),
        value_columns=value_columns,
        label_column=_resolve(args, config, "label-column"),
        time_column=_resolve(args, config, "time-column"),
        delimiter=_resolve(args, config, "delimiter", default=","),
        difference=bool(_resolve(args, config, "difference", default=False)),
        truth_path=_resolve(args, config, "truth"),
    )


def _cmd_simulate(args) -> int:
    spec = _load_series_spec(args.spec)
    series = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    header = "t," + ",".join(f"x{d}" for d in range(series.dim)) + ",label"
    lines = [header]
    for t in range(len(series)):
        cells = [str(t)]
        cells.extend(_fmt(v) for v in series.data[t])
        cells.append(str(int(series.labels[t])))
        lines.append(",".join(cells))
    _write_text(out, lines)

    cps_path = Path(args.truth_out) if args.truth_out else out.with_suffix(out.suffix + ".cps")
    _write_text(cps_path, [str(int(cp)) for cp in series.change_points])
    labels_path = (
        Path(args.labels_out) if args.labels_out else out.with_suffix(out.suffix + ".labels")
    )
    _write_text(labels_path, [str(int(label)) for label in series.labels])
    print(f"wrote {out} ({len(series)} samples, {series.change_points.size} change points)")
    return 0


def _cmd_calibrate_filter(args) -> int:
    pairs = _load_pairs(args.pairs) if args.pairs else DEFAULT_CHANGE_PAIRS
    filt = estimate_matched_filter(
        beta=args.beta, ensemble_size=args.ensemble, change_pairs=pairs, seed=args.seed
    )
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
    beta = int(_resolve(args, config_file, "beta", required=True))
    lam = float(_resolve(args, config_file, "lambda", default=0.462))
    filter_path = _resolve(args, config_file, "filter")
    filt = load_filter(filter_path) if filter_path else None
    config = DetectorConfig(beta=beta, lam=lam, filter=filt)

    result = detect(series, config)
    out_dir = Path(_resolve(args, config_file, "out-dir", required=True))
    _write_text(out_dir / "change_points.txt", [str(cp) for cp in result.change_points])
    _write_text(
        out_dir / "trace.csv",
        ["t,sigma_raw,sigma_filtered", *_trace_rows(result.raw, result.filtered)],
    )
    print(f"detected {len(result.change_points)} change points")
    return 0


def _cmd_cluster(args) -> int:
    config_file = _load_config(args.config)
    series = _ingest_from_args(args, config_file)
    beta = int(_resolve(args, config_file, "beta", required=True))
    k = int(_resolve(args, config_file, "k", required=True))
    seed = int(_resolve(args, config_file, "seed", default=0))
    cps = _read_indices(_resolve(args, config_file, "change-points", required=True))

    labeling = cluster_segments(series, cps, K=k, beta=beta, seed=seed)
    out_dir = Path(_resolve(args, config_file, "out-dir", required=True))
    bounds = np.concatenate(([0], labeling.change_points, [len(series)]))
    segment_lines = ["segment_index,start,end,label"]
    segment_lines.extend(
        f"{i},{bounds[i]},{bounds[i + 1]},{labeling.labels[i]}"
        for i in range(labeling.labels.size)
    )
    _write_text(out_dir / "segments.csv", segment_lines)
    per_sample = labeling.per_sample(len(series))
    _write_text(
        out_dir / "labels.csv",
        ["t,label", *(f"{t},{per_sample[t]}" for t in range(len(series)))],
    )
    print(f"clustered {labeling.labels.size} segments into {k} classes")
    return 0


def _cmd_evaluate(args) -> int:
    config_file = _load_config(args.config)
    delta = int(_resolve(args, config_file, "delta", required=True))
    predicted = _read_indices(_resolve(args, config_file, "predicted", required=True))
    truth = _read_indices(_resolve(args, config_file, "truth", required=True))
    precision, recall, f1 = cp_f1(predicted, truth, delta)

    auc = float("nan")
    trace_path = _resolve(args, config_file, "trace")
    if trace_path:
        trace = _read_trace(trace_path, _resolve(args, config_file, "trace-column", default="filtered"))
        auc = cp_auc(trace, truth, delta)

    accuracy = float("nan")
    k = _resolve(args, config_file, "k")
    predicted_labels = _resolve(args, config_file, "predicted-labels")
    truth_labels = _resolve(args, config_file, "truth-labels")
    if predicted_labels and truth_labels:
        if k is None:
            raise _UsageError("--k is required to score labels")
        sample_labels = _read_sample_labels(predicted_labels)
        labeling = _labeling_from_samples(sample_labels, int(k))
        accuracy = label_accuracy(labeling, _read_indices(truth_labels), int(k))

    beta = _resolve(args, config_file, "beta")
    lam = _resolve(args, config_file, "lambda")
    report = EvalReport(
        cp_precision=precision,
        cp_recall=recall,
        cp_f1=f1,
        cp_auc=auc,
        label_accuracy=accuracy,
        delta=delta,
        k=int(k) if k is not None else None,
        beta=int(beta) if beta is not None else None,
        lam=float(lam) if lam is not None else None,
    )
    lines = [
        f"k={report.k if report.k is not None else 'none'}",
        f"beta={report.beta if report.beta is not None else 'none'}",
        f"lambda={_fmt(report.lam) if report.lam is not None else 'none'}",
        f"delta={report.delta}",
        f"cp_precision={_fmt(report.cp_precision)}",
        f"cp_recall={_fmt(report.cp_recall)}",
        f"cp_f1={_fmt(report.cp_f1)}",
        f"cp_auc={_fmt(report.cp_auc)}",
        f"label_accuracy={_fmt(report.label_accuracy)}",
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
    p_det.add_argument("--lambda", dest="lambda_", type=float, help="detection threshold")
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
    p_eval.add_argument("--lambda", dest="lambda_", type=float)
    p_eval.add_argument("--out", help="report path (default stdout)")
    p_eval.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse stores --lambda under lambda_; expose it under the config key name
        if hasattr(args, "lambda_"):
            setattr(args, "lambda", args.lambda_)
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
