import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcpd
from wcpd.cli import ingest_csv, main


def run(args):
    return main([str(a) for a in args])


def write_spec(path, segments, seed=5, dimension=1):
    payload = {"seed": seed, "dimension": dimension, "segments": segments}
    Path(path).write_text(json.dumps(payload))


THREE_SEGMENTS = [
    {"family": "normal", "location": 0, "scale": 1, "length": 150},
    {"family": "normal", "location": 3, "scale": 1, "length": 150},
    {"family": "normal", "location": 0, "scale": 3, "length": 150},
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    write_spec(base / "spec.json", THREE_SEGMENTS)
    assert run(["simulate", "--spec", base / "spec.json", "--out", base / "data.csv"]) == 0
    assert (
        run(
            [
                "calibrate-filter",
                "--beta",
                30,
                "--ensemble",
                40,
                "--seed",
                3,
                "--out",
                base / "filter.json",
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "detect",
                "--input",
                base / "data.csv",
                "--time-column",
                "t",
                "--label-column",
                "label",
                "--beta",
                30,
                "--filter",
                base / "filter.json",
                "--out-dir",
                base / "det",
            ]
        )
        == 0
    )
    return base


class TestSimulate:
    def test_outputs(self, workspace):
        data = (workspace / "data.csv").read_text().splitlines()
        assert data[0] == "t,x0,label"
        assert len(data) == 451
        cps = (workspace / "data.csv.cps").read_text().split()
        assert cps == ["150", "300"]
        labels = (workspace / "data.csv.labels").read_text().split()
        assert len(labels) == 450

    def test_same_seed_identical_files(self, tmp_path):
        write_spec(tmp_path / "spec.json", THREE_SEGMENTS[:2])
        for name in ("a.csv", "b.csv"):
            assert run(["simulate", "--spec", tmp_path / "spec.json", "--out", tmp_path / name]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv.cps").read_bytes() == (tmp_path / "b.csv.cps").read_bytes()

    def test_invalid_spec_is_data_error(self, tmp_path):
        write_spec(tmp_path / "bad.json", [{"family": "normal", "length": 0}])
        assert run(["simulate", "--spec", tmp_path / "bad.json", "--out", tmp_path / "x.csv"]) == 2

    def test_list_spec_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "list.json"
        spec.write_text(json.dumps(THREE_SEGMENTS))
        assert run(["simulate", "--spec", spec, "--out", tmp_path / "x.csv"]) == 2
        assert str(spec) in capsys.readouterr().err

    def test_four_segments_three_indices(self, tmp_path):
        write_spec(
            tmp_path / "spec.json",
            [{"family": "normal", "location": mu, "scale": 1, "length": 50} for mu in (0, 4, 0, 4)],
        )
        assert run(["simulate", "--spec", tmp_path / "spec.json", "--out", tmp_path / "d.csv"]) == 0
        assert (tmp_path / "d.csv.cps").read_text().split() == ["50", "100", "150"]


class TestCalibrateFilter:
    def test_filter_file_unit_area(self, workspace):
        payload = json.loads((workspace / "filter.json").read_text())
        assert abs(sum(payload["taps"]) - 1.0) <= 1e-9
        assert len(payload["taps"]) == 61

    def test_summary_peak_near_center(self, workspace, capsys):
        assert run(
            [
                "calibrate-filter",
                "--beta",
                20,
                "--ensemble",
                60,
                "--seed",
                9,
                "--out",
                workspace / "f2.json",
            ]
        ) == 0
        summary = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert abs(int(summary["peak_offset"])) <= 5
        assert float(summary["taps_sum"]) == pytest.approx(1.0, abs=1e-9)

    def test_custom_pairs_file(self, workspace, tmp_path):
        pairs = [
            [
                {"family": "normal", "location": 0.0, "scale": 1.0},
                {"family": "normal", "location": 6.0, "scale": 1.0},
            ]
        ]
        (tmp_path / "pairs.json").write_text(json.dumps(pairs))
        assert run(
            [
                "calibrate-filter",
                "--beta",
                10,
                "--ensemble",
                5,
                "--seed",
                1,
                "--pairs",
                tmp_path / "pairs.json",
                "--out",
                tmp_path / "custom.json",
            ]
        ) == 0
        payload = json.loads((tmp_path / "custom.json").read_text())
        assert payload["change_pairs"][0][1]["location"] == 6.0

    def test_unknown_pair_key_is_data_error(self, tmp_path, capsys):
        pairs = [[{"family": "normal", "mean": 0.0}, {"family": "normal", "location": 1.0}]]
        (tmp_path / "pairs.json").write_text(json.dumps(pairs))
        code = run(
            [
                "calibrate-filter",
                "--beta",
                5,
                "--ensemble",
                2,
                "--pairs",
                tmp_path / "pairs.json",
                "--out",
                tmp_path / "f.json",
            ]
        )
        assert code == 2
        assert str(tmp_path / "pairs.json") in capsys.readouterr().err

    def test_unwritable_out_path(self, workspace):
        code = run(
            [
                "calibrate-filter",
                "--beta",
                5,
                "--ensemble",
                2,
                "--out",
                "/proc/definitely/not/writable.json",
            ]
        )
        assert code != 0


class TestDetect:
    def test_detections_near_truth(self, workspace):
        cps = [int(x) for x in (workspace / "det/change_points.txt").read_text().split()]
        assert len(cps) >= 2
        for truth in (150, 300):
            assert min(abs(cp - truth) for cp in cps) <= 20

    def test_trace_schema(self, workspace):
        lines = (workspace / "det/trace.csv").read_text().splitlines()
        assert lines[0] == "t,sigma_raw,sigma_filtered"
        assert len(lines) == 451
        first = lines[1].split(",")
        assert first[1] == "nan"  # warm-up marker rather than silent truncation

    def test_constant_input_empty_output(self, workspace, tmp_path):
        lines = ["t,x0"] + [f"{t},1.0" for t in range(200)]
        (tmp_path / "const.csv").write_text("\n".join(lines) + "\n")
        assert run(
            [
                "detect",
                "--input",
                tmp_path / "const.csv",
                "--time-column",
                "t",
                "--beta",
                30,
                "--filter",
                workspace / "filter.json",
                "--out-dir",
                tmp_path / "out",
            ]
        ) == 0
        assert (tmp_path / "out/change_points.txt").read_text() == ""

    def test_short_series_names_file_length_and_beta(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("t,x0\n0,1.0\n1,2.0\n2,3.0\n")
        code = run(["detect", "--input", tmp_path / "s.csv", "--time-column", "t",
                    "--beta", 5, "--out-dir", tmp_path / "out"])
        assert code == 2
        message = capsys.readouterr().err
        assert f"{tmp_path / 's.csv'}: " in message
        assert "3 samples" in message and "beta=5 needs at least 11" in message

    def test_huge_threshold_empty_output(self, workspace, tmp_path):
        assert run(
            [
                "detect",
                "--input",
                workspace / "data.csv",
                "--time-column",
                "t",
                "--label-column",
                "label",
                "--beta",
                30,
                "--lambda",
                1000.0,
                "--filter",
                workspace / "filter.json",
                "--out-dir",
                tmp_path / "out",
            ]
        ) == 0
        assert (tmp_path / "out/change_points.txt").read_text() == ""

    def test_missing_filter_is_error(self, workspace, tmp_path):
        code = run(
            [
                "detect",
                "--input",
                workspace / "data.csv",
                "--time-column",
                "t",
                "--label-column",
                "label",
                "--beta",
                30,
                "--filter",
                tmp_path / "missing.json",
                "--out-dir",
                tmp_path / "out",
            ]
        )
        assert code == 2

    def test_filter_without_taps_is_data_error(self, workspace, tmp_path, capsys):
        payload = json.loads((workspace / "filter.json").read_text())
        del payload["taps"]
        broken = tmp_path / "no_taps.json"
        broken.write_text(json.dumps(payload))
        code = run(
            [
                "detect",
                "--input",
                workspace / "data.csv",
                "--time-column",
                "t",
                "--label-column",
                "label",
                "--beta",
                30,
                "--filter",
                broken,
                "--out-dir",
                tmp_path / "out",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(broken) in err and "'taps'" in err

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        config = {
            "input": str(workspace / "data.csv"),
            "time-column": "t",
            "label-column": "label",
            "beta": 30,
            "filter": str(workspace / "filter.json"),
            "out-dir": str(tmp_path / "from_config"),
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run(["detect", "--config", tmp_path / "config.json"]) == 0
        assert run(
            [
                "detect",
                "--config",
                tmp_path / "config.json",
                "--out-dir",
                tmp_path / "overridden",
            ]
        ) == 0
        assert (tmp_path / "overridden/change_points.txt").exists()
        a = (tmp_path / "from_config/change_points.txt").read_bytes()
        b = (tmp_path / "overridden/change_points.txt").read_bytes()
        assert a == b


class TestCluster:
    def test_cluster_with_truth_cps(self, workspace, capsys):
        assert run(
            [
                "cluster",
                "--input",
                workspace / "data.csv",
                "--time-column",
                "t",
                "--label-column",
                "label",
                "--beta",
                30,
                "--k",
                3,
                "--seed",
                0,
                "--change-points",
                workspace / "data.csv.cps",
                "--out-dir",
                workspace / "clu",
            ]
        ) == 0
        segments = (workspace / "clu/segments.csv").read_text().splitlines()
        assert segments[0] == "segment_index,start,end,label"
        assert len(segments) == 4
        labels = (workspace / "clu/labels.csv").read_text().splitlines()
        assert len(labels) == 451

    def test_k_one_all_zero(self, workspace, tmp_path):
        assert run(
            [
                "cluster",
                "--input",
                workspace / "data.csv",
                "--time-column",
                "t",
                "--label-column",
                "label",
                "--beta",
                30,
                "--k",
                1,
                "--seed",
                0,
                "--change-points",
                workspace / "data.csv.cps",
                "--out-dir",
                tmp_path / "c1",
            ]
        ) == 0
        rows = (tmp_path / "c1/segments.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)

    def test_single_segment_k2_error(self, workspace, tmp_path):
        (tmp_path / "empty.cps").write_text("")
        code = run(
            [
                "cluster",
                "--input",
                workspace / "data.csv",
                "--time-column",
                "t",
                "--label-column",
                "label",
                "--beta",
                30,
                "--k",
                2,
                "--seed",
                0,
                "--change-points",
                tmp_path / "empty.cps",
                "--out-dir",
                tmp_path / "c2",
            ]
        )
        assert code == 2

    def test_k_above_segment_count_names_flag_and_file(self, workspace, tmp_path, capsys):
        (tmp_path / "two.cps").write_text("150\n300\n")
        code = run(["cluster", "--input", workspace / "data.csv", "--time-column", "t",
                    "--label-column", "label", "--beta", 30, "--k", 5,
                    "--change-points", tmp_path / "two.cps", "--out-dir", tmp_path / "c5"])
        assert code == 2
        message = capsys.readouterr().err
        assert "--k 5 exceeds the 3 segments" in message
        assert str(tmp_path / "two.cps") in message
        assert not (tmp_path / "c5").exists()


class TestEvaluate:
    def test_perfect_predictions(self, workspace, tmp_path, capsys):
        assert run(
            [
                "evaluate",
                "--predicted",
                workspace / "data.csv.cps",
                "--truth",
                workspace / "data.csv.cps",
                "--delta",
                20,
                "--trace",
                workspace / "det/trace.csv",
                "--k",
                3,
                "--beta",
                30,
                "--lambda",
                0.462,
            ]
        ) == 0
        report = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(report["cp_precision"]) == 1.0
        assert float(report["cp_recall"]) == 1.0
        assert float(report["cp_f1"]) == 1.0
        assert float(report["cp_auc"]) >= 0.9
        # parameter echo is part of the schema
        for key in ("k", "beta", "lambda", "delta"):
            assert key in report

    def test_label_accuracy_path(self, workspace, capsys):
        assert run(
            [
                "evaluate",
                "--predicted",
                workspace / "det/change_points.txt",
                "--truth",
                workspace / "data.csv.cps",
                "--delta",
                20,
                "--predicted-labels",
                workspace / "clu/labels.csv",
                "--truth-labels",
                workspace / "data.csv.labels",
                "--k",
                3,
            ]
        ) == 0
        report = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(report["label_accuracy"]) == 1.0

    def test_perfect_predictions_with_sharp_trace(self, tmp_path, capsys):
        # hand-built trace whose delta-neighborhoods clearly dominate the rest
        rng = np.random.default_rng(77)
        truth = [120, 260]
        rows = ["t,sigma_raw,sigma_filtered"]
        for t in range(400):
            if t < 5 or t >= 395:
                value = "nan"
            else:
                noise = 0.05 * rng.random()
                lift = 1.0 if min(abs(t - cp) for cp in truth) <= 15 else 0.0
                value = repr(lift + noise)
            rows.append(f"{t},{value},{value}")
        (tmp_path / "trace.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "truth.cps").write_text("120\n260\n")
        assert run(
            [
                "evaluate",
                "--predicted",
                tmp_path / "truth.cps",
                "--truth",
                tmp_path / "truth.cps",
                "--delta",
                15,
                "--trace",
                tmp_path / "trace.csv",
            ]
        ) == 0
        report = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(report["cp_precision"]) == 1.0
        assert float(report["cp_recall"]) == 1.0
        assert float(report["cp_f1"]) == 1.0
        assert float(report["cp_auc"]) >= 0.99

    def test_raw_trace_column(self, workspace, capsys):
        assert run(
            [
                "evaluate",
                "--predicted",
                workspace / "data.csv.cps",
                "--truth",
                workspace / "data.csv.cps",
                "--delta",
                20,
                "--trace",
                workspace / "det/trace.csv",
                "--trace-column",
                "raw",
            ]
        ) == 0
        report = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert 0.0 <= float(report["cp_auc"]) <= 1.0

    def test_report_to_file(self, workspace, tmp_path):
        out = tmp_path / "report.txt"
        assert run(
            [
                "evaluate",
                "--predicted",
                workspace / "data.csv.cps",
                "--truth",
                workspace / "data.csv.cps",
                "--delta",
                10,
                "--out",
                out,
            ]
        ) == 0
        text = out.read_text()
        assert "cp_f1=1.0" in text
        assert "cp_auc=nan" in text

    def test_missing_truth_file(self, workspace, tmp_path):
        code = run(
            [
                "evaluate",
                "--predicted",
                workspace / "data.csv.cps",
                "--truth",
                tmp_path / "missing.cps",
                "--delta",
                10,
            ]
        )
        assert code == 2

    def test_label_count_mismatch_names_both_files(self, tmp_path, capsys):
        (tmp_path / "truth.cps").write_text("200\n")
        truth = tmp_path / "truth.labels"
        truth.write_text("0\n" * 200 + "1\n" * 200)
        predicted = tmp_path / "labels.csv"
        predicted.write_text("t,label\n" + "".join(f"{t},{int(t >= 150)}\n" for t in range(300)))
        code = run(
            [
                "evaluate",
                "--predicted",
                tmp_path / "truth.cps",
                "--truth",
                tmp_path / "truth.cps",
                "--delta",
                10,
                "--predicted-labels",
                predicted,
                "--truth-labels",
                truth,
                "--k",
                2,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(predicted) in err and str(truth) in err

    def test_missing_delta_is_usage_error(self, workspace):
        code = run(
            ["evaluate", "--predicted", workspace / "data.csv.cps", "--truth", workspace / "data.csv.cps"]
        )
        assert code == 1


class TestIngest:
    def test_three_axis_with_labels(self, tmp_path):
        lines = ["t,ax,ay,az,label"]
        for t in range(5):
            lines.append(f"{t},{t * 0.1},{t * 0.2},{t * 0.3},{t % 2}")
        path = tmp_path / "acc.csv"
        path.write_text("\n".join(lines) + "\n")
        series = ingest_csv(path, label_column="label", time_column="t")
        assert series.dim == 3
        assert series.labels is not None
        np.testing.assert_array_equal(series.labels, [0, 1, 0, 1, 0])

    def test_single_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x\n1.0\n2.0\n")
        assert ingest_csv(path).dim == 1

    def test_header_only_is_empty_series(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="empty series"):
            ingest_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"t,x0\n0,1.0\n1,{cell}\n")
        message = f"{path}: line 3: non-finite value '{cell}' in column 'x0'"
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_csv(path, time_column="t")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest_csv(path)

    def test_duplicate_column_name_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("x,x\n1,10\n2,20\n")
        code = run(["detect", "--input", path, "--beta", 1, "--out-dir", tmp_path / "out"])
        assert code == 2
        assert f"error: {path}: duplicate column name 'x'" in capsys.readouterr().err

    def test_difference_transform(self, tmp_path):
        path = tmp_path / "diff.csv"
        path.write_text("x\n1.0\n4.0\n9.0\n")
        series = ingest_csv(path, difference=True)
        np.testing.assert_array_equal(series.data[:, 0], [3.0, 5.0])


class TestDeterminism:
    def test_detect_runs_are_byte_identical(self, workspace, tmp_path):
        for name in ("r1", "r2"):
            assert run(
                [
                    "detect",
                    "--input",
                    workspace / "data.csv",
                    "--time-column",
                    "t",
                    "--label-column",
                    "label",
                    "--beta",
                    30,
                    "--filter",
                    workspace / "filter.json",
                    "--out-dir",
                    tmp_path / name,
                ]
            ) == 0
        for filename in ("change_points.txt", "trace.csv"):
            assert (tmp_path / "r1" / filename).read_bytes() == (
                tmp_path / "r2" / filename
            ).read_bytes()


SPEC = ["simulate", "--spec", "{json}", "--out", "{tmp}/x.csv"]


@pytest.mark.parametrize(
    "argv,content",
    [
        (SPEC, json.dumps({"segments": [{"family": "normal", "length": 0}]})),
        (SPEC, json.dumps({"segments": [{"family": "normal", "location": "x", "length": 5}]})),
        (SPEC, json.dumps({"segments": [{"family": "cauchy", "length": 5}]})),
        (SPEC, '{"segments": ['),
        (["calibrate-filter", "--beta", "5", "--pairs", "{json}", "--out", "{tmp}/f.json"], "[[{"),
        (["detect", "--config", "{json}"], '{"beta": 5'),
    ],
    ids=["zero-length", "string-location", "unknown-family", "truncated-spec",
         "truncated-pairs", "truncated-config"],
)
def test_json_input_error_names_the_file(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    code = run([arg.format(json=path, tmp=tmp_path) for arg in argv])
    assert code == 2
    assert f"error: {path}: " in capsys.readouterr().err


CLUSTER = ["cluster", "--input", "{ws}/data.csv", "--time-column", "t", "--label-column", "label",
           "--beta", "30", "--k", "2", "--change-points", "{bad}", "--out-dir", "{tmp}/out"]
EVALUATE = ["evaluate", "--predicted", "{ws}/data.csv.cps", "--truth", "{ws}/data.csv.cps",
            "--delta", "20"]
LABELS = [*EVALUATE, "--predicted-labels", "{bad}", "--truth-labels", "{ws}/data.csv.labels",
          "--k", "3"]
TRACE = [*EVALUATE, "--trace", "{bad}"]


@pytest.mark.parametrize(
    "argv,content",
    [
        (CLUSTER, "150\n150\n"),
        (CLUSTER, "150\n450\n"),
        (LABELS, "t,label\n" + "".join(f"{t},{0 if t < 300 else 3}\n" for t in range(450))),
        (TRACE, "t,sigma_raw,sigma_filtered\n"
                + "".join(f"{t},nan,{0.5 if 3 <= t < 18 else 'nan'}\n" for t in range(20))),
    ],
    ids=["duplicate-change-point", "change-point-at-end", "label-at-k", "short-trailing-warmup"],
)
def test_file_content_error_names_the_file(workspace, tmp_path, capsys, argv, content):
    path = tmp_path / "input.txt"
    path.write_text(content)
    code = run([arg.format(ws=workspace, bad=path, tmp=tmp_path) for arg in argv])
    assert code == 2
    assert f"error: {path}: " in capsys.readouterr().err


DETECT = ["detect", "--input", "{ws}/data.csv", "--time-column", "t", "--label-column", "label",
          "--beta", "30", "--out-dir", "{tmp}/out"]


def test_delimiter_flag_of_wrong_length_is_usage_error(workspace, tmp_path, capsys):
    code = run([*(arg.format(ws=workspace, tmp=tmp_path) for arg in DETECT), "--delimiter", ""])
    assert code == 1
    assert "usage error: --delimiter: " in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", ["", ";;", 5])
def test_config_delimiter_of_wrong_length_names_the_file(workspace, tmp_path, capsys, delimiter):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"delimiter": delimiter}))
    argv = [*(arg.format(ws=workspace, tmp=tmp_path) for arg in DETECT), "--config", config]
    assert run(argv) == 2
    assert f"error: {config}: 'delimiter': " in capsys.readouterr().err


@pytest.mark.parametrize("key", ["k", "beta", "delta", "lambda"])
def test_config_value_of_wrong_type_names_file_and_key(workspace, tmp_path, capsys, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"delta": 5, key: "abc"}))
    argv = ["evaluate", "--config", config, "--predicted", workspace / "data.csv.cps",
            "--truth", workspace / "data.csv.cps"]
    assert run(argv) == 2
    assert f"error: {config}: {key!r}: " in capsys.readouterr().err


def test_python_m_wcpd_runs_the_cli():
    src = str(Path(wcpd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "wcpd", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: wcpd")
