import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcpd
from wcpd import cli
from wcpd.cli import build_parser, ingest_csv, main


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

    def test_overflowing_pair_names_file_and_pair(self, tmp_path, capsys):
        normal = {"family": "normal", "location": 0.0, "scale": 1.0}
        huge = {"family": "normal", "location": 1e308, "scale": 1e308}
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[normal, normal], [normal, huge]]))
        argv = ["calibrate-filter", "--beta", 5, "--ensemble", 3, "--pairs", pairs,
                "--out", tmp_path / "f.json"]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {pairs}: change pair 1, segment 1: "
            "location and scale overflow to a non-finite sample\n"
        )
        assert not (tmp_path / "f.json").exists()

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

    def test_filter_with_string_taps_is_data_error(self, workspace, tmp_path, capsys):
        payload = json.loads((workspace / "filter.json").read_text())
        payload["taps"] = [repr(tap) for tap in payload["taps"]]
        broken = tmp_path / "string_taps.json"
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
        assert str(broken) in err and "taps must be real numbers" in err

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

    def test_builds_one_series_and_takes_change_points_in_any_order(self, workspace, tmp_path,
                                                                    monkeypatch):
        # the change points go straight to cluster_segments, which sorts and
        # checks them; no second series is built to hold them
        post_init = wcpd.TimeSeries.__post_init__
        builds = []

        def spy(series):
            builds.append(len(series.data))
            post_init(series)

        outputs = {}
        for name, text in [("sorted", "150\n300\n"), ("unsorted", "300\n150\n")]:
            (tmp_path / f"{name}.cps").write_text(text)
            builds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(wcpd.TimeSeries, "__post_init__", spy)
                assert run(["cluster", "--input", workspace / "data.csv", "--time-column", "t",
                            "--label-column", "label", "--beta", 30, "--k", 2,
                            "--change-points", tmp_path / f"{name}.cps",
                            "--out-dir", tmp_path / name]) == 0
            assert builds == [450]
            outputs[name] = [(tmp_path / name / f).read_bytes()
                             for f in ("segments.csv", "labels.csv")]
        assert outputs["unsorted"] == outputs["sorted"]


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

    @pytest.mark.parametrize("given, missing", [
        ("predicted-labels", "truth-labels"), ("truth-labels", "predicted-labels")])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_one_label_file_is_usage_error(self, workspace, tmp_path, capsys,
                                           given, missing, via_config):
        # labels are scored only against each other; one alone used to give nan
        path = workspace / ("clu/labels.csv" if given == "predicted-labels" else "data.csv.labels")
        argv = ["evaluate", "--predicted", workspace / "data.csv.cps",
                "--truth", workspace / "data.csv.cps", "--delta", 20, "--k", 3]
        if via_config:
            (tmp_path / "cfg.json").write_text(json.dumps({given: str(path)}))
            argv += ["--config", tmp_path / "cfg.json"]
        else:
            argv += [f"--{given}", path]
        assert run(argv) == 1
        assert f"usage error: --{missing} is required" in capsys.readouterr().err

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
        # a statistic is at most beta/6; an inf cell was ranked and an AUC printed
        (TRACE, "t,sigma_raw,sigma_filtered\n"
                + "".join(f"{t},nan,{'inf' if t == 200 else 0.5 if 20 <= t < 430 else 'nan'}\n"
                          for t in range(450))),
    ],
    ids=["duplicate-change-point", "change-point-at-end", "label-at-k", "short-trailing-warmup",
         "infinite-filtered-cell"],
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


@pytest.mark.parametrize("command", ["detect", "cluster", "evaluate"])
def test_config_key_no_command_reads_names_file_and_key(workspace, tmp_path, capsys, command):
    # a misspelt key used to be ignored: {"lamda": 5.0} ran detect with the default threshold
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"beta": 30, "lamda": 5.0}))
    assert run([command, "--config", config]) == 2
    assert f"error: {config}: 'lamda' is not an option" in capsys.readouterr().err


def test_config_key_of_another_command_is_allowed(workspace, tmp_path):
    # one config file serves detect, cluster and evaluate
    shared = {"delta": 50, "k": 3, "seed": 0, "change-points": "cps.txt", "truth": "t.txt",
              "label-column": "label", "time-column": "t"}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(shared))
    argv = [arg.format(ws=workspace, tmp=tmp_path) for arg in DETECT]
    assert run([*argv, "--config", config]) == 0
    assert run([*argv[:-1], tmp_path / "plain"]) == 0
    assert (tmp_path / "out/change_points.txt").read_bytes() == (
        tmp_path / "plain/change_points.txt"
    ).read_bytes()


def test_config_out_key_writes_the_report(workspace, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"delta": 5, "out": str(tmp_path / "report.txt")}))
    cps = workspace / "data.csv.cps"
    assert run(["evaluate", "--config", config, "--predicted", cps, "--truth", cps]) == 0
    assert capsys.readouterr().out == ""
    assert "cp_f1=1.0\n" in (tmp_path / "report.txt").read_text()


def test_filter_of_another_beta_names_the_file_and_both_betas(workspace, tmp_path, capsys):
    argv = [arg.format(ws=workspace, tmp=tmp_path) for arg in DETECT]
    argv[argv.index("30")] = "20"
    assert run([*argv, "--filter", workspace / "filter.json"]) == 2
    assert capsys.readouterr().err == (
        f"error: {workspace / 'filter.json'}: filter window size does not match beta: "
        "filter beta 30, beta 20\n"
    )


def test_degenerate_auc_names_truth_and_trace(workspace, tmp_path, capsys):
    truth = tmp_path / "empty.cps"
    truth.write_text("")
    trace = workspace / "det" / "trace.csv"
    argv = ["evaluate", "--predicted", workspace / "data.csv.cps", "--truth", truth,
            "--delta", 20, "--trace", trace]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {truth}, {trace}: degenerate AUC\n"


def test_more_truth_labels_than_clusters_names_the_truth_labels(workspace, tmp_path, capsys):
    predicted = tmp_path / "labels.csv"
    predicted.write_text("t,label\n" + "".join(f"{t},{int(t >= 150)}\n" for t in range(450)))
    truth = workspace / "data.csv.labels"
    argv = [*(arg.format(ws=workspace) for arg in EVALUATE), "--predicted-labels", predicted,
            "--truth-labels", truth, "--k", 2]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {truth}: more distinct truth labels than clusters\n"
    )


def test_evaluate_k_only_bounds_the_labels(workspace, tmp_path, capsys):
    predicted = tmp_path / "labels.csv"
    predicted.write_text("t,label\n" + "".join(f"{t},{int(t >= 200)}\n" for t in range(450)))
    argv = [*(arg.format(ws=workspace) for arg in EVALUATE), "--predicted-labels", predicted,
            "--truth-labels", workspace / "data.csv.labels", "--k"]
    reports = []
    for k in (4, 10**20):
        assert run([*argv, k]) == 0
        reports.append([line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("label_accuracy=")])
    assert reports[0] == reports[1] == ["label_accuracy=0.6666666666666666"]


def test_calibrate_filter_error_without_pairs_names_no_file(tmp_path, capsys):
    argv = ["calibrate-filter", "--beta", 10**20, "--out", tmp_path / "big.json"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "None:" not in err
    assert not (tmp_path / "big.json").exists()


@pytest.mark.parametrize("beta", [10**15, 10**20])
@pytest.mark.parametrize("pairs", [False, True])
def test_calibrate_filter_beta_too_large_names_the_flag(tmp_path, capsys, beta, pairs):
    # only 10**15 (14 PiB) and 10**20 (past numpy's dimension limit): a beta
    # whose arrays could be allocated would run
    argv = ["calibrate-filter", "--beta", beta, "--out", tmp_path / "big.json"]
    prefix = ""
    if pairs:
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([[{"family": "normal"}, {"family": "laplace"}]]))
        argv += ["--pairs", path]
        prefix = f"{path}: "
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}--beta {beta} is too large to calibrate: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "big.json").exists()


NOT_UTF8 = {
    "input": ["detect", "--input", "{bad}", "--beta", "30", "--out-dir", "{tmp}/out"],
    "change-points": CLUSTER,
    "predicted": ["evaluate", "--predicted", "{bad}", "--truth", "{ws}/data.csv.cps",
                  "--delta", "20"],
    "truth": ["evaluate", "--predicted", "{ws}/data.csv.cps", "--truth", "{bad}", "--delta", "20"],
    "trace": TRACE,
    "predicted-labels": LABELS,
    "truth-labels": [*EVALUATE, "--predicted-labels", "{tmp}/labels.csv", "--truth-labels",
                     "{bad}", "--k", "3"],
    "config": ["detect", "--config", "{bad}"],
    "filter": [*DETECT, "--filter", "{bad}"],
    "spec": ["simulate", "--spec", "{bad}", "--out", "{tmp}/x.csv"],
    "pairs": ["calibrate-filter", "--beta", "5", "--pairs", "{bad}", "--out", "{tmp}/f.json"],
}


@pytest.mark.parametrize("option", NOT_UTF8)
def test_non_utf8_file_names_the_file(workspace, tmp_path, capsys, option):
    # the message was the codec's alone: 'utf-8' codec can't decode byte 0xff ...
    argv = NOT_UTF8[option]
    assert argv[argv.index(f"--{option}") + 1] == "{bad}"
    bad = tmp_path / "input.bin"
    bad.write_bytes(b"\xff\n")
    (tmp_path / "labels.csv").write_text("t,label\n" + "".join(f"{t},0\n" for t in range(450)))
    assert run([arg.format(ws=workspace, bad=bad, tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "can't decode byte 0xff" in err


def test_python_m_wcpd_runs_the_cli():
    src = str(Path(wcpd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "wcpd", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: wcpd")


def test_one_parser_serves_a_process_like_fresh_ones(tmp_path, capsys):
    # main reuses one parser per process; a run of commands, errors among
    # them, must exit and print exactly as one fresh process per command
    write_spec(tmp_path / "spec.json", THREE_SEGMENTS)
    (tmp_path / "pred.txt").write_text("150\n300\n")
    (tmp_path / "truth.txt").write_text("150\n302\n")
    scores = ["evaluate", "--predicted", tmp_path / "pred.txt", "--truth", tmp_path / "truth.txt"]
    commands = [
        ["simulate", "--spec", tmp_path / "spec.json", "--out", tmp_path / "x.csv"],
        ["cluster", "--beta", "x"],
        [*scores, "--delta", 1],
        ["detect", "--input", tmp_path / "missing.csv", "--beta", 5, "--out-dir", tmp_path / "o"],
        scores,
        [*scores, "--delta", 2, "--k", 3],
        ["calibrate-filter", "--beta", 1, "--out", tmp_path / "f.json"],
    ]
    in_process = []
    for argv in commands:
        code = run(argv)
        out, err = capsys.readouterr()
        in_process.append((code, out, err))
    src = str(Path(wcpd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    fresh = []
    for argv in commands:
        result = subprocess.run([sys.executable, "-m", "wcpd", *map(str, argv)],
                                env=env, capture_output=True, text=True, timeout=60)
        fresh.append((result.returncode, result.stdout, result.stderr))
    assert [code for code, _, _ in in_process] == [0, 1, 0, 2, 1, 0, 1]
    assert in_process == fresh
    assert build_parser() is not build_parser()


# each command's flags, as they were before one table declared them all
FLAGS = {
    "simulate": {"spec", "out", "truth-out", "labels-out"},
    "calibrate-filter": {"beta", "ensemble", "seed", "pairs", "out"},
    "detect": {"config", "input", "value-columns", "label-column", "time-column", "delimiter",
               "difference", "beta", "lambda", "filter", "out-dir"},
    "cluster": {"config", "input", "value-columns", "label-column", "time-column", "delimiter",
                "difference", "beta", "k", "seed", "change-points", "out-dir"},
    "evaluate": {"config", "predicted", "truth", "delta", "trace", "trace-column",
                 "predicted-labels", "truth-labels", "k", "beta", "lambda", "out"},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_returns_zero_and_lists_every_flag(capsys, command):
    # main used to let argparse's SystemExit(0) through to in-process callers
    assert main([command, "--help"]) == 0
    assert set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) == FLAGS[command] | {"help"}
    assert {option.name for option in cli._OPTIONS if command in option.commands} == FLAGS[command]


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("wcpd ")]
    assert [shlex.split(line)[1] for line in lines] == [
        "simulate", "calibrate-filter", "detect", "cluster", "evaluate"
    ]
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize(
    "work,argv",
    [("detect", DETECT[:-2]),
     ("cluster_segments", ["cluster", "--input", "{ws}/data.csv", "--time-column", "t",
                           "--beta", "30", "--k", "2", "--change-points", "{ws}/data.csv.cps"])],
)
def test_missing_out_dir_is_reported_before_the_work(workspace, capsys, monkeypatch, work, argv):
    # the whole detection or clustering used to run before this usage error
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, refuse)
    assert run([arg.format(ws=workspace) for arg in argv]) == 1
    assert "usage error: missing required option --out-dir" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [3, 6])
def test_calibration_without_signal_is_a_numerical_failure(tmp_path, capsys, seed):
    # at beta 2, one draw of two equal normals leaves no statistic above the null mean
    pairs = tmp_path / "same.json"
    pairs.write_text(json.dumps([[{"family": "normal"}, {"family": "normal"}]]))
    argv = ["calibrate-filter", "--beta", 2, "--ensemble", 1, "--seed", seed, "--pairs", pairs,
            "--out", tmp_path / "f.json"]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "numerical failure: filter estimation failed: no signal above null mean\n"
    )
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("how", ["flag", "config", "tab"])
def test_other_delimiters_give_the_bytes_of_the_comma_run(workspace, tmp_path, how):
    delimiter = "\t" if how == "tab" else ";"
    data = tmp_path / "data.txt"
    data.write_text((workspace / "data.csv").read_text().replace(",", delimiter))
    argv = [arg.format(ws=workspace, tmp=tmp_path) for arg in DETECT]
    argv[argv.index("--input") + 1] = data
    if how == "config":
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"delimiter": delimiter}))
        argv += ["--config", config]
    else:
        argv += ["--delimiter", delimiter]
    assert run([*argv, "--filter", workspace / "filter.json"]) == 0
    for name in ("trace.csv", "change_points.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (workspace / "det" / name).read_bytes()


READ = ["detect", "--input", "{tmp}/in.csv", "--beta", "2", "--out-dir", "{tmp}/out"]
SCORE_LABELS = [*EVALUATE, "--predicted-labels", "{tmp}/in.csv", "--truth-labels",
                "{ws}/data.csv.labels"]
UNUSABLE = {
    "empty input": ("", READ, "empty series"),
    "no value columns": ("t,label\n0,1\n1,1\n",
                         [*READ, "--time-column", "t", "--label-column", "label"],
                         "no value columns"),
    "difference of one sample": ("x\n1.5\n", [*READ, "--difference"],
                                 "need at least two samples to difference"),
    "config not an object": ("[2]", ["detect", "--config", "{tmp}/in.csv"],
                             "config must be a JSON object"),
    "empty trace file": ("", [*EVALUATE, "--trace", "{tmp}/in.csv"], "empty trace file"),
    "all-NaN trace column": ("t,sigma_raw,sigma_filtered\n0,0.5,nan\n1,0.5,nan\n",
                             [*EVALUATE, "--trace", "{tmp}/in.csv"],
                             "trace column 'filtered' contains no values"),
    "empty label file": ("t,label\n", [*SCORE_LABELS, "--k", "3"], "empty label file"),
}


@pytest.mark.parametrize("case", UNUSABLE)
def test_unusable_input_is_a_data_error_naming_the_file(workspace, tmp_path, capsys, case):
    content, argv, message = UNUSABLE[case]
    (tmp_path / "in.csv").write_text(content)
    assert run([arg.format(ws=workspace, tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'in.csv'}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_labels_scored_without_k_is_a_usage_error(workspace, tmp_path, capsys):
    (tmp_path / "in.csv").write_text("t,label\n0,0\n")
    assert run([arg.format(ws=workspace, tmp=tmp_path) for arg in SCORE_LABELS]) == 1
    assert capsys.readouterr().err == "usage error: --k is required to score labels\n"


def test_difference_drops_the_first_label(tmp_path):
    path = tmp_path / "diff.csv"
    path.write_text("x,label\n1.0,0\n4.0,0\n9.0,1\n")
    series = ingest_csv(path, label_column="label", difference=True)
    assert series.data[:, 0].tolist() == [3.0, 5.0]
    assert series.labels.tolist() == [0, 1]
