"""A seeded CLI round trip whose outputs are pinned byte for byte.

simulate -> calibrate-filter -> detect -> cluster -> evaluate on a small d = 2
series. Any change to an output's bytes fails here; a deliberate one edits the
digest in the same change. The statistic is one exact rational rounded once,
and the matched filter sums in a fixed tap order with no BLAS call, so
``trace.csv`` is pinned too and the report scores its filtered column. The
simulated CSV is not pinned: its ``log``/``exp`` rounding differs between
numpy's CPU dispatch targets (it is rebuilt from its streams below instead).
The digests held under the default and four forced OpenBLAS core types; a
machine that disagrees is a finding to report, not a digest to update.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcpd
from wcpd.cli import main
from wcpd.simgen import DistSpec

from helpers import one_stream_draw

SEGMENTS = [
    {"family": "normal", "location": 0, "scale": 1, "length": 90},
    {"family": "laplace", "location": 2, "scale": 0.7, "length": 60},
    {"family": "normal", "location": 0, "scale": 3, "length": 110},
    {"family": "normal", "location": 0, "scale": 1, "length": 35},
    {"family": "laplace", "location": 2, "scale": 0.7, "length": 120},
    {"family": "normal", "location": 0, "scale": 3, "length": 80},
]

GOLDEN = {
    "data.csv.cps": "d1e5e2c9211387f8e3a51504b8939c25e82403548c375c9e9050700c357cf21e",
    "data.csv.labels": "64537f31503133ad6d122d149913bb32d8c3f7a894df6fddc139fbdabce00cd9",
    "filter.json": "e4d851c3983afafb46da4227fbc40d42f2bdfd1b3f944906d6e489b435e70ebb",
    "change_points.txt": "db92a231cf2a7f80bd0ea2422141db99bb0211b79daf6baade36670ede10bfa2",
    "segments.csv": "fcf381ecf98f0a446b4aa25b857e6d4c308e5e2da1ba0df248911784ab1ab4c3",
    "labels.csv": "d6913905b4707d4afb9a2ba7a1bcbf7fd8e5e15f30e9f9871a8a535f733a05e4",
    "trace.csv": "99682f4a858099c7cffebf594bad7344bbac21ed5a76b41ed15e09756d791fb8",
    "report.txt": "d7bd5091b39a01fb9e75b633041171f7916d6567a80e808cf863695eb0cdccef",
}


def run(*args):
    assert main([str(a) for a in args]) == 0, args


def test_round_trip_outputs_are_pinned(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 11, "dimension": 2, "segments": SEGMENTS}))
    data = tmp_path / "data.csv"
    ingest = ["--input", data, "--time-column", "t", "--label-column", "label"]
    run("simulate", "--spec", spec, "--out", data)
    run("calibrate-filter", "--beta", 15, "--ensemble", 30, "--seed", 4,
        "--out", tmp_path / "filter.json")
    run("detect", *ingest, "--beta", 15, "--filter", tmp_path / "filter.json",
        "--out-dir", tmp_path / "det")
    run("cluster", *ingest, "--beta", 15, "--k", 3, "--seed", 2,
        "--change-points", tmp_path / "det" / "change_points.txt", "--out-dir", tmp_path / "clu")
    run("evaluate", "--predicted", tmp_path / "det" / "change_points.txt",
        "--truth", f"{data}.cps", "--delta", 10,
        "--trace", tmp_path / "det" / "trace.csv", "--trace-column", "filtered",
        "--predicted-labels", tmp_path / "clu" / "labels.csv", "--truth-labels", f"{data}.labels",
        "--k", 3, "--beta", 15, "--out", tmp_path / "report.txt")
    paths = {
        "data.csv.cps": tmp_path / "data.csv.cps",
        "data.csv.labels": tmp_path / "data.csv.labels",
        "filter.json": tmp_path / "filter.json",
        "change_points.txt": tmp_path / "det" / "change_points.txt",
        "segments.csv": tmp_path / "clu" / "segments.csv",
        "labels.csv": tmp_path / "clu" / "labels.csv",
        "trace.csv": tmp_path / "det" / "trace.csv",
        "report.txt": tmp_path / "report.txt",
    }
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == GOLDEN


@pytest.mark.parametrize("beta", [15, 50])
def test_trace_does_not_depend_on_the_blas_core_type(tmp_path, beta):
    # the oldest core type OpenBLAS runs on x86-64, forced in a fresh process,
    # against whatever core type this process picked
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 11, "dimension": 2, "segments": SEGMENTS}))
    data = tmp_path / "data.csv"
    run("simulate", "--spec", spec, "--out", data)
    run("calibrate-filter", "--beta", beta, "--ensemble", 30, "--seed", 4,
        "--out", tmp_path / "filter.json")
    detect = ["detect", "--input", data, "--time-column", "t", "--label-column", "label",
              "--beta", beta, "--filter", tmp_path / "filter.json", "--out-dir"]
    run(*detect, tmp_path / "here")
    src = str(Path(wcpd.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-m", "wcpd", *map(str, detect), tmp_path / "fresh"],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for name in ("trace.csv", "change_points.txt"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


# filter.json at the bench's settings (ensemble 50, seed 0), recorded while
# calibration still simulated and scanned one member at a time
BENCH_FILTERS = {
    50: "c29b72f7f7cf70f658e423fe64b3909a13c26d430418385c73d019a8fe50a1da",
    100: "5d3c0a9bb3366fdb70f6df5107bfc0670acded845d54516d8fb96e77473d51c9",
}


@pytest.mark.parametrize("beta", sorted(BENCH_FILTERS))
def test_bench_filters_are_pinned(tmp_path, beta):
    out = tmp_path / "filter.json"
    run("calibrate-filter", "--beta", beta, "--ensemble", 50, "--seed", 0, "--out", out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_FILTERS[beta]


def test_simulated_csv_is_one_stream_per_segment_and_dimension(tmp_path):
    # the CSV is not pinned (see above), so it is rebuilt here from the
    # one-stream draw of each (seed, segment, dimension)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 11, "dimension": 2, "segments": SEGMENTS}))
    run("simulate", "--spec", spec, "--out", tmp_path / "data.csv")
    columns = np.concatenate([
        np.stack([one_stream_draw(DistSpec(seg["family"], seg["location"], seg["scale"]),
                                  seg["length"], [11, index, dim]) for dim in range(2)], axis=1)
        for index, seg in enumerate(SEGMENTS)
    ])
    labels = (tmp_path / "data.csv.labels").read_text().split()
    rows = [f"{t},{x!r},{y!r},{label}" for t, ((x, y), label) in enumerate(zip(columns.tolist(), labels))]
    assert (tmp_path / "data.csv").read_text() == "\n".join(["t,x0,x1,label", *rows]) + "\n"
