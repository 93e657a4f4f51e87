"""Reduced-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload once at a small size, untraced and traced, and checks that
each metric ``BENCHMARK.json`` names is emitted, as a finite number with its
unit, with no failed check. Then it corrupts one output at a time (a shifted
change point, a dropped row, a perturbed statistic) and checks that the oracle
guarding it fails. Last, it checks that the entry point exits nonzero, without
a result line, in a directory holding only the benchmark. Takes about a
minute; exits 1 on the first problem list.
"""

import os
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from wcpd import TimeSeries, detect  # noqa: E402

SEED = 5
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def small(w: harness.Workload) -> harness.Workload:
    return dataclasses.replace(
        w, segments=12, seg_len=150, beta=20, ensemble=4,
        stream_len=w.stream_len and 300,
    )


def fails(reader, *args) -> bool:
    """True when ``parse`` rejects the file: the check fails and the run aborts."""
    checks = harness.Checks()
    try:
        harness.parse(checks, reader, *args)
    except harness.Abort:
        return checks.failures != []
    return False


def check_metrics(spec: dict, work: Path) -> None:
    for name, w in harness.WORKLOADS.items():
        for trace in (0, 1):
            report = harness.run(small(w), SEED, 0.0, bool(trace), work / f"{name}-{trace}")
            line = run.result_line(report, spec, trace)
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                   f"{name} trace={trace}: failed checks {report['checks']['failures']}")
            wanted = spec["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = line["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"]
                       and isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                       f"{name} trace={trace}: metric {metric['name']} missing or bad: {got}")
            expect(set(line["metrics"]) == {m["name"] for m in wanted},
                   f"{name} trace={trace}: extra metrics {set(line['metrics'])}")
            if not trace:
                factors = [r["factor"] for r in report["rounds"]] + [
                    r["factor"] for r in report["setup"]["reps"]]
                expect(all(math.isfinite(f) and f > 0 for f in factors),
                       f"{name}: bad speed factors {factors}")


def check_oracles(work: Path) -> None:
    w = small(harness.WORKLOADS["detect-long"])
    runner = harness.Runner(w, SEED, work)
    runner.traced_setup()
    runner.tracer.run = 0
    with runner.tracer.span("round"):
        rnd = runner.user_round(0, 0, replayed=True)
    runner.oracles(rnd)
    runner.replay(rnd)
    expect(runner.checks.failures == [], f"clean round failed: {runner.checks.failures}")

    total = len(runner.inputs[0].series)
    data = runner.inputs[0].series.data
    t = rnd.change_points[0]
    raw = rnd.raw.copy()
    expect(harness.trace_mismatches(raw, data, w.beta, [t]) == [], "trace oracle: false alarm")
    raw[t] += 1e-7
    expect(harness.trace_mismatches(raw, data, w.beta, [t]) == [t],
           "trace oracle: missed a perturbed statistic")

    offline = detect(TimeSeries(data[: w.stream_len]), runner.config).change_points
    expect(harness.online_matches(rnd.stream, offline), "online oracle: false alarm")
    shifted = [offline[0] + 1, *offline[1:]] if offline else [w.stream_len // 2]
    expect(not harness.online_matches(rnd.stream, shifted),
           "online oracle: missed a shifted change point")

    # the replay oracles, fed outputs that disagree with the library
    cases = {
        "replayed peaks": dataclasses.replace(rnd, change_points=[t + 1, *rnd.change_points[1:]]),
        "replayed spectral_cluster labels": dataclasses.replace(
            rnd, segment_labels=[(rnd.segment_labels[0] + 1) % harness.K, *rnd.segment_labels[1:]]),
        "replayed scores": dataclasses.replace(
            rnd, scores={**rnd.scores, "cp_f1": rnd.scores["cp_f1"] / 2}),
    }
    for what, corrupted in cases.items():
        before = len(runner.checks.failures)
        runner.replay(corrupted)
        new = runner.checks.failures[before:]
        expect(len(new) == 1 and new[0].startswith(what), f"{what} oracle: got {new}")

    # output files: each corruption must fail the parse check
    out = work / "round-0"
    bad = work / "bad"
    bad.mkdir()

    def corrupt(name: str, edit) -> Path:
        lines = (out / name).read_text().splitlines()
        path = bad / Path(name).name
        path.write_text("".join(f"{line}\n" for line in edit(lines)))
        return path

    cps = "det/change_points.txt"
    expect(not fails(harness.read_indices, out / cps, total), "read_indices: false alarm")
    expect(fails(harness.read_indices, corrupt(cps, lambda ls: [*ls[:-1], str(total)]), total),
           "read_indices: accepted a change point shifted out of range")
    expect(fails(harness.read_indices, corrupt(cps, lambda ls: ls[1:2] + ls[:1] + ls[2:]), total),
           "read_indices: accepted unordered change points")
    trace = "det/trace.csv"
    expect(not fails(harness.read_trace, out / trace, total), "read_trace: false alarm")
    expect(fails(harness.read_trace, corrupt(trace, lambda ls: ls[:-1]), total),
           "read_trace: accepted a missing row")
    segments = "clu/segments.csv"

    def shift_boundary(lines):
        i, start, end, label = lines[2].split(",")
        return [*lines[:2], f"{i},{int(start) + 1},{end},{label}", *lines[3:]]

    expect(not fails(harness.read_segments, out / segments, total, harness.K),
           "read_segments: false alarm")
    expect(fails(harness.read_segments, corrupt(segments, shift_boundary), total, harness.K),
           "read_segments: accepted a shifted segment boundary")
    labels = "clu/labels.csv"
    expect(not fails(harness.read_labels, out / labels, total, harness.K), "read_labels: false alarm")
    expect(fails(harness.read_labels, corrupt(labels, lambda ls: ls[:-1]), total, harness.K),
           "read_labels: accepted a missing row")
    expect(fails(harness.read_labels, corrupt(labels, lambda ls: [*ls[:-1], f"{total - 1},{harness.K}"]),
                 total, harness.K), "read_labels: accepted a label outside [0, k)")
    expect(not fails(harness.read_report, out / "report.txt"), "read_report: false alarm")
    expect(fails(harness.read_report, corrupt(
        "report.txt", lambda ls: [x if not x.startswith("cp_f1=") else "cp_f1=nan" for x in ls])),
        "read_report: accepted a missing score")


def check_fails_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "detect-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"entry point without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_metrics(spec, work / "metrics")
        check_oracles(work / "oracles")
        check_fails_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
