"""Run one wcpd benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload detect-long --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The full report (environment, per-round
timings, output digests, oracle failures) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; a traced run also writes its
spans there. See ``bench/README.md``.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# Every workload is single-threaded; BLAS reads these when numpy loads, which
# happens first in ``import harness`` below.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parent.parent


def result_line(report: dict, spec: dict, trace: int) -> dict:
    """The result line: check counts and the metrics BENCHMARK.json names."""
    failed = len(report["checks"]["failures"])
    return {
        "correct": failed == 0,
        "attempted": report["checks"]["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    if not (ROOT / "src" / "wcpd" / "__init__.py").is_file():
        print(f"error: no wcpd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports wcpd from src/

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = harness.run(workload, args.seed, args.seconds, bool(args.trace), work)
    except harness.Abort as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps(report) + "\n")

    for failure in report["checks"]["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = result_line(report, spec, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
