"""wcpd benchmark harness: seeded workloads, oracle checks and span tracing.

A run writes ``SERIES_PER_RUN`` seeded series, calibrates the matched filter,
and then repeats *rounds* of the user path, cycling through the series, until
the time budget is spent. A round is closed-loop and single-threaded:

1. ``wcpd detect`` on the whole series (``wcpd.cli.main``, in-process, so
   interpreter start-up stays out of the numbers);
2. ``OnlineDetector``: one producer pushes ``data[t]`` only after the previous
   ``step`` returned, then calls ``finalize``;
3. ``wcpd cluster`` on the workload's change points (detected, planted or
   streamed);
4. ``wcpd evaluate`` against the planted truth.

End-to-end metrics come from untraced runs. A traced run adds to each round a
replay of the same inputs through the public function of every layer, each
call wrapped in a span recorded from this file; spans stay in memory and are
written out when the run ends. Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from wcpd import (
    DetectorConfig,
    OnlineDetector,
    SegmentLabeling,
    affinity_matrix,
    apply_filter,
    build_empirical,
    cp_auc,
    cp_f1,
    detect,
    detect_peaks,
    eigh_symmetric,
    estimate_matched_filter,
    hungarian,
    kmeans,
    label_accuracy,
    load_filter,
    segment_distribution,
    sliding_statistic,
    spectral_cluster,
    w2t_statistic,
    wasserstein2,
)
from wcpd import cli
from wcpd.series import TimeSeries

ROOT = Path(__file__).resolve().parent.parent

# The four segment classes of every workload (laplace scale is b, variance 2b^2).
CLASSES = (
    {"family": "normal", "location": 0.0, "scale": 1.0},
    {"family": "normal", "location": 1.5, "scale": 1.0},
    {"family": "laplace", "location": 0.0, "scale": 1.5},
    {"family": "normal", "location": 0.0, "scale": 2.5},
)

# Four independent series per run, each seen in several rounds. Quality
# scores vary with the draw, so they average over the four. Timings are
# medians over rounds, each round scaled to a reference machine speed (see
# Speed).
SERIES_PER_RUN = 4
ROUNDS_PER_SERIES = 2
SETUP_REPS = 3
# The filter is configuration, not input: one calibration seed for every run,
# so that quality scores vary only with the series.
FILTER_SEED = 0
K = 4  # clusters: one per class
DELTA = 50  # change point matching margin, in samples
LAMBDA = 0.462  # detection threshold: the null law's 0.95 quantile
TRACE_TOL = 1e-9
TRACE_ORACLE_INDICES = 64
W2T_PAIRS = 2000
# Median CPU seconds of one reference_kernel() call on the machine the
# benchmark was defined on (a shared 2-vCPU VM, Python 3.11, numpy 2.4).
# End-to-end timings are reported at this machine speed; see Speed.
REFERENCE_S = 0.0125
# Kernel calls on each side of a round (or set-up repetition) that also count
# towards its speed factor, and calls before each timed part of a set-up
# repetition (a round makes one before each timed call).
KERNEL_MARGIN = 4
KERNEL_CALLS_PER_SETUP_PART = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    """One input shape and the change points its clustering is fed.

    ``cluster_on`` is ``detected`` (from ``wcpd detect``), ``truth`` (planted)
    or ``online`` (streamed plus flushed); the round trip is detection from
    that source (none for ``truth``), then cluster and evaluate.
    ``stream_len`` is how many leading samples the online detector gets (None:
    all of them). ``cluster_reps`` is how many timed ``wcpd cluster`` calls an
    untraced round makes: where clustering is short next to detection, more
    calls give its median as many samples as detection's has.
    """

    name: str
    dim: int
    segments: int
    seg_len: int
    beta: int
    cluster_on: str
    stream_len: int | None
    cluster_reps: int = 1
    ensemble: int = 50


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="detect-long",
            dim=1,
            segments=20,
            seg_len=500,
            beta=100,
            cluster_on="detected",
            stream_len=4000,
            cluster_reps=5,
        ),
        Workload(
            name="cluster-many",
            dim=1,
            segments=60,
            seg_len=150,
            beta=50,
            cluster_on="truth",
            stream_len=4000,
        ),
        Workload(
            name="online-stream",
            dim=3,
            segments=24,
            seg_len=150,
            beta=50,
            cluster_on="online",
            stream_len=None,
            cluster_reps=3,
        ),
    )
}

USER_PATH = ("cli.detect", "online.stream", "cli.cluster", "cli.evaluate")

# Timed calls use the process's CPU time: single-threaded work costs the same
# on an idle machine, and time spent runnable but descheduled (other
# processes, a preempted virtual CPU) stays out. Budgets use wall time.
clock = time.process_time
wall_clock = time.perf_counter


class Abort(Exception):
    """A failure after which the run cannot produce trustworthy metrics."""


class Checks:
    """Counts operations (CLI commands, online steps, oracle checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Tracer:
    """In-memory spans ``[name, start, end, parent, run]``; parent is a span index."""

    def __init__(self):
        self.spans: list[list] = []
        self.run: object = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.add(name, clock(), None)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = clock()

    def add(self, name: str, start: float, end: float | None) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, start, end, parent, self.run]
        self.spans.append(record)
        return record

    def summary(self, run) -> tuple[dict[str, float], dict[str, float], dict[str, list[float]]]:
        """One run's total time, total self time and durations, by span name.

        A span's self time is its duration minus the durations of its children.
        """
        durations: dict[str, list[float]] = {}
        children = [0.0] * len(self.spans)
        for name, start, end, parent, r in self.spans:
            if r == run:
                durations.setdefault(name, []).append(end - start)
                if parent is not None:
                    children[parent] += end - start
        self_time: dict[str, float] = {}
        for i, (name, start, end, _, r) in enumerate(self.spans):
            if r == run:
                self_time[name] = self_time.get(name, 0.0) + end - start - children[i]
        total = {name: sum(values) for name, values in durations.items()}
        return total, self_time, durations


# ---------------------------------------------------------------- machine speed

_REF_DATA = np.random.default_rng(20191104).standard_normal(300).tolist()


def _splice(window: np.ndarray, old: float, new: float) -> np.ndarray:
    window = np.delete(window, np.searchsorted(window, old))
    return np.insert(window, np.searchsorted(window, new), new)


def _window_walk(beta: int, data: list[float]) -> float:
    """Two sorted sliding windows, a closed-form sum per step, a merge walk every fourth."""
    before = np.sort(np.asarray(data[:beta]))
    after = np.sort(np.asarray(data[beta + 1 : 2 * beta + 1]))
    grid_a = np.arange(beta) / beta
    grid_b = grid_a + 1.0 / beta
    total = 0.0
    for s in range(2 * beta + 1, len(data)):
        before = _splice(before, data[s - 2 * beta - 1], data[s - beta - 1])
        after = _splice(after, data[s - beta], data[s])
        k = np.searchsorted(before, after, side="right") / beta
        total += float(((k - grid_a) ** 3 - (k - grid_b) ** 3).sum())
        if s % 4 == 0:
            xs, ys = before.tolist(), after.tolist()
            i = j = 0
            while i < beta and j < beta:
                diff = xs[i] - ys[j]
                total += diff * diff
                if xs[i] <= ys[j]:
                    i += 1
                else:
                    j += 1
    return total


def _validated_dists(count: int) -> float:
    """Small validated point-mass distributions built, cached and reduced."""
    data = np.asarray(_REF_DATA[:60])
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    total = 0.0
    for i in range(count):
        support = np.array(np.sort(data[i % 20 : i % 20 + 40]), dtype=float)
        weights = np.full(support.size, 1.0 / support.size)
        if not np.all(np.isfinite(support)) or np.any(np.diff(support) < 0.0):
            raise AssertionError("reference data must be finite and sorted")
        cache[i % 37] = (support, weights)
        total += float(np.dot(support, weights)) + len(cache)
    return total


def reference_kernel() -> float:
    """Fixed work in the style of wcpd's hot loops, with no call into wcpd.

    Sorted sliding windows kept by searchsorted/delete/insert at a small and
    a large window, a closed-form sum per step and a scalar merge walk over
    the windows, then small validated distributions built and cached: the
    mix of small numpy calls, interpreted loops and object churn that the
    statistic, the online detector and the transport distance spend their
    time in. Program changes cannot change its cost. A single part of the
    mix follows the machine's speed less closely than the three together.
    """
    return (_window_walk(25, _REF_DATA[:130]) + _window_walk(100, _REF_DATA)
            + _validated_dists(200))


class Speed:
    """Machine speed during a run, from the reference kernel.

    Other tenants of a shared machine slow every kind of code alike, by up to
    2x, in stretches of seconds to minutes, and medians over the rounds of a
    run cannot remove a stretch that lasts the whole run. So an untraced run
    calls ``reference_kernel`` before every timed operation, and scales the
    timings of each round (and of each set-up repetition) by its factor:
    ``REFERENCE_S`` over the median kernel time in and next to that round. A
    program change does not move the kernel, so it moves the scaled timings
    by its full effect; the report keeps the unscaled timings as well.
    """

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> None:
        start = clock()
        reference_kernel()
        self.samples.append(clock() - start)

    def factor(self, lo: int, hi: int) -> float:
        """Factor of kernel calls ``lo:hi`` and ``KERNEL_MARGIN`` on each side.

        Below 1 when the machine runs slower than the reference.
        """
        window = self.samples[max(0, lo - KERNEL_MARGIN) : hi + KERNEL_MARGIN]
        return REFERENCE_S / statistics.median(window)


# ---------------------------------------------------------------- inputs


def class_sequence(seed: int, count: int) -> list[int]:
    """Seeded class order whose transitions cycle through every ordered class pair.

    The order chains random Eulerian circuits of the complete directed graph on
    the classes, so each full circuit holds every (before, after) pair once
    and no class follows itself. Detection power differs a lot between pairs
    (a mean shift is easy, a scale change between heavy-tailed classes is
    hard); a fixed pair mix keeps the quality metrics from swinging with the
    luck of the draw.
    """
    rng = np.random.default_rng([seed, 1])
    n = len(CLASSES)
    seq = [int(rng.integers(n))]
    while len(seq) < count:
        unused = {a: [int(b) for b in rng.permutation([b for b in range(n) if b != a])]
                  for a in range(n)}
        stack, circuit = [seq[-1]], []
        while stack:  # Hierholzer
            if unused[stack[-1]]:
                stack.append(unused[stack[-1]].pop())
            else:
                circuit.append(stack.pop())
        seq.extend(circuit[-2::-1])
    return seq[:count]


@dataclasses.dataclass
class Inputs:
    data_csv: Path
    truth_cps: Path
    truth_labels: Path
    series: TimeSeries
    truth: list[int]
    labels: np.ndarray


def make_inputs(w: Workload, seed: int, work: Path, checks: Checks) -> Inputs:
    """Write a seeded series with ``wcpd simulate`` (outside every metric)."""
    work.mkdir(parents=True)
    spec = {
        "seed": seed,
        "dimension": w.dim,
        "segments": [
            {**CLASSES[c], "length": w.seg_len} for c in class_sequence(seed, w.segments)
        ],
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    data_csv = work / "data.csv"
    run_cli(checks, ["simulate", "--spec", spec_path, "--out", data_csv])
    series = cli.ingest_csv(data_csv, label_column="label", time_column="t")
    truth_cps = work / "data.csv.cps"
    truth_labels = work / "data.csv.labels"
    truth = parse(checks, read_indices, truth_cps, len(series))
    labels = np.asarray(truth_labels.read_text().split(), dtype=int)
    return Inputs(data_csv, truth_cps, truth_labels, series, truth, labels)


def series_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------- calls


def run_cli(checks: Checks, argv: list) -> None:
    """``wcpd <argv>`` in-process; a nonzero exit aborts the run."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if not checks.expect(code == 0, f"wcpd {argv[0]} exited {code}"):
        raise Abort(f"wcpd {argv[0]} exited {code}")


@dataclasses.dataclass
class Stream:
    streamed: list[int]
    flushed: list[int]
    starts: np.ndarray
    ends: np.ndarray
    finalize_span: tuple[float, float]

    @property
    def wall(self) -> float:
        """All ``step`` calls plus ``finalize``."""
        return self.finalize_span[1] - self.starts[0]


def stream(data: np.ndarray, config: DetectorConfig) -> Stream:
    """Closed loop: push ``data[t]`` only after the previous step returned."""
    detector = OnlineDetector(config)
    n = len(data)
    starts = np.empty(n)
    ends = np.empty(n)
    streamed = []
    for t in range(n):
        starts[t] = clock()
        cp = detector.step(data[t])
        ends[t] = clock()
        if cp is not None:
            streamed.append(cp)
    start = clock()
    flushed = detector.finalize()
    return Stream(streamed, flushed, starts, ends, (start, clock()))


def probe_import() -> float:
    """CPU seconds of ``import wcpd`` in a fresh interpreter (start-up excluded)."""
    code = (
        "import time; t = time.process_time(); import wcpd; "
        "print(time.process_time() - t); print(wcpd.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(ROOT / "src"):
        raise Abort(f"imported wcpd from {out[1]}, not from this checkout")
    return float(out[0])


# ---------------------------------------------------------------- outputs and oracles


def read_indices(path: Path, total: int) -> list[int]:
    """Change point file: strictly increasing integers inside (0, total)."""
    values = [int(line) for line in Path(path).read_text().split()]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{path}: indices not strictly increasing")
    if values and (values[0] <= 0 or values[-1] >= total):
        raise ValueError(f"{path}: index outside (0, {total})")
    return values


def read_trace(path: Path, total: int) -> np.ndarray:
    """trace.csv: header plus one ``t,raw,filtered`` row per sample; returns raw."""
    lines = Path(path).read_text().splitlines()
    if lines[:1] != ["t,sigma_raw,sigma_filtered"] or len(lines) != total + 1:
        raise ValueError(f"{path}: expected a header and {total} rows, found {len(lines)} lines")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 3 or int(r[0]) != t for t, r in enumerate(rows)):
        raise ValueError(f"{path}: malformed row")
    return np.asarray([float(r[1]) for r in rows])


def read_segments(path: Path, total: int, k: int) -> tuple[list[int], list[int]]:
    """segments.csv: contiguous ``i,start,end,label`` rows tiling [0, total)."""
    lines = Path(path).read_text().splitlines()
    if lines[:1] != ["segment_index,start,end,label"] or len(lines) < 2:
        raise ValueError(f"{path}: missing header or rows")
    rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
    tiled = all(
        r[0] == i and r[1] < r[2] and r[1] == (rows[i - 1][2] if i else 0)
        for i, r in enumerate(rows)
    )
    if not tiled or rows[-1][2] != total:
        raise ValueError(f"{path}: segments do not tile [0, {total})")
    if any(not 0 <= r[3] < k for r in rows):
        raise ValueError(f"{path}: label outside [0, {k})")
    return [r[1] for r in rows[1:]], [r[3] for r in rows]


def read_labels(path: Path, total: int, k: int) -> None:
    """labels.csv: header plus one ``t,label`` row per sample, labels in [0, k)."""
    lines = Path(path).read_text().splitlines()
    if lines[:1] != ["t,label"] or len(lines) != total + 1:
        raise ValueError(f"{path}: expected a header and {total} rows, found {len(lines)} lines")
    for t, line in enumerate(lines[1:]):
        index, label = (int(x) for x in line.split(","))
        if index != t or not 0 <= label < k:
            raise ValueError(f"{path}: bad row {t + 2}: {line!r}")


def read_report(path: Path) -> dict[str, float]:
    """Evaluate report; the three scores must be finite and inside [0, 1]."""
    pairs = dict(line.split("=", 1) for line in Path(path).read_text().splitlines())
    scores = {key: float(pairs[key]) for key in ("cp_f1", "cp_auc", "label_accuracy")}
    if not all(0.0 <= v <= 1.0 for v in scores.values()):
        raise ValueError(f"{path}: score missing or outside [0, 1]: {scores}")
    return scores


def parse(checks: Checks, reader, *args):
    """Parse an output file; a malformed file fails a check and aborts the run."""
    try:
        value = reader(*args)
    except (ValueError, KeyError, OSError) as exc:
        checks.expect(False, f"{reader.__name__}: {exc}")
        raise Abort(f"{reader.__name__}: {exc}") from exc
    checks.expect(True, reader.__name__)
    return value


def trace_mismatches(raw: np.ndarray, data: np.ndarray, beta: int, indices) -> list[int]:
    """Indices whose raw statistic differs from ``w2t_statistic`` on sorted windows.

    The statistic at t compares X[t-beta..t-1] with X[t+1..t+beta], averaged
    over dimensions.
    """
    bad = []
    for t in indices:
        expected = np.mean([
            w2t_statistic(
                build_empirical(np.sort(data[t - beta : t, d])),
                build_empirical(np.sort(data[t + 1 : t + beta + 1, d])),
            )
            for d in range(data.shape[1])
        ])
        if not abs(raw[t] - expected) <= TRACE_TOL:
            bad.append(int(t))
    return bad


def online_matches(st: Stream, offline: list[int]) -> bool:
    return list(st.streamed) + list(st.flushed) == list(offline)


def useful_ratio(peaks: list[int], truth: list[int], delta: int) -> float:
    """Share of peaks within delta of a true change."""
    truth_arr = np.asarray(truth)
    hits = sum(bool(np.any(np.abs(truth_arr - p) <= delta)) for p in peaks)
    return hits / len(peaks) if peaks else 0.0


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- rounds


@dataclasses.dataclass
class Round:
    """Parsed outputs and timings of one pass over the user path."""

    series: int
    timings: dict[str, float]
    stream: Stream
    change_points: list[int]
    raw: np.ndarray
    cluster_cps: list[int]
    segment_labels: list[int]
    predicted: list[int]
    scores: dict[str, float]
    digests: dict[str, str]


class Runner:
    """Owns one workload run: its inputs, work directory, checks and spans."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.tracer = Tracer()
        self.checks = Checks()
        self.filter_path = work / "filter.json"
        self.inputs = [
            make_inputs(w, series_seed(seed, i), work / f"series-{i}", self.checks)
            for i in range(SERIES_PER_RUN)
        ]
        self.config: DetectorConfig | None = None
        # an untraced run sets this; the kernel then runs before each timed call
        self.speed: Speed | None = None

    def settle(self, probes: int = 1) -> None:
        """Before a timed call: kernel probes (untraced runs) and a full collection."""
        if self.speed is not None:
            for _ in range(probes):
                self.speed.probe()
        gc.collect()

    # -- setup: the filter every detection uses

    def _calibrate(self, out: Path) -> None:
        w = self.w
        run_cli(self.checks, ["calibrate-filter", "--beta", w.beta, "--ensemble", w.ensemble,
                              "--seed", FILTER_SEED, "--out", out])

    def _load_config(self) -> None:
        self.config = DetectorConfig(
            beta=self.w.beta, lam=LAMBDA, filter=load_filter(self.filter_path)
        )

    def setup(self) -> dict[str, float]:
        """Repetitions of a fresh-process ``import wcpd`` and a ``calibrate-filter``."""
        reps, digests = [], set()
        for rep in range(SETUP_REPS):
            mark = len(self.speed.samples)
            self.settle(KERNEL_CALLS_PER_SETUP_PART)
            import_s = probe_import()
            out = self.work / f"filter-{rep}.json"
            self.settle(KERNEL_CALLS_PER_SETUP_PART)
            start = clock()
            self._calibrate(out)
            reps.append({"import_s": import_s, "calibrate_s": clock() - start, "mark": mark})
            digests.add(sha256(out))
        self.checks.expect(len(digests) == 1, "calibrate-filter output differs between runs")
        shutil.copyfile(out, self.filter_path)
        self._load_config()
        return {"reps": reps}

    def traced_setup(self) -> dict[str, float]:
        """One calibration, replayed through ``estimate_matched_filter``."""
        tr, w = self.tracer, self.w
        tr.run = "setup"
        with tr.span("cli.calibrate_filter"):
            self._calibrate(self.filter_path)
        with tr.span("cpd.estimate_matched_filter") as span:
            filt = estimate_matched_filter(w.beta, w.ensemble, seed=FILTER_SEED)
        self._load_config()
        self.checks.expect(np.array_equal(filt.taps, self.config.filter.taps),
                           "replayed estimate_matched_filter differs from filter.json")
        seconds = span[2] - span[1]
        samples = len(filt.change_pairs) * w.ensemble * (4 * w.beta + 1)
        return {"cpd.estimate_matched_filter_s": seconds,
                "cpd.calibration_samples_per_s": samples / seconds}

    # -- the user path

    def user_round(self, index: int, series: int, replayed: bool) -> Round:
        w, inp, tr = self.w, self.inputs[series], self.tracer
        out = self.work / f"round-{index}"
        det_dir, clu_dir = out / "det", out / "clu"
        ingest = ["--input", inp.data_csv, "--time-column", "t", "--label-column", "label"]
        total = len(inp.series)

        self.settle()
        with tr.span("cli.detect") as s_detect:
            run_cli(self.checks, ["detect", *ingest, "--beta", w.beta,
                                  "--filter", self.filter_path, "--out-dir", det_dir])
        self.settle()
        with tr.span("online.stream"):
            st = stream(inp.series.data[: w.stream_len], self.config)
            if replayed:
                for a, b in zip(st.starts.tolist(), st.ends.tolist()):
                    tr.add("cpd.online_step", a, b)
                tr.add("cpd.online_finalize", *st.finalize_span)
        self.checks.attempted += len(st.starts) + 1  # every step and the finalize returned

        online_cps = out / "online_change_points.txt"
        online_cps.write_text("".join(f"{cp}\n" for cp in st.streamed + st.flushed))
        cluster_cps = {
            "detected": det_dir / "change_points.txt",
            "truth": inp.truth_cps,
            "online": online_cps,
        }[w.cluster_on]
        cluster_s = []
        for _ in range(w.cluster_reps if self.speed else 1):
            self.settle()
            with tr.span("cli.cluster") as s_cluster:
                run_cli(self.checks, ["cluster", *ingest, "--beta", w.beta, "--k", K,
                                      "--seed", self.seed, "--change-points", cluster_cps,
                                      "--out-dir", clu_dir])
            cluster_s.append(s_cluster[2] - s_cluster[1])
        # planted change points score perfectly, so cluster-many scores detection
        predicted = det_dir / "change_points.txt" if w.cluster_on == "truth" else cluster_cps
        report = out / "report.txt"
        self.settle()
        with tr.span("cli.evaluate") as s_evaluate:
            run_cli(self.checks, ["evaluate", "--predicted", predicted, "--truth", inp.truth_cps,
                                  "--delta", DELTA, "--trace", det_dir / "trace.csv",
                                  "--predicted-labels", clu_dir / "labels.csv",
                                  "--truth-labels", inp.truth_labels, "--k", K,
                                  "--beta", w.beta, "--lambda", LAMBDA, "--out", report])

        timings = {
            "detect": s_detect[2] - s_detect[1],
            "stream": st.wall,
            "cluster": statistics.median(cluster_s),
            "evaluate": s_evaluate[2] - s_evaluate[1],
        }
        source = {"detected": timings["detect"], "truth": 0.0, "online": timings["stream"]}
        timings["roundtrip"] = source[w.cluster_on] + timings["cluster"] + timings["evaluate"]

        cps = parse(self.checks, read_indices, det_dir / "change_points.txt", total)
        raw = parse(self.checks, read_trace, det_dir / "trace.csv", total)
        seg_cps, seg_labels = parse(self.checks, read_segments, clu_dir / "segments.csv",
                                    total, K)
        parse(self.checks, read_labels, clu_dir / "labels.csv", total, K)
        scores = parse(self.checks, read_report, report)
        self.checks.expect(seg_cps == read_indices(cluster_cps, total),
                           "segments.csv boundaries differ from the change points clustered")
        outputs = {
            "change_points.txt": det_dir / "change_points.txt",
            "trace.csv": det_dir / "trace.csv",
            "segments.csv": clu_dir / "segments.csv",
            "labels.csv": clu_dir / "labels.csv",
            "report.txt": report,
            "filter.json": self.filter_path,
        }
        return Round(
            series=series,
            timings=timings,
            stream=st,
            change_points=cps,
            raw=raw,
            cluster_cps=seg_cps,
            segment_labels=seg_labels,
            predicted=read_indices(predicted, total),
            scores=scores,
            digests={name: sha256(path) for name, path in outputs.items()},
        )

    def oracles(self, rnd: Round) -> None:
        """Checks against references independent of the CLI, once per series."""
        w = self.w
        data = self.inputs[rnd.series].series.data
        rng = np.random.default_rng([self.seed, rnd.series, 2])
        valid = np.arange(w.beta, len(data) - w.beta)
        indices = np.sort(rng.choice(valid, size=min(TRACE_ORACLE_INDICES, valid.size),
                                     replace=False))
        bad = set(trace_mismatches(rnd.raw, data, w.beta, indices))
        for t in indices:
            self.checks.expect(t not in bad, f"trace.csv sigma_raw[{t}] differs from w2t_statistic")
        streamed = data[: w.stream_len]
        if len(streamed) == len(data):
            offline = rnd.change_points
        else:
            offline = detect(TimeSeries(streamed), self.config).change_points
        self.checks.expect(online_matches(rnd.stream, offline),
                           "online streamed + flushed indices differ from offline detect")

    # -- the traced replay

    def replay(self, rnd: Round) -> dict[str, float]:
        """Replay the round's inputs through each layer's public functions."""
        w, inp, tr, chk = self.w, self.inputs[rnd.series], self.tracer, self.checks
        total = len(inp.series)
        with tr.span("replay.detect"):
            with tr.span("cli.ingest_csv"):
                series = cli.ingest_csv(inp.data_csv, label_column="label", time_column="t")
            with tr.span("cpd.load_filter"):
                filt = load_filter(self.filter_path)
            with tr.span("cpd.sliding_statistic"):
                raw = sliding_statistic(series, w.beta)
            with tr.span("cpd.apply_filter"):
                filtered = apply_filter(raw, filt)
            with tr.span("cpd.detect_peaks"):
                peaks = detect_peaks(filtered, LAMBDA)
        chk.expect(peaks == rnd.change_points, "replayed peaks differ from change_points.txt")

        with tr.span("replay.cluster"):
            with tr.span("cli.ingest_csv"):
                series = cli.ingest_csv(inp.data_csv, label_column="label", time_column="t")
            bounds = [0, *rnd.cluster_cps, total]
            with tr.span("tssc.segment_distribution"):
                segments = [segment_distribution(series, a, b, w.beta)
                            for a, b in zip(bounds[:-1], bounds[1:])]
            with tr.span("tssc.affinity_matrix"):
                affinity = affinity_matrix(segments)
            with tr.span("tssc.spectral_cluster"):
                labels = spectral_cluster(affinity, K, self.seed)
        chk.expect(labels.tolist() == rnd.segment_labels,
                   "replayed spectral_cluster labels differ from segments.csv")

        labeling = SegmentLabeling(rnd.cluster_cps, labels, K)
        with tr.span("replay.evaluate"):
            with tr.span("metrics.cp_f1"):
                f1 = cp_f1(rnd.predicted, inp.truth, DELTA)[2]
            with tr.span("metrics.cp_auc"):
                auc = cp_auc(filtered, inp.truth, DELTA)
            with tr.span("metrics.label_accuracy"):
                accuracy = label_accuracy(labeling, inp.labels, K)
        replayed = {"cp_f1": f1, "cp_auc": auc, "label_accuracy": accuracy}
        chk.expect(replayed == rnd.scores, f"replayed scores {replayed} differ from the report")

        # layer kernels on the same inputs, outside the calls they serve
        with tr.span("replay.layers"):
            with tr.span("empirical.wasserstein2"):
                for i, a in enumerate(segments):
                    for b in segments[i + 1 :]:
                        for d in range(series.dim):
                            wasserstein2(a.dists[d], b.dists[d])
            # spectral_cluster's documented steps: normalized Laplacian, the K
            # smallest eigenvectors, row-normalized embedding, seeded k-means
            values = affinity.values
            scale = 1.0 / np.sqrt(values.sum(axis=1))
            laplacian = np.eye(len(values)) - scale[:, None] * values * scale[None, :]
            with tr.span("numeric.eigh_symmetric"):
                _, vectors = eigh_symmetric((laplacian + laplacian.T) / 2.0)
            embedding = vectors[:, : K].copy()
            norms = np.linalg.norm(embedding, axis=1)
            embedding[norms > 0] /= norms[norms > 0, None]
            with tr.span("numeric.kmeans"):
                kmeans(embedding, K, seed=self.seed)
            # label_accuracy's documented assignment on the confusion counts
            counts = np.zeros((K, K))
            truth_ids = np.searchsorted(np.unique(inp.labels), inp.labels)
            np.add.at(counts, (labeling.per_sample(total), truth_ids), 1.0)
            with tr.span("numeric.hungarian"):
                hungarian(counts.max() - counts)
            pairs = self.w2t_pairs(inp)
            with tr.span("empirical.w2t_statistic"):
                for p, q in pairs:
                    w2t_statistic(p, q)

        valid = filtered.values[filtered.valid_mask]
        return {
            "cpd.valid_indices": valid.size,
            "cpd.indices_above_lambda": int(np.sum(valid > LAMBDA)),
            "cpd.peaks": len(peaks),
            "cpd.online_confirmations": len(rnd.stream.streamed),
            "cpd.online_flushed": len(rnd.stream.flushed),
            "cpd.useful_peak_ratio": useful_ratio(peaks, inp.truth, DELTA),
            "empirical.wasserstein2_calls": len(segments) * (len(segments) - 1) // 2 * series.dim,
            "tssc.segments": len(segments),
        }

    def w2t_pairs(self, inp: Inputs) -> list:
        """Seeded (before, after) window pairs from the series, at random dimensions."""
        data, beta = inp.series.data, self.w.beta
        rng = np.random.default_rng([self.seed, 3])
        ts = rng.integers(beta, len(data) - beta, size=W2T_PAIRS).tolist()
        dims = rng.integers(0, data.shape[1], size=W2T_PAIRS).tolist()
        return [(build_empirical(data[t - beta : t, d]),
                 build_empirical(data[t + 1 : t + beta + 1, d])) for t, d in zip(ts, dims)]

    def layer_metrics(self, run, counts: dict[str, float]) -> dict[str, float]:
        """Per-layer numbers of one replayed round, from its spans."""
        total, self_time, durations = self.tracer.summary(run)
        samples = len(self.inputs[0].series)

        def cli_self(command):
            # the main(...) span minus the library calls its replay made
            return total[f"cli.{command}"] - (total[f"replay.{command}"]
                                              - self_time[f"replay.{command}"])

        return {
            **counts,
            "cli.ingest_csv_s": statistics.median(durations["cli.ingest_csv"]),
            "cli.detect_self_s": cli_self("detect"),
            "cli.cluster_self_s": cli_self("cluster"),
            "cli.evaluate_self_s": cli_self("evaluate"),
            "cpd.sliding_statistic_samples_per_s": samples / total["cpd.sliding_statistic"],
            "cpd.apply_filter_s": total["cpd.apply_filter"],
            "cpd.detect_peaks_s": total["cpd.detect_peaks"],
            "cpd.online_step_s": total["cpd.online_step"],
            "cpd.online_step_p99_us": float(np.percentile(durations["cpd.online_step"], 99)) * 1e6,
            "cpd.online_finalize_s": total["cpd.online_finalize"],
            "empirical.w2t_statistic_calls_per_s": W2T_PAIRS / total["empirical.w2t_statistic"],
            "empirical.wasserstein2_pairs_per_s": (
                counts["empirical.wasserstein2_calls"] / total["empirical.wasserstein2"]),
            "tssc.segment_distribution_s": total["tssc.segment_distribution"],
            "tssc.affinity_matrix_s": total["tssc.affinity_matrix"],
            "tssc.affinity_self_s": total["tssc.affinity_matrix"] - total["empirical.wasserstein2"],
            "tssc.spectral_cluster_s": total["tssc.spectral_cluster"],
            "numeric.eigh_symmetric_s": total["numeric.eigh_symmetric"],
            "numeric.kmeans_s": total["numeric.kmeans"],
            "numeric.hungarian_s": total["numeric.hungarian"],
            "metrics.cp_f1_s": total["metrics.cp_f1"],
            "metrics.cp_auc_s": total["metrics.cp_auc"],
            "metrics.label_accuracy_s": total["metrics.label_accuracy"],
            # share of the round inside some span below the root (the rest is
            # the harness's own checks and file handling)
            "trace.span_coverage": 1.0 - self_time["round"] / total["round"],
        }

    def user_path_s(self, run) -> float:
        """Span time of the user-path calls in one round."""
        total = self.tracer.summary(run)[0]
        return sum(total[name] for name in USER_PATH)


# ---------------------------------------------------------------- a run


def environment() -> dict:
    git = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git = "unknown (git failed)"
    return {
        "git_rev": git,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var)
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "load_1m_start": os.getloadavg()[0],
    }


def run(w: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Run one workload and return the full report; the result line is a subset.

    Rounds cycle through the series until every series has had
    ``ROUNDS_PER_SERIES`` rounds and another round would overrun ``seconds``.
    In a traced run the first round of each series is untraced, the reference
    for the replay and for the tracing overhead; every later round replays.
    """
    env = environment()
    runner = Runner(w, seed, work)
    tracer, checks = runner.tracer, runner.checks
    if not traced:
        runner.speed = Speed()
    setup = runner.traced_setup() if traced else runner.setup()

    rounds: list[Round] = []
    rows: list[dict] = []
    min_rounds = ROUNDS_PER_SERIES * SERIES_PER_RUN
    start = wall_clock()
    while True:
        index = tracer.run = len(rounds)
        replayed = traced and index >= SERIES_PER_RUN
        series = index % SERIES_PER_RUN
        mark = len(runner.speed.samples) if runner.speed else 0
        with tracer.span("round"):
            rnd = runner.user_round(index, series, replayed)
            counts = runner.replay(rnd) if replayed else None
        same_series = [i for i, r in enumerate(rounds) if r.series == series]
        if same_series:
            checks.expect(rnd.digests == rounds[same_series[0]].digests,
                          f"round {index} outputs differ from round {same_series[0]}")
        else:
            runner.oracles(rnd)
        rounds.append(rnd)
        row = {f"{k}_s": v for k, v in rnd.timings.items()}
        row |= {"series": series, "segments": len(rnd.cluster_cps) + 1,
                "step_p50_us": np.median(rnd.stream.ends - rnd.stream.starts) * 1e6,
                "user_path_s": runner.user_path_s(index)}
        if replayed:
            row |= runner.layer_metrics(index, counts)
        if runner.speed:
            row["kernel_mark"] = mark
        rows.append(row)
        # stop once one more round of average length would overrun the budget
        elapsed = wall_clock() - start
        if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > seconds:
            break

    speed = None
    if traced:
        replayed_rows = rows[SERIES_PER_RUN:]
        metrics = {name: statistics.median(r[name] for r in replayed_rows)
                   for name in replayed_rows[0] if "." in name}
        metrics.update(setup)
        # per series, the fastest traced round against the untraced one
        metrics["trace.overhead_ratio"] = sum(
            min(r["user_path_s"] for r in replayed_rows if r["series"] == i)
            for i in range(SERIES_PER_RUN)
        ) / sum(r["user_path_s"] for r in rows[:SERIES_PER_RUN])
    else:
        metrics, speed = end_to_end(runner, rounds, rows, setup)
    env["load_1m_end"] = os.getloadavg()[0]
    return {
        "workload": dataclasses.asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": env,
        "series_seeds": [series_seed(seed, i) for i in range(SERIES_PER_RUN)],
        "rounds": rows,
        "online_step_samples": sum(len(r.stream.starts) for r in rounds),
        "setup": setup,
        "speed": speed,
        "sha256": {f"series-{r.series}/{name}": digest for r in rounds
                   for name, digest in r.digests.items()},
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "metrics": metrics,
        "spans": tracer.spans if traced else None,
    }


def end_to_end(runner: Runner, rounds: list[Round], rows: list[dict],
               setup: dict) -> tuple[dict[str, float], dict]:
    """Medians over the run's rounds, each round scaled by its speed factor.

    Every series has the same length and stream length, so detection and
    streaming do the same work in every round: their medians run over all
    rounds, and so does the median of the per-round median step latency.
    Clustering cost grows with the segment count, so for the round trip each
    series gets the median cluster and evaluate times of the rounds with its
    segment count (every round on ``cluster-many``, where all series have
    the same); the round trip is detection from the workload's source plus
    the mean of those per-series times. The cluster rate is the median over
    all rounds of each round's segments over its scaled cluster time: the
    cost per segment barely changes with the segment count at these sizes,
    so every round counts as a sample. Set-up is the median of its scaled
    repetitions. Returns the metrics, and the speed factors with the same
    timings unscaled.
    """
    first = [next(r for r in rounds if r.series == i) for i in range(SERIES_PER_RUN)]
    segments = [len(r.cluster_cps) + 1 for r in first]
    speed = runner.speed
    reps = setup["reps"]
    for rep in reps:
        rep["factor"] = speed.factor(rep["mark"], rep["mark"] + 2 * KERNEL_CALLS_PER_SETUP_PART)
    ends = [r["kernel_mark"] for r in rows[1:]] + [len(speed.samples)]
    for row, end in zip(rows, ends):
        row["factor"] = speed.factor(row["kernel_mark"], end)

    def stages(scale: bool) -> dict[str, float]:
        def factor(row):
            return row["factor"] if scale else 1.0

        def median(key, where=lambda r: True):
            return statistics.median(r[key] * factor(r) for r in rows if where(r))

        times = {
            "setup_s": statistics.median((r["import_s"] + r["calibrate_s"]) * factor(r)
                                         for r in reps),
            "detect_s": median("detect_s"),
            "stream_s": median("stream_s"),
            "cluster_s": sum(median("cluster_s", lambda r: r["segments"] == n)
                             for n in segments),
            "evaluate_s": sum(median("evaluate_s", lambda r: r["segments"] == n)
                              for n in segments),
            "step_p50_s": median("step_p50_us") / 1e6,
        }
        source = {"detected": times["detect_s"], "truth": 0.0, "online": times["stream_s"]}
        times["roundtrip_s"] = source[runner.w.cluster_on] + (
            times["cluster_s"] + times["evaluate_s"]) / SERIES_PER_RUN
        return times

    t = stages(scale=True)
    metrics = {
        "setup_s": t["setup_s"],
        "detect_samples_per_s": len(runner.inputs[0].series) / t["detect_s"],
        "cluster_segments_per_s": statistics.median(
            r["segments"] / (r["cluster_s"] * r["factor"]) for r in rows),
        "roundtrip_s": t["roundtrip_s"],
        "online_samples_per_s": len(rounds[0].stream.starts) / t["stream_s"],
        "online_step_p50_us": t["step_p50_s"] * 1e6,
        **{key: statistics.mean(r.scores[key] for r in first)
           for key in ("cp_f1", "cp_auc", "label_accuracy")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(runner.checks.failures) / runner.checks.attempted,
    }
    report = {
        "reference_s": REFERENCE_S,
        "kernel_calls": len(speed.samples),
        "kernel_median_s": statistics.median(speed.samples),
        "kernel_samples_s": speed.samples,
        "scaled": t,
        "unscaled": stages(scale=False),
    }
    return metrics, report
