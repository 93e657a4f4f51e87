"""Sliding-window change statistic, matched filtering, and peak detection.

The change statistic at time t is the two-sample transport statistic between
the beta samples before t and the beta samples after t (t itself excluded),
averaged over dimensions: one exact integer divided once, so the offline and
online paths give the same correctly rounded value. A tap-order correlation
with a simulation-calibrated unit-area filter suppresses spurious maxima;
change points are the filtered trace's strict local maxima above a threshold.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .empirical import (
    _CHUNK_ELEMENTS,
    NULL,
    _rank_keys,
    _row_views,
    _w2t_keys,
    _w2t_row,
    _w2t_parts,
    _workspace,
)
from .errors import NumericalError
from .series import TimeSeries, _integer, _reals
from .simgen import DistSpec, _draw

__all__ = [
    "StatTrace",
    "MatchedFilter",
    "DetectorConfig",
    "DetectionResult",
    "DEFAULT_CHANGE_PAIRS",
    "sliding_statistic",
    "estimate_matched_filter",
    "apply_filter",
    "detect_peaks",
    "detect",
    "OnlineDetector",
    "save_filter",
    "load_filter",
]

# Calibration pairs: a mean shift, a variance bump (second parameter of the
# normal family read as a variance, so sd = sqrt(1.2)), and a same-variance
# heavy-tailed alternative.
DEFAULT_CHANGE_PAIRS = (
    (DistSpec("normal", 0.0, 1.0), DistSpec("normal", 0.2, 1.0)),
    (DistSpec("normal", 0.0, 1.0), DistSpec("normal", 0.0, float(np.sqrt(1.2)))),
    (DistSpec("normal", 0.0, 1.0), DistSpec("laplace", 0.0, float(1.0 / np.sqrt(2.0)))),
)

FILTER_FORMAT = "wcpd.matched-filter"
FILTER_VERSION = 1

_UNIT_AREA_TOL = 1e-9


@dataclass(frozen=True)
class StatTrace:
    """Per-index change statistic; warm-up entries are flagged with NaN.

    Indices t < beta and t >= T - beta lack a full window and stay NaN. The
    ``filtered`` flag records whether the matched filter has been applied.
    """

    values: np.ndarray
    beta: int
    filtered: bool = False

    def __post_init__(self):
        values = _reals(self.values, "trace values")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("trace values must be a nonempty flat array")
        beta = _integer(self.beta, "beta", 1)
        head = values[:beta]
        tail = values[values.size - beta :]
        if not (np.isnan(head).all() and np.isnan(tail).all()):
            raise ValueError("warm-up regions must be flagged invalid")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "beta", beta)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def valid_mask(self) -> np.ndarray:
        return ~np.isnan(self.values)


@dataclass(frozen=True)
class MatchedFilter:
    """Unit-area taps over offsets -beta..beta plus estimation provenance."""

    taps: np.ndarray
    beta: int
    gamma: float
    ensemble_size: int
    source: str = "estimated"
    change_pairs: tuple = ()
    seed: int | None = None

    def __post_init__(self):
        taps = _reals(self.taps, "taps")
        beta = _integer(self.beta, "beta", 1)
        if taps.ndim != 1 or taps.size != 2 * beta + 1:
            raise ValueError("taps must cover offsets -beta..beta")
        if not np.all(np.isfinite(taps)):
            raise ValueError("non-finite tap")
        if abs(float(taps.sum()) - 1.0) > _UNIT_AREA_TOL:
            raise ValueError("filter taps must have unit area")
        if self.source not in ("estimated", "loaded"):
            raise ValueError("source must be 'estimated' or 'loaded'")
        gamma = self.gamma
        real = isinstance(gamma, numbers.Real) and not isinstance(gamma, bool)
        if not (real and math.isfinite(gamma) and gamma > 0.0):
            raise ValueError(f"gamma must be a finite positive number, not {gamma!r}")
        ensemble_size = _integer(self.ensemble_size, "ensemble size", 1)
        seed = None if self.seed is None else _integer(self.seed, "seed", 0)
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "ensemble_size", ensemble_size)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs of the detection pipeline."""

    beta: int
    lam: float = NULL.reject_threshold_05
    filter: MatchedFilter | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", _integer(self.beta, "beta", 2))
        lam = self.lam
        real = isinstance(lam, numbers.Real) and not isinstance(lam, bool)
        if not (real and math.isfinite(lam)):
            raise ValueError(f"lam must be a finite real number, not {lam!r}")
        if self.filter is not None and self.filter.beta != self.beta:
            raise ValueError(
                "filter window size does not match beta: "
                f"filter beta {self.filter.beta}, beta {self.beta}"
            )


@dataclass(frozen=True)
class DetectionResult:
    change_points: list[int]
    raw: StatTrace
    filtered: StatTrace | None


def _window_sums(keys: np.ndarray, beta: int) -> np.ndarray:
    """The int64 S of every full window position in each row of rank keys.

    keys is (rows, span), each row keyed by :func:`_rank_keys` on its own;
    column i of the (rows, span - 2*beta) result is the position beta + i,
    whose before window is keys[i..i+beta-1] and after window
    keys[i+beta+1..i+2*beta] (made odd). One int64 prefix sum per row gives
    every window's gap for the equal-window test of :func:`_w2t_keys`.
    Chunks of whole rows, or of one row's positions when a row alone is too
    long, each hold at most _CHUNK_ELEMENTS // beta windows, so temporaries
    stay flat in input size.
    """
    rows, span = keys.shape
    valid = span - 2 * beta
    before = sliding_window_view(keys, beta, axis=1)
    after = sliding_window_view(keys | 1, beta, axis=1)
    step = max(1, _CHUNK_ELEMENTS // beta)
    height, width = max(1, step // valid), min(step, valid)
    work = _workspace(*_w2t_parts(min(height, rows) * width, beta, keys.dtype))
    # each window's gap (odd after keys add beta), overwritten chunk by chunk with its S
    prefix = keys.cumsum(axis=1, dtype=np.int64)
    sums = prefix[:, 2 * beta :] - prefix[:, beta:-beta] - prefix[:, beta - 1 : -beta - 1] + beta
    sums[:, 1:] += prefix[:, : valid - 1]
    for r in range(0, rows, height):
        for lo in range(0, valid, width):
            hi = min(lo + width, valid)
            chunk = sums[r : r + height, lo:hi]
            xk = before[r : r + height, lo:hi]
            yk = after[r : r + height, lo + beta + 1 : hi + beta + 1]
            chunk[...] = _w2t_keys(xk, yk, chunk, work).reshape(chunk.shape)
    return sums


def sliding_statistic(series: TimeSeries, beta: int) -> StatTrace:
    """Per-index change statistic over windows of beta samples on each side.

    The before window holds X[t-beta..t-1] and the after window X[t+1..t+beta];
    the sample at t belongs to neither. The statistic depends only on the
    ranks of the pooled samples, so each dimension is ranked once and the
    windows are read as integer keys (2*rank before, 2*rank + 1 after) that
    :func:`_w2t_keys` merges with a plain sort; no window is sorted. The
    per-dimension integers S are added and the mean S/(6*beta^2*d) is
    divided once; the summed S stays below 3*beta^3*d, so it converts to
    float exactly while that is below 2**53.
    """
    beta = _integer(beta, "beta", 1)
    T = len(series)
    if T < 2 * beta + 1:
        raise ValueError(
            f"series too short for window: {T} samples, but beta={beta} "
            f"needs at least {2 * beta + 1}"
        )
    total = _window_sums(_rank_keys(series.data.T)[1], beta).sum(axis=0)
    values = np.full(T, np.nan)
    values[beta : T - beta] = total / (6 * beta * beta * series.dim)
    return StatTrace(values, beta, filtered=False)


def _derive_seed(seed: int, pair_index: int, member: int) -> int:
    return int(
        np.random.SeedSequence([seed, pair_index, member]).generate_state(1, np.uint64)[0]
    )


def _taps_from_signature(mean_signature: np.ndarray) -> tuple[np.ndarray, float]:
    """Debias, clamp, trim, and unit-normalize an averaged signature."""
    taps = np.maximum(mean_signature - NULL.null_mean, 0.0)
    taps[0] = 0.0
    taps[-1] = 0.0
    gamma = float(taps.sum())
    if gamma <= 0.0:
        raise NumericalError("filter estimation failed: no signal above null mean")
    return taps / gamma, gamma


def estimate_matched_filter(
    beta: int,
    ensemble_size: int,
    change_pairs=DEFAULT_CHANGE_PAIRS,
    seed: int = 0,
) -> MatchedFilter:
    """Estimate the change-point signature from simulated ensembles.

    Each ensemble member is a single-change sequence of length 4*beta + 1 with
    the switch at the center; its statistic trace, sampled at offsets
    -beta..beta around the change, is averaged over members and pairs. The
    mean profile is debiased by the null mean, clamped at zero, zeroed at the
    extreme offsets (the windows there straddle no mixed samples, and a zero
    leading tap keeps the online confirmation delay at 2*beta), and scaled by
    gamma so the taps sum to one.

    The members of a pair are drawn, ranked and scanned in groups of at most
    _CHUNK_ELEMENTS samples, so memory does not grow with ensemble_size.
    Each member keeps the streams and the statistic of its own
    :func:`wcpd.simgen.generate` series, and the rows are summed in member
    order, so the taps have the bits of a one-member-at-a-time calibration.
    """
    beta = _integer(beta, "beta", 2)
    ensemble_size = _integer(ensemble_size, "ensemble_size", 1)
    change_pairs = tuple(change_pairs)
    if not change_pairs:
        raise ValueError("at least one change pair is required")
    for index, pair in enumerate(change_pairs):
        if not (isinstance(pair, tuple | list) and len(pair) == 2
                and all(isinstance(spec, DistSpec) for spec in pair)):
            raise ValueError(f"change pair {index} must be two DistSpec instances, not {pair!r}")
    seed = _integer(seed, "seed", 0)

    group = max(1, _CHUNK_ELEMENTS // (4 * beta + 1))
    accum = np.zeros(2 * beta + 1)
    for pair_index, (before_spec, after_spec) in enumerate(change_pairs):
        segments = ((before_spec, 2 * beta), (after_spec, 2 * beta + 1))
        for lo in range(0, ensemble_size, group):
            seeds = [
                _derive_seed(seed, pair_index, member)
                for member in range(lo, min(lo + group, ensemble_size))
            ]
            parts = []
            for segment, (spec, length) in enumerate(segments):
                # generate's stream of (member seed, segment, dimension 0)
                try:
                    parts.append(_draw(spec, length, [[s, segment, 0] for s in seeds]))
                except ValueError as exc:
                    raise ValueError(
                        f"change pair {pair_index}, segment {segment}: {exc}"
                    ) from None
            members = np.concatenate(parts, axis=1)
            # the change sits at index 2*beta, so offsets -beta..beta are a
            # member's whole valid trace
            for sums in _window_sums(_rank_keys(members)[1], beta):
                accum += sums / (6 * beta * beta)
    mean_signature = accum / (len(change_pairs) * ensemble_size)
    taps, gamma = _taps_from_signature(mean_signature)
    return MatchedFilter(
        taps=taps,
        beta=beta,
        gamma=gamma,
        ensemble_size=ensemble_size,
        source="estimated",
        change_pairs=change_pairs,
        seed=seed,
    )


def apply_filter(trace: StatTrace, filt: MatchedFilter) -> StatTrace:
    """Same-length correlation of the trace with the filter, summed in tap order.

    out[t] = sum_k taps[k] * sigma[t - k] over offsets k in -beta..beta, one
    multiply-add of the whole trace per tap, so every CPU and the online twin
    round each sum alike. Warm-up entries feeding a window are padded with the
    null mean 0.166, so edges do not fabricate peaks.
    """
    if trace.filtered:
        raise ValueError("trace is already filtered")
    if filt.beta != trace.beta:
        raise ValueError("filter window size does not match the trace")
    T = len(trace)
    beta = trace.beta
    padded = np.where(np.isnan(trace.values), NULL.null_mean, trace.values)
    out = np.full(T, np.nan)
    acc = out[beta : T - beta]
    acc[...] = 0.0
    for k, tap in enumerate(filt.taps[::-1].tolist()):
        acc += tap * padded[k : k + acc.size]
    return StatTrace(out, beta, filtered=True)


def detect_peaks(trace: StatTrace, lam: float) -> list[int]:
    """Strict local maxima above lam with both neighbors valid."""
    vals = trace.values
    mid = vals[1:-1]
    # NaN compares false, so a peak never touches an invalid entry
    hits = (mid > vals[:-2]) & (mid > vals[2:]) & (mid > lam)
    return (np.flatnonzero(hits) + 1).tolist()


def detect(series: TimeSeries, config: DetectorConfig) -> DetectionResult:
    """Full offline pass: statistic, optional filtering, peak extraction."""
    raw = sliding_statistic(series, config.beta)
    filtered = None if config.filter is None else apply_filter(raw, config.filter)
    peaks = detect_peaks(raw if filtered is None else filtered, config.lam)
    return DetectionResult(change_points=peaks, raw=raw, filtered=filtered)


class OnlineDetector:
    """Streaming twin of :func:`detect`; push samples, collect confirmations.

    A change at index t needs the forward statistic window (beta samples) and
    the filter's forward support (beta more) before its peak can be judged, so
    with an estimated filter (zero leading tap) the confirmation arrives
    exactly when sample t + 2*beta does. A loaded filter with a nonzero
    leading tap needs one more sample. :meth:`finalize` flushes the decisions
    the offline pass makes near the end of the stream with padding, so
    streamed plus flushed indices always equal the offline result. The state
    is O(beta) however long the stream runs.
    """

    def __init__(self, config: DetectorConfig):
        self._config = config
        beta = config.beta
        if config.filter is not None:
            taps = config.filter.taps
        else:
            taps = np.zeros(2 * beta + 1)
            taps[beta] = 1.0  # identity: peaks come straight from the raw trace
        self._rev = taps[::-1].copy()
        self._products = np.empty(2 * beta + 1)  # _filter_next's scratch
        # filtered[t] is final once every nonzero tap sees a real statistic;
        # a zero leading tap lets it in one sample before sigma[t + beta],
        # whose ring slot then still holds an older finite statistic
        self._slack = 1 if taps[0] == 0.0 else 0
        self._beta = beta
        self._span = 2 * beta + 1
        # (2, beta) columns of a span's before and after windows, centre skipped
        self._pick = np.delete(np.arange(self._span), beta).reshape(2, beta)
        self._n = 0
        self._confirmed = 0  # change points returned by step and finalize
        # Rings written twice, at slot and slot + span, so the last span
        # entries are always one contiguous view. _raw holds samples (one row
        # per dimension), _sigma the statistics sigma[i] at slot i % span; its
        # never-written slots keep the null mean, which is also how the
        # offline pass pads indices outside the valid range. _raw and the
        # window buffer are sized at the first sample, which fixes d.
        self._raw: np.ndarray | None = None
        self._windows: np.ndarray | None = None
        self._sigma = np.full(2 * self._span, NULL.null_mean)
        # the span of sigma that _filter_next reads at each ring offset
        self._sigma_spans = [self._sigma[lo : lo + self._span] for lo in range(self._span)]
        self._sigma_hi = beta - 1  # highest index written to _sigma
        self._next_t = beta  # next index whose filtered value is due
        self._last_two = (np.nan, np.nan)  # filtered[next_t - 2], filtered[next_t - 1]
        self._finalized = False

    def _push_sigma(self, value: float) -> None:
        self._sigma_hi += 1
        slot = self._sigma_hi % self._span
        self._sigma[slot] = self._sigma[slot + self._span] = value

    def _filter_next(self) -> int | None:
        """Filter the next index t and judge t - 1, whose neighbors are now known.

        The filtered values before index beta are NaN and compare false, like
        the warm-up entries the offline peak search skips.
        """
        t = self._next_t
        self._next_t += 1
        # the tap-order sum of apply_filter: accumulate adds sequentially
        sigma = self._sigma_spans[(t - self._beta) % self._span]
        products = np.multiply(sigma, self._rev, out=self._products)
        right = float(np.add.accumulate(products, out=products)[-1])
        left, mid = self._last_two
        self._last_two = (mid, right)
        if mid > left and mid > right and mid > self._config.lam:
            return t - 1
        return None

    def step(self, sample) -> int | None:
        """Feed one sample; returns a confirmed change point index or None."""
        if self._finalized:
            raise ValueError("finalized detector cannot accept more samples")
        arr = np.asarray(sample)
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"sample must be real numbers, not {arr.dtype}")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise ValueError("sample must be a flat vector")
        if arr.size == 0:
            raise ValueError("sample must have at least one dimension")
        # Python floats: a longdouble beyond float64 reads inf here, before the
        # ring's cast would overflow
        if not all(map(math.isfinite, arr.tolist())):
            raise ValueError("non-finite sample")
        if self._raw is None:
            self._start(arr.size)
        elif arr.size != self._raw.shape[0]:
            raise ValueError("sample dimension changed mid-stream")
        slot = self._n % self._span
        self._slots[slot][...] = arr
        self._n += 1
        if self._n < self._span:
            return None

        # indices are in range, and mode="raise" would buffer the output
        self._spans[slot].take(self._pick, axis=1, out=self._windows, mode="clip")
        self._windows.sort()
        self._push_sigma(_w2t_row(*self._rows) / self._scale)
        if self._sigma_hi < self._next_t + self._beta - self._slack:
            return None
        confirmed = self._filter_next()
        if confirmed is not None:
            self._confirmed += 1
        return confirmed

    def _start(self, dim: int) -> None:
        """Size the sample ring and the (d, 2, beta) window buffer for d = dim, and their views."""
        span = self._span
        self._raw = np.empty((dim, 2 * span))
        self._windows = np.empty((dim, 2, self._beta))
        # per slot, its (2, d) pair of ring columns and the last span samples
        # once it is written
        self._slots = [self._raw[:, slot::span].T for slot in range(span)]
        self._spans = [self._raw[:, slot + 1 : slot + 1 + span] for slot in range(span)]
        self._rows = _row_views(self._windows)
        self._scale = 6 * self._beta * self._beta * dim

    def stats(self) -> dict:
        """Snapshot: samples seen, change points returned, confirmation lag, state bytes.

        ``confirmed`` counts the indices returned by :meth:`step` and
        :meth:`finalize`. ``lag`` is how many samples after a change point
        its streamed confirmation arrives: 2*beta, or 2*beta + 1 with a
        nonzero leading tap. ``state_bytes`` is the size of every array the
        detector holds; it is fixed from the first sample on.
        """
        arrays = (self._rev, self._products, self._pick, self._sigma, self._raw, self._windows)
        if self._raw is not None:
            arrays += (self._rows[2],)  # the tiled ramp
        return {
            "samples": self._n,
            "confirmed": self._confirmed,
            "lag": 2 * self._beta + 1 - self._slack,
            "state_bytes": sum(a.nbytes for a in arrays if a is not None),
        }

    def finalize(self) -> list[int]:
        """Flush end-of-stream decisions (offline uses padding there)."""
        if self._finalized:
            raise ValueError("detector already finalized")
        self._finalized = True
        emitted = []
        while self._next_t < self._n - self._beta:
            while self._sigma_hi < self._next_t + self._beta:
                self._push_sigma(NULL.null_mean)
            confirmed = self._filter_next()
            if confirmed is not None:
                emitted.append(confirmed)
        self._confirmed += len(emitted)
        return emitted


def save_filter(filt: MatchedFilter, path) -> None:
    """Write the filter as versioned JSON with full-precision taps."""
    payload = {
        "format": FILTER_FORMAT,
        "version": FILTER_VERSION,
        "beta": filt.beta,
        "gamma": filt.gamma,
        "ensemble_size": filt.ensemble_size,
        "seed": filt.seed,
        "change_pairs": [
            [asdict(before), asdict(after)] for before, after in filt.change_pairs
        ],
        "taps": [float(tap) for tap in filt.taps],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _change_pairs(entries) -> tuple:
    """Change pairs from the ``[before, after]`` lists of specs that ``save_filter`` writes."""
    return tuple((DistSpec(**before), DistSpec(**after)) for before, after in entries)


def load_filter(path) -> MatchedFilter:
    """Load a saved filter; the unit-area invariant is re-validated."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not decodable text
        raise ValueError(f"{path}: not a valid filter file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FILTER_FORMAT:
        raise ValueError(f"{path}: not a matched filter file")
    if payload.get("version") != FILTER_VERSION:
        raise ValueError(f"{path}: unsupported filter version {payload.get('version')!r}")
    try:
        pairs = _change_pairs(payload.get("change_pairs", []))
        return MatchedFilter(
            taps=payload["taps"],
            beta=payload["beta"],
            gamma=payload["gamma"],
            ensemble_size=payload["ensemble_size"],
            source="loaded",
            change_pairs=pairs,
            seed=payload.get("seed"),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: filter file lacks a {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid filter file: {exc}") from None
