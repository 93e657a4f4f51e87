"""Weighted one-dimensional empirical distributions and exact transport statistics.

Everything here is closed-form: the two-sample statistic integrates its
piecewise-quadratic integrand analytically, and the weighted distance sums the
squared quantile gaps over the merged cumulative-weight breakpoints of both
inputs; both run on batches of rows. No quadrature, no sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .series import _reals

__all__ = [
    "EmpiricalDist",
    "NULL",
    "build_empirical",
    "w2t_statistic",
    "wasserstein2",
]

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class _NullConstants:
    """Reference constants of the statistic's limiting null law.

    The two-sample statistic converges, under equal distributions, to an
    integrated squared Brownian bridge whose mean is 0.166 and whose 0.95
    quantile is 0.462; the latter is the default rejection threshold at
    confidence 0.05.
    """

    null_mean: float = 0.166
    reject_threshold_05: float = 0.462

    def __post_init__(self):
        if not self.null_mean < self.reject_threshold_05:
            raise ValueError("null mean must lie below the rejection threshold")


NULL = _NullConstants()


@dataclass(frozen=True)
class EmpiricalDist:
    """Point-mass distribution: sorted atoms with weights normalized to one.

    Duplicate atoms are kept rather than merged so that sample counts stay
    visible to the two-sample statistic's scale factor.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = _reals(self.support, "support")
        weights = _reals(self.weights, "weights")
        if support.ndim != 1 or support.size == 0:
            raise ValueError("empty distribution")
        if support.shape != weights.shape:
            raise ValueError("support and weights must have equal length")
        _check_runs(support, weights, np.zeros(1, dtype=int))
        support.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.support.size)

    @cached_property
    def cum_weights(self) -> np.ndarray:
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0  # pin the top so quantile lookups at u = 1 cannot fall off
        cum.setflags(write=False)
        return cum


def _check_runs(atoms: np.ndarray, weights: np.ndarray, starts: np.ndarray) -> None:
    """The checks of :class:`EmpiricalDist` on many distributions at once.

    Along the last axis of atoms and weights, distribution r runs from
    starts[r] (starts[0] is 0) up to the next start: its atoms must be finite
    and non-decreasing, its weights nonnegative with a sum within
    _WEIGHT_SUM_TOL of one, summed sequentially.
    """
    if not np.isfinite(atoms).all():
        raise ValueError("non-finite sample")
    if not np.isfinite(weights).all():
        raise ValueError("non-finite weight")
    if (weights < 0.0).any():
        raise ValueError("negative weight")
    drops = atoms[..., 1:] < atoms[..., :-1]
    drops[..., starts[1:] - 1] = False  # a run may start below the one before
    if drops.any():
        raise ValueError("support must be non-decreasing")
    if (abs(np.add.reduceat(weights, starts, axis=-1) - 1.0) > _WEIGHT_SUM_TOL).any():
        raise ValueError("weights must sum to one")


def build_empirical(values, weights=None) -> EmpiricalDist:
    """Build a distribution from raw samples and optional nonnegative weights.

    Omitted weights mean uniform 1/n; explicit weights are normalized by their
    total. The support is sorted with weights permuted alongside.
    """
    vals = _reals(values, "values", "sample")
    if vals.ndim != 1:
        vals = vals.reshape(-1)
    if vals.size == 0:
        raise ValueError("empty distribution")
    if weights is None:
        w = np.full(vals.size, 1.0 / vals.size)
    else:
        w = _reals(weights, "weights", "weight")
        if w.shape != vals.shape:
            raise ValueError("weights length must match values length")
        if np.any(w < 0.0):
            raise ValueError("negative weight")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        w = w / total
    order = np.argsort(vals, kind="stable")
    return EmpiricalDist(vals[order], w[order])


# Work per batched kernel call, in window or merged samples, for the sliding
# statistic and the all-pairs distances: temporaries stay flat in input size.
_CHUNK_ELEMENTS = 1 << 14


def _scale_exponent(atoms: np.ndarray) -> int:
    """Least k >= 0 with every |atom| / 2**k below 2**500: squared gaps stay finite.

    Dividing the atoms by 2**k and multiplying the root back are both exact.
    """
    return max(0, math.frexp(float(np.abs(atoms).max()))[1] - 500)


@lru_cache(maxsize=16)
def _ramp(n: int, step: int, start: int = 0, tiles: int = 1) -> np.ndarray:
    """start + j*step for j = 0..n-1, repeated tiles times, read-only."""
    ramp = np.tile(start + np.arange(n) * step, tiles)
    ramp.setflags(write=False)
    return ramp


def _rank_keys(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and the key 2*min-rank of each value, low bit left for a side.

    Rows along the last axis are ranked apart. Equal values share a key,
    v <= w exactly when key(v) <= key(w), and sorted[key >> 1] is the value.
    One argsort gives both: a sorted position keeps twice its index where a
    run of equal values starts, a running maximum hands that on through the
    run, and the order scatters it back. Keys are never narrower than 16
    bits: numpy sorts 8-bit keys without SIMD.
    """
    n = values.shape[-1]
    key_type = np.promote_types(np.uint16, np.min_scalar_type(2 * n + 1))
    # flat indices of each row's sorted order, rows laid end to end
    order = np.argsort(values, axis=-1)
    order += np.arange(0, values.size, n).reshape(values.shape[:-1] + (1,))
    vals = values.reshape(-1)[order]
    starts = np.ones(vals.shape, dtype=bool)
    np.not_equal(vals[..., 1:], vals[..., :-1], out=starts[..., 1:])
    sorted_keys = np.arange(0, 2 * n, 2, dtype=key_type) * starts
    np.maximum.accumulate(sorted_keys, axis=-1, out=sorted_keys)
    keys = np.empty(values.shape, dtype=key_type)
    keys.reshape(-1)[order] = sorted_keys
    return vals, keys


def _workspace(*parts) -> list[np.ndarray]:
    """One new flat array per (count, dtype) part, made once per call, not per block: glibc
    returns a freed block of 128 KiB or more to the OS, so a per-block temporary faults anew."""
    return [np.empty(count, dtype) for count, dtype in parts]


def _w2t_parts(rows: int, n: int, key_type) -> list[tuple]:
    """The :func:`_workspace` parts of :func:`_w2t_keys` on up to rows windows of n keys."""
    return [(2 * rows * n, key_type), (2 * rows * n, bool), (rows * n, np.int64)]


def _w2t_keys(xk: np.ndarray, yk: np.ndarray, gaps: np.ndarray, work: list) -> np.ndarray:
    """Row-wise :func:`_w2t_from_sorted` over rank-key windows, as the int64 S of S/(6*n^2).

    x's carry the keys of :func:`_rank_keys` over the pooled series, y's the
    key + 1. A plain sort of each concatenated (x, y) row of xk and yk, both
    (..., n) with rows in C order of the leading axes, then puts every x
    ahead of the equal y's and behind the larger ones; no stable sort is
    needed. y_j of row r lands at flat merged position 2*(r*n + j) + d_j,
    d_j = c_j - j with c_j = #x <= y_j, so one cached ramp gives the d_j and
    S = sum_j (3*d_j^2 - 3*d_j + 1) < 3*n^3, or 0 for equal windows. gaps
    holds each row's y key sum minus its x key sum, n for equal windows. The
    rows need not be sorted. Every block temporary but the positions of
    ``flatnonzero`` and the d_j of rows with gap n goes into work, a
    :func:`_workspace` of the :func:`_w2t_parts` of at least as many rows.
    """
    n = xk.shape[-1]
    rows = xk.size // n
    keys, odd, square = work
    keys, odd, square = keys[: 2 * rows * n], odd[: 2 * rows * n], square[: rows * n]
    merged = keys.reshape(xk.shape[:-1] + (2 * n,))
    np.concatenate((xk, yk), axis=-1, out=merged)
    merged.sort(axis=-1)
    np.bitwise_and(keys, 1, out=keys)
    d = np.flatnonzero(np.not_equal(keys, 0, out=odd))
    d += _ramp(rows * n, -2)
    np.subtract(d, 1, out=square)
    square *= d
    total = 3 * square.reshape(rows, n).sum(axis=1) + n
    # see _w2t_from_sorted. Sorted x equals sorted y when the rank sums agree
    # (gap n) and x_(j) <= y_(j) for every j (c_j > j): the per-j rank gaps
    # are then nonnegative and sum to zero. Only the (rare) rows passing the
    # first test read their d_j.
    cand = np.flatnonzero(gaps.reshape(rows) == n)
    if cand.size:
        total[cand[np.greater(d.reshape(rows, n)[cand], 0).all(axis=1)]] = 0
    return total


def _row_views(windows: np.ndarray) -> tuple:
    """The arguments of :func:`_w2t_row` over a (rows, 2, n) buffer of before and after windows.

    Built once per buffer, they read it as it changes: each row's two windows
    with the before window's bound searchsorted, the (rows, 2) view of the
    windows' first samples, and the 2j + 1 ramp tiled over all rows.
    """
    rows, _, n = windows.shape
    return [(x, y, x.searchsorted) for x, y in windows], windows[:, :, 0], _ramp(n, 2, 1, rows)


def _w2t_row(rows: list, firsts: np.ndarray, ramp: np.ndarray) -> int:
    """Integer S of :func:`_w2t_keys` for sorted windows of n samples, summed over rows.

    The arguments are the :func:`_row_views` of a buffer whose windows are
    sorted. One searchsorted per row counts c_j = #x <= y_j. With
    d_j = c_j - j, S expands to 3*sum_j c_j*(c_j - 2j - 1) + n^3 per row,
    and the sum over rows is exact in any order: the rows' counts are joined
    and share one subtraction of the ramp and one int64 dot. A row of equal
    windows adds 0, so it is left out of the join and a cached shorter ramp
    serves the rest.
    """
    n = ramp.size // len(rows)
    # see _w2t_from_sorted; equal first samples are the cheap necessary test
    counts = [
        count(y, "right")
        for (x, y, count), (x0, y0) in zip(rows, firsts.tolist())
        if x0 != y0 or not (x == y).all()
    ]
    if len(counts) < len(rows):
        if not counts:
            return 0
        ramp = _ramp(n, 2, 1, len(counts))
    c = counts[0] if len(counts) == 1 else np.concatenate(counts)
    return 3 * c.dot(c - ramp) + c.size * n * n


def _weight_keys(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rank_keys` of cumulative weights capped at 1 (a running sum can
    round past the pinned top), so each distribution's run stays sorted."""
    return _rank_keys(np.minimum(cum, 1.0))


def _w2_parts(size: int, key_type) -> list[tuple]:
    """The :func:`_workspace` parts of :func:`_w2_squared_rows` on up to size merged keys."""
    return [(size, key_type), (size, np.intp), (size, np.intp), (size, float)]


def _w2_squared_rows(
    vals: np.ndarray, own: np.ndarray, x: np.ndarray, rows: np.ndarray, atoms: np.ndarray,
    first, last, work=None,
) -> np.ndarray:
    """Squared W2 between one distribution and each row of a block.

    Capped cumulative weights come as keys of :func:`_weight_keys` over vals:
    own for the distribution with atoms x, and each row of rows padded with
    the row's last key. The atoms of row r are atoms[first[r]..last[r]]. The
    row keys are made odd, so a plain sort of each [own | row] merges the two
    sorted runs and puts own ahead of an equal row weight, the order a stable
    sort of the weights gives. The piece ending at merged position p takes
    atom i of x and atom p - i of the row, i counting the own keys ahead of
    p; both are clipped to the last atom (first and last are scalars or
    (count, 1) columns). Summed sequentially in merged order, zero-width
    pieces (ties, padding) add exactly 0, so the result has the same bits in
    either argument order and padding.

    After the sort the block is laid out merged-position-major, (n + m,
    count), so the prefix count, the differences and the sum each add whole
    rows of it at once. An axis-0 ``np.add.reduce`` is then one vector add
    per merged position: every column is still summed sequentially in merged
    order. numpy sums a lone contiguous column pairwise instead, so a block
    of one row takes the last entry of a cumsum, which is sequential. Every
    block temporary goes into work, a :func:`_workspace` of the
    :func:`_w2_parts` of at least count*(n + m) keys (a new one if omitted).
    """
    count, m = rows.shape
    n = own.size
    size = count * (n + m)
    if work is None:
        work = _workspace(*_w2_parts(size, rows.dtype))
    merged, j, i, gap = (part[:size] for part in work)
    merged = merged.reshape(count, n + m)
    np.copyto(merged[:, :n], own)
    np.bitwise_or(rows, 1, out=merged[:, n:])
    merged.sort(axis=1)
    keys = merged.T
    j, i, gap = j.reshape(keys.shape), i.reshape(keys.shape), gap.reshape(keys.shape)
    # j[p]: row keys ahead of merged position p, i[p] = p - j[p] own keys
    np.bitwise_and(keys, 1, out=i)
    j[0] = 0
    np.cumsum(i[:-1], axis=0, out=j[1:])
    np.subtract(np.arange(n + m)[:, None], j, out=i)
    j += np.transpose(first)
    np.minimum(j, np.transpose(last), out=j)
    x.take(i, mode="clip", out=gap)
    # once spent, i and j hold float temporaries: the row atoms, then the
    # weights at each merged position and their differences du
    gap -= atoms.take(j, mode="clip", out=i.view(float))
    np.right_shift(keys, 1, out=j)
    weights = vals.take(j, mode="clip", out=i.view(float))
    du = j.view(float)
    du[0] = weights[0]
    np.subtract(weights[1:], weights[:-1], out=du[1:])
    gap *= gap
    gap *= du
    if count == 1:
        return np.cumsum(gap, axis=0, out=gap)[-1].copy()
    return np.add.reduce(gap, axis=0)


def _w2t_from_sorted(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample statistic from pre-sorted uniform samples x (m) and y (n).

    On (j/n, (j+1)/n] the composed CDF is the constant k_j = c_j/m with
    c_j = #x <= y_j, so each piece integrates to
    ((k_j - j/n)^3 - (k_j - (j+1)/n)^3)/3 in closed form (Ramdas, Garcia
    Trillos & Cuturi, Entropy 2017). With a_j = c_j*n - j*m the scaled sum is
    S/(3*(m + n)*m*n^2) for the integer S = sum_j (3*a_j^2 - 3*a_j*m + m^2),
    which is summed in Python integers (it outgrows int64 near m, n ~ 1e4)
    and divided once, so the result is correctly rounded.
    """
    m = x.size
    n = y.size
    if m == n and np.array_equal(x, y):
        # Equal samples carry zero discrepancy by definition; the raw integral
        # bottoms out at 1/(6n) instead because the step CDF can never track
        # the identity exactly.
        return 0.0
    a = np.searchsorted(x, y, side="right") * n - np.arange(n) * m
    total = sum(v * (v - m) for v in a.tolist())
    return (3 * total + n * m * m) / (3 * (m + n) * m * n * n)


def w2t_statistic(p: EmpiricalDist, q: EmpiricalDist) -> float:
    """Wasserstein two-sample statistic between uniformly weighted samples.

    Scaled CDF discrepancy (m*n/(m+n)) * integral of (P(Q^-1(x)) - x)^2 over
    (0, 1], computed exactly from the order statistics. Its null law has mean
    ~0.166 and 0.95 quantile ~0.462 (see :data:`NULL`).
    """
    for dist in (p, q):
        nd = len(dist)
        if float(np.abs(dist.weights * nd - 1.0).max()) > 1e-9:
            raise ValueError("two-sample statistic requires uniform samples")
    return _w2t_from_sorted(p.support, q.support)


def wasserstein2(a: EmpiricalDist, b: EmpiricalDist) -> float:
    """Exact 2-Wasserstein distance between weighted atomic distributions.

    Both quantile functions are constant between consecutive breakpoints of
    the merged cumulative weights, so the squared distance is the sum of
    du * (x_i - y_j)^2 over those pieces; the result is its root. This is the
    one-row case of the kernel :func:`wcpd.tssc.affinity_matrix` runs in blocks.
    Atoms from 2**500 up are scaled by a power of two so no square overflows.
    """
    n = len(a)
    vals, keys = _weight_keys(np.concatenate((a.cum_weights, b.cum_weights)))
    k = _scale_exponent(np.concatenate((a.support, b.support)))
    x, y = np.ldexp(a.support, -k), np.ldexp(b.support, -k)
    squared = _w2_squared_rows(vals, keys[:n], x, keys[None, n:], y, 0, len(b) - 1)
    return math.sqrt(squared[0]) * 2.0**k
