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

__all__ = [
    "EmpiricalDist",
    "NullConstants",
    "NULL",
    "build_empirical",
    "w2t_statistic",
    "wasserstein2",
]

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NullConstants:
    """Reference constants of the statistic's limiting null law.

    The two-sample statistic converges, under equal distributions, to an
    integrated squared Brownian bridge whose mean is 0.166 and whose 0.95
    quantile is 0.462; the latter is the default rejection threshold at
    confidence 0.05.
    """

    null_mean: float = 0.166
    reject_threshold_05: float = 0.462
    alpha: float = 0.05

    def __post_init__(self):
        if not self.null_mean < self.reject_threshold_05:
            raise ValueError("null mean must lie below the rejection threshold")


NULL = NullConstants()


@dataclass(frozen=True)
class EmpiricalDist:
    """Point-mass distribution: sorted atoms with weights normalized to one.

    Duplicate atoms are kept rather than merged so that sample counts stay
    visible to the two-sample statistic's scale factor.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = np.array(self.support, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if support.ndim != 1 or support.size == 0:
            raise ValueError("empty distribution")
        if support.shape != weights.shape:
            raise ValueError("support and weights must have equal length")
        if not np.all(np.isfinite(support)):
            raise ValueError("non-finite sample")
        if not np.all(np.isfinite(weights)):
            raise ValueError("non-finite weight")
        if np.any(weights < 0.0):
            raise ValueError("negative weight")
        if support.size > 1 and np.any(np.diff(support) < 0.0):
            raise ValueError("support must be non-decreasing")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to one")
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


def build_empirical(values, weights=None) -> EmpiricalDist:
    """Build a distribution from raw samples and optional nonnegative weights.

    Omitted weights mean uniform 1/n; explicit weights are normalized by their
    total. The support is sorted with weights permuted alongside.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        vals = vals.reshape(-1)
    if vals.size == 0:
        raise ValueError("empty distribution")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite sample")
    if weights is None:
        w = np.full(vals.size, 1.0 / vals.size)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != vals.shape:
            raise ValueError("weights length must match values length")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite weight")
        if np.any(w < 0.0):
            raise ValueError("negative weight")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        w = w / total
    order = np.argsort(vals, kind="stable")
    return EmpiricalDist(vals[order], w[order])


@lru_cache(maxsize=64)
def _unit_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.arange(n, dtype=float) / n
    b = np.arange(1, n + 1, dtype=float) / n
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


# Largest cube table kept, in elements (8 MB): it covers windows up to about
# a thousand samples; beyond that the cubes are evaluated per call.
_TABLE_MAX_ELEMENTS = 1 << 20

# Work per batched kernel call, in window or merged samples, for the sliding
# statistic and the all-pairs distances: temporaries stay flat in input size.
_CHUNK_ELEMENTS = 1 << 14


def _pieces(counts: np.ndarray, m: int, n: int) -> np.ndarray:
    """The integrand pieces of :func:`_w2t_from_sorted` at k = counts / m."""
    k = counts / m
    a, b = _unit_grid(n)
    return (k - a) ** 3 - (k - b) ** 3


@lru_cache(maxsize=8)
def _cubic_table(m: int, n: int) -> np.ndarray:
    """Pieces for every count 0..m, flat and j-major: piece (c, j) at j*(m+1) + c.

    The values are those of :func:`_pieces` at k = c/m, built with exactly the
    operations of the scalar kernel and copied out in this order, so a gather
    from it is bit-identical to evaluating the cubes per call.
    """
    table = _pieces(np.arange(m + 1)[:, None], m, n).T.ravel()
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _gather_offsets(rows: int, m: int, n: int) -> np.ndarray:
    """Per y_j of row r, flattened: j*m - r*(m+n).

    Added to the flat merged position r*(m+n) + j + c_j of y_j, it gives the
    index j*(m+1) + c_j of piece (c_j, j) in :func:`_cubic_table`.
    """
    offsets = (np.arange(n) * m - np.arange(rows)[:, None] * (m + n)).ravel()
    offsets.setflags(write=False)
    return offsets


def _w2t_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_w2t_from_sorted` over sorted rows xs (R, m) and ys (R, n).

    A stable sort of each concatenated row puts every x ahead of the equal
    y's, so y_j of row r lands at flat merged position r*(m+n) + j + c_j with
    c_j = #x <= y_j. One cached offset per y turns that into the index of
    piece (c_j, j) in the j-major cube table, so the gather is a single take.
    """
    rows, m = xs.shape
    n = ys.shape[1]
    order = np.concatenate((xs, ys), axis=1).argsort(axis=1, kind="stable")
    index = np.flatnonzero(order >= m)
    index += _gather_offsets(rows, m, n)
    if (m + 1) * n <= _TABLE_MAX_ELEMENTS:
        pieces = _cubic_table(m, n).take(index).reshape(rows, n)
    else:
        counts = index.reshape(rows, n) - np.arange(n) * (m + 1)
        pieces = _pieces(counts, m, n)
    stats = (m * n / (m + n)) * pieces.sum(axis=1) / 3.0
    if m == n:
        stats[(xs == ys).all(axis=1)] = 0.0  # see _w2t_from_sorted
    return stats


def _w2_squared_rows(c: np.ndarray, x: np.ndarray, C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared W2 between one distribution (c, x) and each row of (C, X).

    Cumulative weights c, C and atoms x, X; rows are padded with 1.0 and their
    last atom. Capped at 1 (a running sum can round past the pinned top), each
    row of [c | C] is two sorted runs, which a stable sort merges. The piece
    ending at merged position p takes atom i of x and atom p - i of the row, i
    counting the c's ahead of p; both are clipped to the last atom. Summed
    sequentially in merged order, zero-width pieces (ties, padding) add exactly
    0, so the result has the same bits in either argument order and padding.
    """
    rows, m = C.shape
    n = c.size
    merged = np.minimum(np.concatenate((np.broadcast_to(c, (rows, n)), C), axis=1), 1.0)
    order = merged.argsort(axis=1, kind="stable")
    from_c = order < n
    i = np.cumsum(from_c, axis=1) - from_c
    j = np.minimum(np.arange(n + m) - i, m - 1)
    gap = x[np.minimum(i, n - 1)] - np.take_along_axis(X, j, axis=1)
    du = np.diff(np.take_along_axis(merged, order, axis=1), axis=1, prepend=0.0)
    return np.cumsum(du * gap**2, axis=1)[:, -1]


def _w2t_from_sorted(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample statistic from pre-sorted uniform samples x (m) and y (n).

    On ((j-1)/n, j/n] the composed CDF is the constant k_j = (#x <= y_j)/m, so
    each piece integrates to ((k-a)^3 - (k-b)^3)/3 in closed form.
    """
    m = x.size
    n = y.size
    if m == n and np.array_equal(x, y):
        # Equal samples carry zero discrepancy by definition; the raw integral
        # bottoms out at 1/(6n) instead because the step CDF can never track
        # the identity exactly.
        return 0.0
    k = np.searchsorted(x, y, side="right") / m
    a, b = _unit_grid(n)
    pieces = (k - a) ** 3 - (k - b) ** 3
    return (m * n / (m + n)) * float(pieces.sum()) / 3.0


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
    """
    squared = _w2_squared_rows(a.cum_weights, a.support, b.cum_weights[None], b.support[None])
    return math.sqrt(squared[0])
