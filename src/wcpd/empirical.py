"""Weighted one-dimensional empirical distributions and exact transport statistics.

Everything here is closed-form: the two-sample statistic integrates its
piecewise-quadratic integrand analytically, and the weighted distance sums the
squared quantile gaps over the merged cumulative-weight breakpoints of both
inputs. No quadrature, no sampling.
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
    "ecdf_eval",
    "quantile",
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


def ecdf_eval(dist: EmpiricalDist, x: float) -> float:
    """Right-continuous empirical CDF: total weight of atoms <= x."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite evaluation point")
    idx = int(np.searchsorted(dist.support, x, side="right"))
    if idx == 0:
        return 0.0
    return float(dist.cum_weights[idx - 1])


def quantile(dist: EmpiricalDist, u: float) -> float:
    """Generalized inverse CDF: smallest atom whose cumulative weight >= u."""
    u = float(u)
    if not 0.0 < u <= 1.0:
        raise ValueError("quantile level must lie in (0, 1]")
    idx = int(np.searchsorted(dist.cum_weights, u, side="left"))
    return float(dist.support[idx])


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


def _pieces(counts: np.ndarray, m: int, n: int) -> np.ndarray:
    """The integrand pieces of :func:`_w2t_from_sorted` at k = counts / m."""
    k = counts / m
    a, b = _unit_grid(n)
    return (k - a) ** 3 - (k - b) ** 3


@lru_cache(maxsize=8)
def _cubic_table(m: int, n: int) -> np.ndarray:
    """Pieces for every count 0..m, row c at k = c/m.

    Built with exactly the operations of the scalar kernel, so a gather from
    it is bit-identical to evaluating the cubes per call.
    """
    table = _pieces(np.arange(m + 1)[:, None], m, n)
    table.setflags(write=False)
    return table


def _w2t_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_w2t_from_sorted` over sorted rows xs (R, m) and ys (R, n).

    A stable sort of each concatenated row puts every x ahead of the equal
    y's, so y_j lands at merged position j + c_j with c_j = #x <= y_j.
    """
    rows, m = xs.shape
    n = ys.shape[1]
    order = np.concatenate((xs, ys), axis=1).argsort(axis=1, kind="stable")
    cols = np.arange(n)
    merged_pos = (np.flatnonzero(order >= m) % (m + n)).reshape(rows, n)
    counts = merged_pos - cols
    if (m + 1) * n <= _TABLE_MAX_ELEMENTS:
        pieces = _cubic_table(m, n)[counts, cols]
    else:
        pieces = _pieces(counts, m, n)
    stats = (m * n / (m + n)) * pieces.sum(axis=1) / 3.0
    if m == n:
        stats[(xs == ys).all(axis=1)] = 0.0  # see _w2t_from_sorted
    return stats


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
    du * (x_i - y_j)^2 over those pieces; the result is its root.
    """
    ca, cb = a.cum_weights, b.cum_weights
    u = np.union1d(ca, cb)
    du = np.diff(u, prepend=0.0)
    # a running sum can round past 1 ahead of the pinned top; such a
    # breakpoint lies beyond the other side's top, and the clip keeps it on
    # the last atom there
    i = np.minimum(np.searchsorted(ca, u), ca.size - 1)
    j = np.minimum(np.searchsorted(cb, u), cb.size - 1)
    return math.sqrt(du @ (a.support[i] - b.support[j]) ** 2)
