"""Segment distributions, transport affinities, and spectral clustering.

Segments between change points are summarized as weighted empirical
distributions whose boundary samples are tapered by half-Hamming ramps, so a
mislocated change point contaminates a segment's distribution only weakly.
Transport distances between all pairs of them, batched in blocks, feed an
exp(-W2) affinity matrix that is clustered spectrally.

:func:`cluster_segments` builds no per-segment objects: per dimension, one
array holds every segment's sorted atoms and another their cumulative
weights, and the affinity is computed from those. The object-level API stays
for callers that want single segments: :func:`segment_distribution` returns a
:class:`Segment` of :class:`~wcpd.empirical.EmpiricalDist`, and
:func:`affinity_matrix` takes such segments. Both run through the same array
code, so either route gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import (
    _CHUNK_ELEMENTS,
    EmpiricalDist,
    _check_runs,
    _scale_exponent,
    _w2_squared_rows,
    _w2_parts,
    _weight_keys,
    _workspace,
)
from .numeric import eigh_symmetric, kmeans
from .series import TimeSeries, _float, _integer, _integers, _reals

__all__ = [
    "Segment",
    "AffinityMatrix",
    "SegmentLabeling",
    "segment_distribution",
    "affinity_matrix",
    "spectral_cluster",
    "cluster_segments",
]


@dataclass(frozen=True)
class Segment:
    """Half-open sample range [start, end) with one distribution per dimension."""

    start: int
    end: int
    dists: tuple[EmpiricalDist, ...]

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("segment start must precede its end")
        if not self.dists:
            raise ValueError("segment needs at least one dimension")
        if len({len(dist) for dist in self.dists}) > 1:
            raise ValueError("every dimension of a segment holds the same samples")

    @property
    def dim(self) -> int:
        return len(self.dists)


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric matrix of exp(-distance) similarities with a unit diagonal.

    Off-diagonal entries lie in [0, 1]: exp(-W2) underflows to 0 once W2
    passes ~745.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _reals(self.values, "affinities", "affinity")
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] == 0:
            raise ValueError("affinity matrix must be square and nonempty")
        if float(np.abs(values - values.T).max()) > 1e-12:
            raise ValueError("affinity matrix must be symmetric")
        if not np.all(values.diagonal() == 1.0):
            raise ValueError("affinity diagonal must be exactly one")
        # zeros are harmless: the unit diagonal keeps every degree >= 1
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("affinities must lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class SegmentLabeling:
    """Change points plus one cluster id per resulting segment."""

    change_points: np.ndarray
    labels: np.ndarray
    K: int

    def __post_init__(self):
        cps = _integers(self.change_points, "change points")
        labels = _integers(self.labels, "labels")
        K = _integer(self.K, "K")
        if cps.ndim != 1 or labels.ndim != 1:
            raise ValueError("change points and labels must be flat sequences")
        if cps.size and np.any(np.diff(cps) <= 0):
            raise ValueError("change points must be strictly increasing")
        if labels.size != cps.size + 1:
            raise ValueError("need exactly one label per segment")
        if K < 1 or np.any(labels < 0) or np.any(labels >= K):
            raise ValueError("labels must lie in [0, K)")
        cps.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "change_points", cps)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "K", K)

    def per_sample(self, total: int) -> np.ndarray:
        """Expand segment labels to one label per sample index in [0, total)."""
        cps = self.change_points
        if cps.size and (cps[0] <= 0 or cps[-1] >= total):
            raise ValueError("labeling does not cover the sample range")
        bounds = np.concatenate(([0], cps, [total]))
        return np.repeat(self.labels, np.diff(bounds))


def _boundary_weights(length: int, beta: int) -> np.ndarray:
    """Pre-normalization sample weights for a segment of the given length.

    Samples within beta of a boundary take the matching half of a symmetric
    length-2*beta Hamming window, 0.54 - 0.46*cos(2*pi*n/(2*beta - 1)); interior
    samples weigh exactly 1. A segment shorter than 2*beta uses the pointwise
    minimum of the rising and falling halves.
    """
    if length < 1:
        raise ValueError("empty segment")
    # inf past float64: numpy compares and multiplies with float(beta) anyway
    beta = _float(_integer(beta, "beta", 1))
    positions = np.arange(length, dtype=float)
    edge_distance = np.minimum(positions, length - 1 - positions)
    weights = np.ones(length)
    ramp = edge_distance < beta
    weights[ramp] = 0.54 - 0.46 * np.cos(
        2.0 * np.pi * edge_distance[ramp] / (2.0 * beta - 1.0)
    )
    return weights


def _sorted_segments(block: np.ndarray, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted atoms and their weights for segments of one length.

    The last axis of block holds the samples of one segment in one dimension.
    Each row gets the bits :func:`wcpd.empirical.build_empirical` gives it
    under :func:`_boundary_weights`: one stable argsort, and weights
    normalized by their float sum.
    """
    order = np.argsort(block, axis=-1, kind="stable")
    weights = _boundary_weights(block.shape[-1], beta)
    return np.take_along_axis(block, order, axis=-1), (weights / float(weights.sum()))[order]


def _segment_arrays(
    data: np.ndarray, bounds: np.ndarray, beta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per dimension, every segment's sorted atoms and pinned cumulative weights.

    Segment s holds data[bounds[s]:bounds[s + 1]]. Each result is a (d, N)
    array over rows bounds[0]..bounds[-1], segments in order; the segments
    of one length go through :func:`_sorted_segments` together, in all
    dimensions at once. Cumulative weights run along each segment with the
    top pinned to 1, as :attr:`EmpiricalDist.cum_weights` does. The checks
    of :class:`EmpiricalDist` run once on the whole.
    """
    columns = np.ascontiguousarray(data[bounds[0] : bounds[-1]].T)
    starts = bounds[:-1] - bounds[0]
    sizes = np.diff(bounds)
    atoms = np.empty_like(columns)
    weights = np.empty_like(columns)
    cums = np.empty_like(columns)
    for size in set(sizes.tolist()):
        rows = starts[sizes == size, None] + np.arange(size)
        sorted_atoms, w = _sorted_segments(columns[:, rows], beta)
        atoms[:, rows] = sorted_atoms
        weights[:, rows] = w
        cum = np.cumsum(w, axis=-1)
        cum[..., -1] = 1.0
        cums[:, rows] = cum
    _check_runs(atoms, weights, starts)
    return atoms, cums


def segment_distribution(series: TimeSeries, start: int, end: int, beta: int) -> Segment:
    """Weighted per-dimension distribution of the samples in [start, end)."""
    if not 0 <= start < end <= len(series):
        raise ValueError("empty segment")
    atoms, weights = _sorted_segments(series.data[start:end].T, beta)
    dists = tuple(EmpiricalDist(a, w) for a, w in zip(atoms, weights))
    return Segment(start=start, end=end, dists=dists)


def _affinity(sizes: np.ndarray, cums: np.ndarray, atoms: np.ndarray) -> AffinityMatrix:
    """:func:`affinity_matrix` of n >= 1 segments of the given sizes, from (d, N) arrays.

    Row t of cums and atoms holds dimension t of every segment in order, as
    :func:`_segment_arrays` lays them out. One segment gives [[1.0]].
    """
    n = sizes.size
    dim = cums.shape[0]
    offsets = sizes.cumsum() - sizes
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    ends = sizes.cumsum()
    starts = ends - sizes
    # the columns of the segments, longest first
    gather = np.repeat(offsets[order] - starts, sizes) + np.arange(ends[-1])
    keyed = []
    for d in range(dim):
        vals, keys = _weight_keys(cums[d, gather])
        row = atoms[d, gather]
        k = _scale_exponent(row)
        keyed.append((vals, keys, np.ldexp(row, -k), 2.0**k))
    # owner a meets the shorter segments after it, step rows at a time, each
    # padded to the width of the first; one workspace fits the largest block
    widths = sizes[:-1] + sizes[1:]
    steps = np.maximum(1, _CHUNK_ELEMENTS // widths)
    largest = int((np.minimum(steps, np.arange(n - 1, 0, -1)) * widths).max(initial=0))
    key_type = keyed[0][1].dtype  # every dimension ranks N weights
    *work, index, block = _workspace(
        *_w2_parts(largest, key_type), (largest, np.intp), (largest, key_type)
    )
    total = np.zeros((n, n))
    for a in range(n - 1):
        own = slice(starts[a], ends[a])
        step = int(steps[a])
        for lo in range(a + 1, n, step):
            hi = min(lo + step, n)
            first = starts[lo:hi, None]
            last = ends[lo:hi, None] - 1
            shape = (hi - lo, int(sizes[lo]))
            # clipped at each row's end, the gather pads with the row's last key
            idx = index[: shape[0] * shape[1]].reshape(shape)
            np.add(first, np.arange(shape[1]), out=idx)
            np.minimum(idx, last, out=idx)
            rows = block[: idx.size].reshape(shape)
            for vals, keys, row, scale in keyed:
                keys.take(idx, mode="clip", out=rows)
                squared = _w2_squared_rows(
                    vals, keys[own], row[own], rows, row, first, last, work
                )
                with np.errstate(over="ignore"):  # W2 past float max: inf, affinity 0
                    total[a, lo:hi] += np.sqrt(squared) * scale
    upper = np.triu_indices(n, 1)
    values = np.ones((n, n))
    similarity = np.exp(-total[upper] / dim)
    values[order[upper[0]], order[upper[1]]] = values[order[upper[1]], order[upper[0]]] = similarity
    return AffinityMatrix(values)


def affinity_matrix(segments) -> AffinityMatrix:
    """exp(-W2) similarity between all segment pairs; diagonal exactly one.

    For d > 1 the distance is the mean of the per-dimension distances. Each
    dimension's cumulative weights, over all segments at once, are ranked
    once into the integer keys of :func:`wcpd.empirical._weight_keys`.
    Longest first, each segment meets the shorter ones after it in bounded
    blocks of the kernel behind :func:`wcpd.empirical.wasserstein2`, which
    merges the keys with a plain sort and sums each pair sequentially in
    merged order across the whole block; rows are padded to their longest.
    Each dimension's atoms are scaled once by the power of two of
    :func:`wcpd.empirical._scale_exponent`. :func:`cluster_segments` runs the
    same computation on arrays without building the segments.
    """
    segments = list(segments)
    if len(segments) < 2:
        raise ValueError("need at least two segments")
    dim = segments[0].dim
    if any(seg.dim != dim for seg in segments):
        raise ValueError("dimension mismatch")
    sizes = np.array([len(seg.dists[0]) for seg in segments])
    cums = np.array([np.concatenate([seg.dists[d].cum_weights for seg in segments])
                     for d in range(dim)])
    atoms = np.array([np.concatenate([seg.dists[d].support for seg in segments])
                      for d in range(dim)])
    return _affinity(sizes, cums, atoms)


def spectral_cluster(affinity: AffinityMatrix, K: int, seed: int) -> np.ndarray:
    """Normalized spectral clustering of the affinity graph into K groups.

    Takes the K eigenvectors of the symmetric normalized Laplacian with the
    smallest eigenvalues, row-normalizes the embedding (zero rows stay zero),
    and runs seeded k-means on the rows.
    """
    A = affinity.values
    n = len(affinity)
    K = _integer(K, "K")
    if not 1 <= K <= n:
        raise ValueError("cluster count must lie between 1 and the segment count")
    inv_sqrt_degree = 1.0 / np.sqrt(A.sum(axis=1))
    laplacian = np.eye(n) - inv_sqrt_degree[:, None] * A * inv_sqrt_degree[None, :]
    laplacian = (laplacian + laplacian.T) / 2.0
    _, vectors = eigh_symmetric(laplacian)
    embedding = vectors[:, :K].copy()
    norms = np.sqrt((embedding**2).sum(axis=1))
    nonzero = norms > 0.0
    embedding[nonzero] /= norms[nonzero, None]
    return kmeans(embedding, K, seed=seed)


def cluster_segments(
    series: TimeSeries, change_points, K: int, beta: int, seed: int
) -> SegmentLabeling:
    """Segment the series at the change points and cluster the segments."""
    K = _integer(K, "K")
    beta = _integer(beta, "beta", 1)
    seed = _integer(seed, "seed", 0)
    cps = _integers(change_points, "change points")
    if cps.ndim != 1:
        raise ValueError("change points must be a flat index sequence")
    cps = np.sort(cps)
    T = len(series)
    if cps.size and (cps[0] <= 0 or cps[-1] >= T or np.any(np.diff(cps) <= 0)):
        raise ValueError("change points must be strictly increasing inside (0, T)")
    bounds = np.concatenate(([0], cps, [T]))
    atoms, cums = _segment_arrays(series.data, bounds, beta)
    labels = spectral_cluster(_affinity(np.diff(bounds), cums, atoms), K, seed)
    return SegmentLabeling(change_points=cps, labels=labels, K=K)
