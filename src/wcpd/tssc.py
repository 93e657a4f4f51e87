"""Segment distributions, transport affinities, and spectral clustering.

Segments between change points are summarized as weighted empirical
distributions whose boundary samples are tapered by half-Hamming ramps, so a
mislocated change point contaminates a segment's distribution only weakly.
Transport distances between all pairs of them, batched in blocks, feed an
exp(-W2) affinity matrix that is clustered spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import (
    _CHUNK_ELEMENTS,
    EmpiricalDist,
    _scale_exponent,
    _w2_squared_rows,
    _weight_keys,
    build_empirical,
)
from .numeric import eigh_symmetric, kmeans
from .series import TimeSeries
from .simgen import _integer

__all__ = [
    "Segment",
    "AffinityMatrix",
    "SegmentLabeling",
    "boundary_weights",
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
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] == 0:
            raise ValueError("affinity matrix must be square and nonempty")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite affinity")
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
        cps = np.array(self.change_points, dtype=int)
        labels = np.array(self.labels, dtype=int)
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


def boundary_weights(length: int, beta: int) -> np.ndarray:
    """Pre-normalization sample weights for a segment of the given length.

    Samples within beta of a boundary take the matching half of a symmetric
    length-2*beta Hamming window, 0.54 - 0.46*cos(2*pi*n/(2*beta - 1)); interior
    samples weigh exactly 1. A segment shorter than 2*beta uses the pointwise
    minimum of the rising and falling halves.
    """
    if length < 1:
        raise ValueError("empty segment")
    if _integer(beta, "beta") < 1:
        raise ValueError("beta must be at least 1")
    positions = np.arange(length, dtype=float)
    edge_distance = np.minimum(positions, length - 1 - positions)
    weights = np.ones(length)
    ramp = edge_distance < beta
    weights[ramp] = 0.54 - 0.46 * np.cos(
        2.0 * np.pi * edge_distance[ramp] / (2.0 * beta - 1.0)
    )
    return weights


def segment_distribution(series: TimeSeries, start: int, end: int, beta: int) -> Segment:
    """Weighted per-dimension distribution of the samples in [start, end)."""
    if not 0 <= start < end <= len(series):
        raise ValueError("empty segment")
    weights = boundary_weights(end - start, beta)
    dists = tuple(
        build_empirical(series.data[start:end, dim], weights)
        for dim in range(series.dim)
    )
    return Segment(start=start, end=end, dists=dists)


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
    :func:`wcpd.empirical._scale_exponent`.
    """
    segments = list(segments)
    n = len(segments)
    if n < 2:
        raise ValueError("need at least two segments")
    dim = segments[0].dim
    if any(seg.dim != dim for seg in segments):
        raise ValueError("dimension mismatch")
    order = np.argsort([-len(seg.dists[0]) for seg in segments], kind="stable")
    sizes = np.array([len(segments[s].dists[0]) for s in order])
    ends = sizes.cumsum()
    starts = ends - sizes
    keyed = []
    for d in range(dim):
        vals, keys = _weight_keys(np.concatenate([segments[s].dists[d].cum_weights for s in order]))
        atoms = np.concatenate([segments[s].dists[d].support for s in order])
        k = _scale_exponent(atoms)
        keyed.append((vals, keys, np.ldexp(atoms, -k), 2.0**k))
    total = np.zeros((n, n))
    for a in range(n - 1):
        own = slice(starts[a], ends[a])
        step = max(1, _CHUNK_ELEMENTS // int(sizes[a] + sizes[a + 1]))
        for lo in range(a + 1, n, step):
            hi = min(lo + step, n)
            first = starts[lo:hi, None]
            last = ends[lo:hi, None] - 1
            # clipped at each row's end, the gather pads with the row's last key
            idx = np.minimum(first + np.arange(sizes[lo]), last)
            for vals, keys, atoms, scale in keyed:
                block = keys.take(idx)
                squared = _w2_squared_rows(vals, keys[own], atoms[own], block, atoms, first, last)
                with np.errstate(over="ignore"):  # W2 past float max: inf, affinity 0
                    total[a, lo:hi] += np.sqrt(squared) * scale
    upper = np.triu_indices(n, 1)
    values = np.ones((n, n))
    similarity = np.exp(-total[upper] / dim)
    values[order[upper[0]], order[upper[1]]] = values[order[upper[1]], order[upper[0]]] = similarity
    return AffinityMatrix(values)


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
    beta = _integer(beta, "beta")
    cps = np.array(sorted(int(cp) for cp in change_points), dtype=int)
    T = len(series)
    if cps.size and (cps[0] <= 0 or cps[-1] >= T or np.any(np.diff(cps) <= 0)):
        raise ValueError("change points must be strictly increasing inside (0, T)")
    bounds = np.concatenate(([0], cps, [T]))
    n_segments = bounds.size - 1
    if n_segments == 1:
        if K != 1:
            raise ValueError("cluster count must lie between 1 and the segment count")
        return SegmentLabeling(change_points=cps, labels=np.zeros(1, dtype=int), K=1)
    segments = [
        segment_distribution(series, int(bounds[i]), int(bounds[i + 1]), beta)
        for i in range(n_segments)
    ]
    labels = spectral_cluster(affinity_matrix(segments), K, seed)
    return SegmentLabeling(change_points=cps, labels=labels, K=K)
