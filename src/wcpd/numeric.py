"""Small dense kernels: symmetric eigendecomposition, k-means, assignment.

The matrices these routines see are small (segment counts, cluster counts), so
the implementations favor determinism and testability over scalability: every
tie has a documented break, and identical inputs always produce identical
outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .series import _integer, _reals

__all__ = ["eigh_symmetric", "kmeans", "hungarian"]

_SYM_TOL = 1e-12
_MAX_LLOYD_ITERATIONS = 300
_KMEANS_RESTARTS = 10


def eigh_symmetric(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK, via ``np.linalg.eigh``).

    Parameters
    ----------
    matrix : (n, n) array-like of finite reals, symmetric to 1e-12.

    Returns
    -------
    eigenvalues : (n,) ascending.
    eigenvectors : (n, n) orthonormal columns aligned with the eigenvalues,
        each with the sign LAPACK gives it.

    A NumericalError is raised if LAPACK does not converge.
    """
    A = _reals(matrix, "matrix", "matrix entry")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("matrix must be square and nonempty")
    if float(np.abs(A - A.T).max()) > _SYM_TOL:
        raise ValueError("matrix is not symmetric")
    try:
        eigenvalues, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError:
        raise NumericalError("eigendecomposition did not converge") from None
    return eigenvalues, V


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """((points[:, None, :] - centers[..., None, :, :]) ** 2).sum(axis=-1), (..., n, k)."""
    squares = points[:, None, :] - centers[..., None, :, :]
    squares *= squares
    return squares.sum(axis=-1)


def _plus_plus_runs(points: np.ndarray, k: int, rng: np.random.Generator, runs: int) -> np.ndarray:
    """(runs, k, D) k-means++ centres of runs restarts on rng (Arthur & Vassilvitskii).

    The generator calls come first, in the order restarts seeded one after
    another make them: one integers(n) and k - 1 uniforms each, the one
    uniform Generator.choice draws per centre. Each later centre is then
    picked for all runs at once by choice's own rule: the count of cdf <= u,
    with cdf the cumulative sum of d2 / total divided by its last entry. A run
    with no mass left (duplicate points, or squared gaps that underflow) puts
    all of it on its lowest unchosen point, which that rule then picks.
    Squared gaps that overflow raise ValueError.
    """
    n = points.shape[0]
    chosen = np.empty((runs, k), dtype=np.intp)
    uniforms = np.empty((runs, k - 1))
    for r in range(runs):
        chosen[r, 0] = rng.integers(n)
        uniforms[r] = rng.random(k - 1)
    with np.errstate(over="ignore"):
        d2 = _squared_distances(points, points[chosen[:, :1]])[..., 0]
        # a later step only lowers d2, or gives a run with no mass a 1: one check serves every k
        if not np.isfinite(d2.sum(axis=1)).all():
            raise ValueError("squared gaps between points overflow")
        for c in range(1, k):
            total = d2.sum(axis=1, keepdims=True)
            for r in np.flatnonzero(total == 0.0):
                d2[r, np.setdiff1d(np.arange(n), chosen[r, :c])[0]] = total[r] = 1.0
            cdf = np.cumsum(d2 / total, axis=1)
            cdf /= cdf[:, -1:]
            chosen[:, c] = np.count_nonzero(cdf <= uniforms[:, c - 1 : c], axis=1)
            gaps = _squared_distances(points, points[chosen[:, c : c + 1]])
            np.minimum(d2, gaps[..., 0], out=d2)
    return points[chosen]


def _update_centers(points, centers, labels, point_d2) -> None:
    """One run's centre update, cluster by cluster, reviving emptied clusters.

    An emptied cluster takes the worst-fit point, which leaves the cluster it
    came from; so the clusters after it see the moved label.
    """
    for c in range(centers.shape[0]):
        mask = labels == c
        if mask.any():
            centers[c] = points[mask].mean(axis=0)
        else:
            far = int(np.argmax(point_d2))
            centers[c] = points[far]
            labels[far] = c
            point_d2[far] = 0.0


def _lloyd_runs(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iterations from each run's (k, D) centres in centers (runs, k, D), together.

    Returns each run's labels (runs, n) and inertia (runs,), with the bits
    of iterating each run on its own with :func:`_update_centers`: distances
    of shape (runs, n, k), and centre sums added by ``np.bincount`` in point
    order, the order in which ``points[mask].mean(axis=0)`` adds them. A run
    that empties a cluster takes :func:`_update_centers` for that iteration,
    and so does every run at D = 1, where numpy sums a cluster's one column
    pairwise. Converged runs drop out. centers is updated in place.
    """
    runs, k, dim = centers.shape
    n = points.shape[0]
    labels = np.full((runs, n), -1)
    active = np.arange(runs)
    for _ in range(_MAX_LLOYD_ITERATIONS):
        d2 = _squared_distances(points, centers[active])
        new_labels = np.argmin(d2, axis=2)
        # bin e*k + c: cluster c of the e-th active run
        bins = new_labels + k * np.arange(active.size)[:, None]
        counts = np.bincount(bins.ravel(), minlength=active.size * k).reshape(-1, k)
        alone = (counts == 0).any(axis=1) | (dim == 1)
        together = np.flatnonzero(~alone)
        coords = bins[together, :, None] * dim + np.arange(dim)
        sums = np.bincount(
            coords.ravel(),
            weights=np.broadcast_to(points, coords.shape).ravel(),
            minlength=active.size * k * dim,
        ).reshape(-1, k, dim)
        centers[active[together]] = sums[together] / counts[together, :, None]
        for e in np.flatnonzero(alone):
            point_d2 = d2[e, np.arange(n), new_labels[e]]
            _update_centers(points, centers[active[e]], new_labels[e], point_d2)
        converged = (new_labels == labels[active]).all(axis=1)
        labels[active] = new_labels
        active = active[~converged]
        if not active.size:
            break
    gaps = points - centers[np.arange(runs)[:, None], labels]
    return labels, (gaps**2).reshape(runs, -1).sum(axis=1)


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means: ++ seeding, Lloyd to a fixpoint, best of ten restarts.

    All randomness flows from one generator seeded with ``seed``; the restart
    with the lowest within-cluster sum of squares wins, earliest restart on a
    tie. The restarts run together: the generator calls come first, in the
    order ten ++ seedings one after another make them, and Lloyd's iterations
    then run for all restarts at once. Labels have the bits of running the
    restarts one at a time.
    """
    pts = _reals(points, "points", "point")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    k = _integer(k, "k", 1)
    if k > n:
        raise ValueError("more clusters than points")
    seed = _integer(seed, "seed", 0)
    centers = _plus_plus_runs(pts, k, np.random.default_rng(seed), _KMEANS_RESTARTS)
    labels, inertia = _lloyd_runs(pts, centers)
    return labels[int(np.argmin(inertia))].copy()


def hungarian(cost) -> list[int]:
    """Minimum-cost one-to-one assignment on a square cost matrix, solved exactly.

    Returns ``perm`` with row i assigned to column perm[i]. Among all
    minimum-cost assignments the lexicographically smallest permutation is
    returned, which pins down the result when costs tie.

    Every finite float is an integer times a power of two, so the costs are
    scaled by their largest denominator to exact Python integers and nothing
    rounds. Each is then multiplied by n**n and given the tie-break term
    j * n**(n - 1 - i), whose sum over an assignment is perm read as a
    base-n number, below n**n: one exact O(n**3) solve of the potentials
    method (Kuhn's Hungarian method) minimizes the cost first and the
    permutation second.
    """
    C = _reals(cost, "cost matrix", "cost entry")
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] == 0:
        raise ValueError("cost matrix must be square and nonempty")
    n = C.shape[0]
    ratios = [[x.as_integer_ratio() for x in row] for row in C.tolist()]
    unit = max(den for row in ratios for _, den in row)
    scaled = [
        [num * (unit // den) * n**n + j * n ** (n - 1 - i) for j, (num, den) in enumerate(row)]
        for i, row in enumerate(ratios)
    ]
    # 1-based potentials; p[j] = row matched to column j, 0 for none
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        # np.inf is only compared with the integers, never added to them: every
        # unused column gets a finite minv in the first pass
        minv = [np.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row, ui = scaled[i0 - 1], u[i0]
            delta = np.inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    return perm
