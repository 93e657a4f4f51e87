"""Small dense kernels: symmetric eigendecomposition, k-means, assignment.

The matrices these routines see are small (segment counts, cluster counts), so
the implementations favor determinism and testability over scalability: every
tie has a documented break (eigenvector signs included), and identical inputs
always produce identical outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .simgen import _integer

__all__ = ["eigh_symmetric", "kmeans", "hungarian"]

_SYM_TOL = 1e-12
_MAX_LLOYD_ITERATIONS = 300
_KMEANS_RESTARTS = 10


def eigh_symmetric(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK, via ``np.linalg.eigh``).

    Parameters
    ----------
    matrix : (n, n) array-like, symmetric to 1e-12.

    Returns
    -------
    eigenvalues : (n,) ascending.
    eigenvectors : (n, n) orthonormal columns aligned with the eigenvalues;
        each column's first entry with magnitude above 1e-12 is made positive
        so downstream consumers see a reproducible basis.

    A NumericalError is raised if LAPACK does not converge.
    """
    A = np.array(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("matrix must be square and nonempty")
    if float(np.abs(A - A.T).max()) > _SYM_TOL:
        raise ValueError("matrix is not symmetric")
    try:
        eigenvalues, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError:
        raise NumericalError("eigendecomposition did not converge") from None
    leading = (np.abs(V) > 1e-12).argmax(axis=0)
    V *= np.where(V[leading, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)
    return eigenvalues, V


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = points[idx]
    chosen = {idx}
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining mass sits on already-chosen points (duplicates)
            idx = min(i for i in range(n) if i not in chosen)
        chosen.add(idx)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray):
    n = points.shape[0]
    k = centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(_MAX_LLOYD_ITERATIONS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_labels]
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                # revive an emptied cluster with the currently worst-fit point
                far = int(np.argmax(point_d2))
                centers[c] = points[far]
                new_labels[far] = c
                point_d2[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, inertia


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means: ++ seeding, Lloyd to a fixpoint, best of ten restarts.

    All randomness flows from one generator seeded with ``seed``; the restart
    with the lowest within-cluster sum of squares wins, earliest restart on a
    tie.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    k = _integer(k, "k", 1)
    if k > n:
        raise ValueError("more clusters than points")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    best_labels = None
    best_inertia = np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _plus_plus_init(pts, k, rng)
        labels, inertia = _lloyd(pts, centers)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels


def _assignment_cost(cost: np.ndarray) -> float:
    """Minimum total cost of a perfect assignment (potentials method)."""
    n = cost.shape[0]
    INF = np.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row currently matched to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
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
    return float(sum(cost[p[j] - 1, j - 1] for j in range(1, n + 1)))


def hungarian(cost) -> list[int]:
    """Minimum-cost one-to-one assignment on a square cost matrix.

    Returns ``perm`` with row i assigned to column perm[i]. Among all
    minimum-cost assignments the lexicographically smallest permutation is
    returned, which pins down the result when costs tie.
    """
    C = np.array(cost, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] == 0:
        raise ValueError("cost matrix must be square and nonempty")
    if not np.all(np.isfinite(C)):
        raise ValueError("non-finite cost entry")
    n = C.shape[0]
    best_total = _assignment_cost(C)
    tol = 1e-9 * max(1.0, abs(best_total))

    cols = list(range(n))
    perm: list[int] = []
    prefix = 0.0
    for row in range(n):
        for pos, col in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1 :]
            if row + 1 < n:
                tail = _assignment_cost(C[np.ix_(range(row + 1, n), rest)])
            else:
                tail = 0.0
            if prefix + C[row, col] + tail <= best_total + tol:
                perm.append(col)
                cols = rest
                prefix += C[row, col]
                break
        else:  # pragma: no cover - some column always completes an optimum
            raise NumericalError("assignment refinement failed")
    return perm
