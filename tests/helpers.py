"""Shared test oracles: exact two-sample statistic, LP transport, exhaustive
assignment (in floats and exactly), adjusted Rand, one-stream draws,
member-by-member filter calibration, the tap-order filter sum, all-pairs change
point matching and restart-by-restart k-means."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from wcpd.cpd import _derive_seed, _taps_from_signature, sliding_statistic
from wcpd.empirical import NULL
from wcpd.simgen import SeriesSpec, generate


def exact_w2t(x, y) -> Fraction:
    """Two-sample statistic of sorted samples x and y in exact rational arithmetic.

    On (j/n, (j+1)/n] the composed CDF is the constant c_j/m, c_j = #x <= y_j,
    and each piece of the squared gap integrates to a difference of cubes.
    """
    m, n = len(x), len(y)
    if m == n and np.array_equal(x, y):
        return Fraction(0)
    total = Fraction(0)
    for j, c in enumerate(np.searchsorted(x, y, side="right").tolist()):
        k = Fraction(c, m)
        total += (k - Fraction(j, n)) ** 3 - (k - Fraction(j + 1, n)) ** 3
    return Fraction(m * n, m + n) * total / 3


def lp_wasserstein2(a, b) -> float:
    """Brute-force transport oracle: solve the coupling LP and take the root."""
    xa, wa = a.support, a.weights
    xb, wb = b.support, b.weights
    n, m = xa.size, xb.size
    cost = ((xa[:, None] - xb[None, :]) ** 2).ravel()
    # row-sum and column-sum marginal constraints on the coupling
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([wa, wb])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return math.sqrt(max(res.fun, 0.0))


def brute_force_assignment(cost: np.ndarray) -> tuple[list[int], float]:
    """First minimum-cost permutation in lexicographic enumeration order."""
    n = cost.shape[0]
    best_perm = None
    best_total = math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best_total:
            best_total = total
            best_perm = list(perm)
    return best_perm, best_total


def exact_assignment(cost) -> list[int]:
    """First permutation of least exact cost, summing each float as a Fraction."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(cost, dtype=float).tolist()]
    totals = (
        (sum(row[j] for row, j in zip(rows, perm)), perm)
        for perm in itertools.permutations(range(len(rows)))
    )
    # min keeps the first of equal totals, so the lexicographically smallest
    return list(min(totals, key=lambda total_perm: total_perm[0])[1])


def adjusted_rand(labels_a, labels_b) -> float:
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    assert a.size == b.size
    classes_a = np.unique(a)
    classes_b = np.unique(b)
    table = np.zeros((classes_a.size, classes_b.size))
    for i, ca in enumerate(classes_a):
        for j, cb in enumerate(classes_b):
            table[i, j] = np.sum((a == ca) & (b == cb))

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(a.size)
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def one_stream_draw(spec, n, entropy) -> np.ndarray:
    """n draws of the spec from the one PCG64 stream of entropy, transformed alone."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    if spec.family == "normal":
        pairs = (n + 1) // 2
        u = rng.random(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))
        angle = 2.0 * np.pi * u[pairs:]
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        z = z[:n]
    else:
        centered = rng.random(n) - 0.5
        z = -np.sign(centered) * np.log(np.maximum(1.0 - 2.0 * np.abs(centered), 2.0**-60))
    return spec.location + spec.scale * z


def member_by_member_filter(beta, ensemble_size, change_pairs, seed):
    """(taps, gamma) of a calibration that simulates and scans one member at a time."""
    accum = np.zeros(2 * beta + 1)
    for pair_index, (before, after) in enumerate(change_pairs):
        for member in range(ensemble_size):
            series = generate(SeriesSpec(
                segments=((before, 2 * beta), (after, 2 * beta + 1)),
                seed=_derive_seed(seed, pair_index, member),
            ))
            accum += sliding_statistic(series, beta).values[beta : 3 * beta + 1]
    return _taps_from_signature(accum / (len(change_pairs) * ensemble_size))


def tap_order_filter(values, taps, beta) -> list:
    """apply_filter in plain Python floats: index t sums rev[k] * w[k], k = 0..2*beta,
    over its window w, with the warm-up NaNs padded by the null mean."""
    padded = [NULL.null_mean if math.isnan(v) else v for v in values]
    rev = list(taps)[::-1]
    out = [math.nan] * len(padded)
    for t in range(beta, len(padded) - beta):
        s = 0.0
        for k in range(2 * beta + 1):
            s += rev[k] * padded[t - beta + k]
        out[t] = s
    return out


def all_pairs_cp_f1(predicted, truth, delta) -> tuple[float, float, float]:
    """cp_f1 with each truth, in order, checking every prediction (earlier wins a tie)."""
    preds = sorted(predicted)
    truths = sorted(truth)
    used = [False] * len(preds)
    matches = 0
    for t in truths:
        best = None  # (distance, position)
        for pos, p in enumerate(preds):
            if used[pos]:
                continue
            distance = abs(p - t)
            if distance > delta:
                continue
            if best is None or distance < best[0]:
                best = (distance, pos)
        if best is not None:
            used[best[1]] = True
            matches += 1
    precision = 1.0 if not preds else matches / len(preds)
    recall = 1.0 if not truths else matches / len(truths)
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def sequential_plus_plus_init(points, k, rng):
    """k-means++ centres of one restart, drawing from rng as it goes."""
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
            rng.random()
            idx = min(i for i in range(n) if i not in chosen)
        chosen.add(idx)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def sequential_lloyd(points, centers):
    """Lloyd's iterations of one restart, cluster by cluster: (labels, inertia, revived),
    revived counting the emptied clusters given the worst-fit point."""
    n = points.shape[0]
    k = centers.shape[0]
    labels = np.full(n, -1)
    revived = 0
    for _ in range(300):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_labels]
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(point_d2))
                centers[c] = points[far]
                new_labels[far] = c
                point_d2[far] = 0.0
                revived += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, inertia, revived


def sequential_kmeans(points, k, seed):
    """kmeans with its ten restarts run one after another: ++ seeding, then Lloyd, per restart."""
    pts = np.array(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    rng = np.random.default_rng(seed)
    best_labels = None
    best_inertia = np.inf
    for _ in range(10):
        labels, inertia, _ = sequential_lloyd(pts, sequential_plus_plus_init(pts, k, rng))
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels
