"""Shared test oracles: exact two-sample statistic, LP transport, exhaustive
assignment, adjusted Rand."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


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
