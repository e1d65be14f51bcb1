"""Seeded random fixtures for the verification suites and oracle checks.

Rational fixtures come from integer draws (weights normalized by their
sum, costs as small integers, metric matrices by min-plus closure of a
random positive symmetric matrix), so every exact identity stays exact.
Float fixtures are planar point clouds under the Euclidean distance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coupling import TransportPlan
from .measure import DiscreteMeasure
from .numerics import RATIONAL, DomainError, mode_of
from .space import FiniteMetricSpace, from_point_cloud


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)


def _check_size(n):
    if n < 1:
        raise DomainError(f"a measure needs at least one point, got n={n}")


def random_rational_measure(rng, n, max_weight=10) -> DiscreteMeasure:
    _check_size(n)
    while True:
        raw = [rng.randint(0, max_weight) for _ in range(n)]
        total = sum(raw)
        if total > 0:
            return DiscreteMeasure(tuple(Fraction(w, total) for w in raw))


def random_positive_rational_measure(rng, n, max_weight=10) -> DiscreteMeasure:
    _check_size(n)
    raw = [rng.randint(1, max_weight) for _ in range(n)]
    total = sum(raw)
    return DiscreteMeasure(tuple(Fraction(w, total) for w in raw))


def random_cost(rng, n, m, low=0, high=20):
    return tuple(tuple(Fraction(rng.randint(low, high)) for _ in range(m)) for _ in range(n))


def random_rational_metric_space(rng, n, high=20) -> FiniteMetricSpace:
    """Random integer metric: min-plus closure of positive symmetric weights."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, high)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    labels = tuple(str(i) for i in range(n))
    return FiniteMetricSpace(labels, tuple(tuple(Fraction(x) for x in row) for row in d))


def random_point_cloud_space(rng, n, dim=2, scale=10.0) -> FiniteMetricSpace:
    pts = [[rng.random() * scale for _ in range(dim)] for _ in range(n)]
    # nudge duplicates apart; identical points would break the identity axiom
    for i in range(n):
        pts[i][0] += i * 1e-9
    return from_point_cloud(pts, norm_order=2)


def random_vertex_coupling(rng, mu1, mu2) -> TransportPlan:
    """A random vertex of the polytope: north-west corner on shuffled axes."""
    n, m = mu1.n, mu2.n
    rows = list(range(n))
    cols = list(range(m))
    rng.shuffle(rows)
    rng.shuffle(cols)
    supply = list(mu1.weights)
    demand = list(mu2.weights)
    mat = [[0 * mu1.weights[0]] * m for _ in range(n)]
    mat = [list(row) for row in mat]
    ri = ci = 0
    while ri < n and ci < m:
        i, j = rows[ri], cols[ci]
        q = min(supply[i], demand[j])
        mat[i][j] += q
        supply[i] -= q
        demand[j] -= q
        if supply[i] == 0 and ri < n - 1:
            ri += 1
        elif demand[j] == 0 and ci < m - 1:
            ci += 1
        elif supply[i] == 0 and demand[j] == 0:
            break
        elif supply[i] == 0:
            ri += 1
        else:
            ci += 1
    return TransportPlan(tuple(map(tuple, mat)), mu1, mu2)


def random_coupling(rng, mu1, mu2, mixture=3) -> TransportPlan:
    """Convex combination of random vertices (plus the product plan)."""
    from .coupling import product_coupling

    parts = [random_vertex_coupling(rng, mu1, mu2) for _ in range(mixture)]
    parts.append(product_coupling(mu1, mu2))
    exact = mode_of(mu1, mu2) == RATIONAL
    raw = [rng.randint(1, 10) for _ in parts]
    total = sum(raw)
    if exact:
        lam = [Fraction(x, total) for x in raw]
    else:
        lam = [x / total for x in raw]
    n, m = mu1.n, mu2.n
    mat = [
        [sum(l * p.matrix[i][j] for l, p in zip(lam, parts)) for j in range(m)]
        for i in range(n)
    ]
    return TransportPlan(tuple(map(tuple, mat)), mu1, mu2)
