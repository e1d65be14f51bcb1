"""Finite metric spaces and ground cost matrices.

A space is a list of labelled points with a validated distance matrix; the
only costs built here are powers d^p of the distance, which carry a trivial
(zero, zero) additive lower bound since distances are nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .numerics import (
    INF,
    DataError,
    ParameterError,
    ShapeError,
    check_extended_matrix,
    default_tol,
    infer_mode,
    is_inf,
)


def validate_metric(dist, tol=0):
    """Check the three metric axioms, returning a report of violations.

    Each violation is a (axiom, indices, magnitude) tuple, where axiom is one
    of "identity", "symmetry", "triangle".  Empty report == valid metric.
    The triangle scan is the full O(n^3) loop; spaces here are small.
    """
    n = len(dist)
    for row in dist:
        if len(row) != n:
            raise ShapeError(f"distance matrix is not square: {len(row)} != {n}")
        for x in row:
            if isinstance(x, float) and math.isnan(x):
                raise DataError("NaN entry in distance matrix")
            if is_inf(x):
                raise DataError("infinite entry in distance matrix")
    report = []
    for i in range(n):
        if abs(dist[i][i]) > tol:
            report.append(("identity", (i, i), abs(dist[i][i])))
        for j in range(n):
            if i != j:
                if dist[i][j] < -tol:
                    report.append(("nonnegativity", (i, j), dist[i][j]))
                elif abs(dist[i][j]) <= tol:
                    report.append(("identity", (i, j), dist[i][j]))
            if j > i and abs(dist[i][j] - dist[j][i]) > tol:
                report.append(("symmetry", (i, j), abs(dist[i][j] - dist[j][i])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gap = dist[i][k] - dist[i][j] - dist[j][k]
                if gap > tol:
                    report.append(("triangle", (i, j, k), gap))
    return report


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Ground set with a distance matrix satisfying the metric axioms."""

    labels: tuple
    dist: tuple  # tuple of row tuples
    tol: float = 0

    def __post_init__(self):
        dist = tuple(tuple(row) for row in self.dist)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(dist):
            raise ShapeError("labels and distance matrix sizes differ")
        report = validate_metric(dist, self.tol)
        if report:
            axiom, idx, mag = report[0]
            raise DataError(
                f"not a metric: {axiom} violated at {idx} (magnitude {mag}); "
                f"{len(report)} violation(s) total"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    def min_positive_distance(self):
        return min(
            self.dist[i][j]
            for i in range(self.n)
            for j in range(self.n)
            if self.dist[i][j] > 0
        )

    def power_cost(self, p=1) -> "CostMatrix":
        """Ground cost d^p with the zero lower-bound pair attached."""
        if is_inf(p):
            raise ParameterError("p = inf is not supported")
        if p < 1:
            raise ParameterError(f"p must be >= 1, got {p}")
        if p == 1:
            cost = self.dist
        elif isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
            k = int(p)
            cost = tuple(tuple(d**k for d in row) for row in self.dist)
        else:
            cost = tuple(tuple(float(d) ** float(p) for d in row) for row in self.dist)
        zero = (0,) * self.n
        return CostMatrix(cost, lower_bound=(zero, zero))


def from_point_cloud(points, norm_order=2, labels=None) -> FiniteMetricSpace:
    """Build a space from vectors under the l^p norm (p in [1, inf])."""
    if not points:
        raise ShapeError("empty point cloud")
    dim = len(points[0])
    for pt in points:
        if len(pt) != dim:
            raise ShapeError("points have mismatched dimensions")
    n = len(points)

    def d(x, y):
        diffs = [abs(a - b) for a, b in zip(x, y)]
        if is_inf(norm_order):
            return max(diffs)
        if norm_order == 1:
            return sum(diffs)
        return sum(float(v) ** norm_order for v in diffs) ** (1.0 / norm_order)

    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = d(points[i], points[j])
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    mode = infer_mode(chain(*dist))
    return FiniteMetricSpace(labels, tuple(map(tuple, dist)), tol=default_tol(mode))


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise transport costs; entries may be +inf (forbidden moves).

    An optional additive lower-bound pair (a1, a2) certifies
    cost[i][j] >= a1[i] + a2[j] on finite entries.
    """

    cost: tuple
    lower_bound: tuple = None
    tol: float = field(default=0, compare=False)

    def __post_init__(self):
        cost = tuple(map(tuple, self.cost))
        object.__setattr__(self, "cost", cost)
        m = len(cost[0]) if cost else 0
        if cost and set(map(len, cost)) != {m}:
            raise ShapeError("cost matrix is not rectangular")
        check_extended_matrix(cost, "cost entry")
        if self.lower_bound is not None:
            a1, a2 = self.lower_bound
            a1, a2 = tuple(a1), tuple(a2)
            object.__setattr__(self, "lower_bound", (a1, a2))
            if len(a1) != len(cost) or len(a2) != m:
                raise ShapeError("lower-bound vectors do not match cost shape")
            for i, row in enumerate(cost):
                for j, c in enumerate(row):
                    if c < a1[i] + a2[j] - self.tol:
                        raise DataError(
                            f"cost[{i}][{j}] = {c} below lower bound "
                            f"{a1[i]} + {a2[j]}"
                        )

    @property
    def shape(self):
        return (len(self.cost), len(self.cost[0]) if self.cost else 0)

    def max_abs_finite(self):
        vals = [abs(c) for row in self.cost for c in row if not is_inf(c)]
        return max(vals) if vals else 0
