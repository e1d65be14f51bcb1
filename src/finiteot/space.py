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

import numpy as np

from .numerics import (
    INF,
    DataError,
    ParameterError,
    ShapeError,
    default_tol,
    extended_array,
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
    # power_cost's CostMatrix per (type(p), p): 2, 2.0 and Fraction(2) are
    # equal keys, but 2.0 gives float costs and the others int costs
    _power_costs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Ground cost d^p with the zero lower-bound pair attached.

        The space is frozen, so the matrix is built once per p and kept.
        """
        key = (type(p), p)
        if key not in self._power_costs:
            self._power_costs[key] = self._build_power_cost(p)
        return self._power_costs[key]

    def _build_power_cost(self, p):
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

    The numeric mode is decided once, here, mostly by a dtype test (see
    numerics.extended_array), and array holds the costs, read-only, in that
    mode's arithmetic: float64 in float mode; int64, bool, or an object
    array of the exact cells and +inf in rational mode.  cost is the tuple
    of row tuples: the input itself when it is one, built from the rows of
    any other sequence, and from array on first use when the input is an
    ndarray, whose cells then come back as Python numbers.

    has_inf records whether a cell is +inf.  max_abs_finite() returns the
    largest |cost| over the finite cells, recorded at construction: from
    the bounds that extended_array's check has reduced, with one more
    reduction when a cell is +inf.  An object array (exact cells, in which
    +inf is the only float) is told by the types of its cells, and scanned
    for max_abs_finite() when that is asked for.
    """

    cost: tuple
    lower_bound: tuple = None
    tol: float = field(default=0, compare=False)

    def __post_init__(self):
        cost = self.cost
        if isinstance(cost, np.ndarray):
            vars(self).pop("cost")  # built from the array when asked for
        else:
            cost = tuple(map(tuple, cost))
            object.__setattr__(self, "cost", cost)
            m = len(cost[0]) if cost else 0
            if cost and set(map(len, cost)) != {m}:
                raise ShapeError("cost matrix is not rectangular")
        array, mode, bounds = extended_array(cost, "cost")
        if bounds is None:  # an object or empty array
            kinds = set(map(type, array.ravel().tolist()))
            has_inf, top = any(issubclass(kind, float) for kind in kinds), None
        else:
            lo, hi = bounds
            has_inf = hi == INF
            if has_inf:
                top = np.maximum.reduce(
                    np.abs(array), axis=None, where=array != INF, initial=0
                ).item()
            else:
                top = max(abs(lo), abs(hi))
        vars(self).update(array=array, mode=mode, has_inf=has_inf, _max_abs_finite=top)
        if self.lower_bound is not None:
            a1, a2 = self.lower_bound
            a1, a2 = tuple(a1), tuple(a2)
            object.__setattr__(self, "lower_bound", (a1, a2))
            if len(a1) != len(array) or len(a2) != array.shape[1]:
                raise ShapeError("lower-bound vectors do not match cost shape")
            # c < a1[i] + a2[j] - tol in Python arithmetic, cell by cell in C
            bound = np.add.outer(np.array(a1, dtype=object), np.array(a2, dtype=object))
            below = np.less(array, bound - self.tol).nonzero()
            if below[0].size:
                i, j = below[0].item(0), below[1].item(0)
                raise DataError(
                    f"cost[{i}][{j}] = {self.cost[i][j]} below lower bound "
                    f"{a1[i]} + {a2[j]}"
                )

    def __getattr__(self, name):
        # only a matrix built from an ndarray lacks cost, until it is asked for
        if name != "cost" or "array" not in vars(self):
            raise AttributeError(name)
        cost = tuple(map(tuple, self.array.tolist()))
        object.__setattr__(self, "cost", cost)
        return cost

    @property
    def shape(self):
        return self.array.shape

    def max_abs_finite(self):
        """The largest |cost| over the finite cells, 0 when there is none."""
        if self._max_abs_finite is None:  # an object array
            return max((abs(c) for c in self.array.ravel().tolist() if c != INF), default=0)
        return self._max_abs_finite
