"""Finite metric spaces and ground cost matrices.

A space is a list of labelled points with a validated distance matrix, read
once into the CostMatrix that power_cost(1) returns.  Every check of the
distances decides on that matrix's array (_decision), and builds what it
reports from the matrix's cells, the given numbers with each numpy scalar
read as the Python number it equals, so each value keeps its float bits.
The other costs built here are the powers d^p, cell by cell in Python;
each carries the (zero, zero) lower bound of a nonnegative cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .numerics import (
    FLOAT,
    INF,
    RATIONAL,
    DataError,
    ParameterError,
    ShapeError,
    _floor,
    check_tol,
    extended_array,
    is_inf,
    mode_of,
    number_kind,
    python_numbers,
    scaled_ints,
)


def validate_metric(dist, tol=None):
    """Check the three metric axioms within numerics.check_tol(tol) of the
    distances' mode, scaled by the largest |distance|, returning a report
    of violations.

    Each violation is a (axiom, indices, magnitude) tuple, where axiom is one
    of "identity", "nonnegativity", "symmetry", "triangle".  Empty report ==
    valid metric.  Each axiom is one test on the whole array, the triangle
    inequality one (n, n) test per middle point, in the order of a scan of
    the cells: row by row, then the triangles by (i, j, k).
    """
    return _validated(dist, tol)[1]


def _validated(dist, tol):
    """(dist read into a CostMatrix, validate_metric's report)."""
    if not isinstance(dist, np.ndarray):  # an ndarray's cost is read by tolist()
        dist = tuple(map(python_numbers, dist))
    n = len(dist)
    width = next((k for k in map(len, dist) if k != n), n)
    if width != n:
        raise ShapeError(f"distance matrix is not square: {width} != {n}")
    try:
        matrix = CostMatrix(dist)
        bad = "infinite" if matrix.has_inf else None
    except DataError as exc:  # a NaN or -inf cell
        bad = "NaN" if str(exc).startswith("NaN") else "infinite"
    if bad:
        raise DataError(f"{bad} entry in distance matrix")
    tol = check_tol(tol, matrix.mode, matrix.max_abs_finite)
    d = matrix.cost
    D, _, t, _ = _decision(matrix, [], lambda cell, number, t, scale: 3 * cell, tol)
    off = ~np.eye(n, dtype=bool)
    negative = off & (D < -t)
    zero, asymmetric = off & ~negative & (abs(D) <= t), np.triu(abs(D - D.T) > t, 1)
    # (sort key, entry): the diagonal first in its row, symmetry after its cell
    found = [((i, -1), "identity", (i, i), abs(d[i][i])) for (i,) in _cells(abs(D.diagonal()) > t)]
    found += [((i, j), "nonnegativity", (i, j), d[i][j]) for i, j in _cells(negative)]
    found += [((i, j), "identity", (i, j), d[i][j]) for i, j in _cells(zero)]
    found += [((i, j, 1), "symmetry", (i, j), abs(d[i][j] - d[j][i])) for i, j in _cells(asymmetric)]
    for j in range(n):
        gaps = D - D[:, j, None]
        gaps -= D[j]  # in place: one (n, n) array per middle point
        found += [
            ((n + i, j, k), "triangle", (i, j, k), d[i][k] - d[i][j] - d[j][k])
            for i, k in _cells(gaps > t)
        ]
    return matrix, [entry[1:] for entry in sorted(found, key=lambda entry: entry[0])]


def _decision(matrix, numbers, size, tol=0):
    """(D, X, t, scale): the matrix's cells, the numbers and tol as arrays on
    which sums, differences and comparisons decide as Python's do on the
    given numbers, for a caller that reads indices, not values, off them.

    Exact data become integers over one scale L, and tol floor(tol * L):
    int64 while size(largest |cell|, largest |number|, t, L), the caller's
    bound on what it computes, is below 2^63, else Python ints.  Any other
    data stay as given, in object arrays, with scale None.
    """
    scaled = scaled_ints(numbers, exact=True) if matrix.mode == RATIONAL else None
    if scaled is not None:
        D, s = matrix._scaled_costs
        ints, scale = scaled
        L = math.lcm(s, scale)
        D = D if L == s else D.astype(object) * (L // s)
        X, t = np.array([x * (L // scale) for x in ints], dtype=object), _floor(tol, L)
        largest = [max(-int(A.min(initial=0)), int(A.max(initial=0))) for A in (D, X)]
        dtype = np.int64 if size(*largest, t, L) < 2**63 else object
        return D.astype(dtype, copy=False), X.astype(dtype), t, L
    D = np.array(matrix.cost, dtype=object).reshape(matrix.shape)
    return D, np.array(numbers, dtype=object), tol, None


def _cells(mask):
    """The indices of mask's true cells, as tuples of ints in row-major order."""
    if not mask.any():  # much cheaper than nonzero() on a passing test
        return ()
    return zip(*(index.tolist() for index in mask.nonzero()))


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Ground set with a distance matrix satisfying the metric axioms.

    dist is the cost of the space's CostMatrix, of Python numbers however
    it is given (a numpy scalar is the number it equals, an ndarray is read
    by tolist()); tol None checks the axioms within the mode's default,
    scaled by the largest |distance| (validate_metric)."""

    labels: tuple
    dist: tuple  # tuple of row tuples
    tol: float = None
    # power_cost's CostMatrix per (type(p), p): 2, 2.0 and Fraction(2) are
    # equal keys, but 2.0 gives float costs and the others int costs
    _power_costs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.dist):
            raise ShapeError("labels and distance matrix sizes differ")
        matrix, report = _validated(self.dist, self.tol)
        if report:
            axiom, idx, mag = report[0]
            raise DataError(
                f"not a metric: {axiom} violated at {idx} (magnitude {mag}); "
                f"{len(report)} violation(s) total"
            )
        vars(self).update(dist=matrix.cost, _matrix=matrix)

    @property
    def n(self) -> int:
        return len(self.labels)

    def min_positive_distance(self):
        """The least positive distance, the first such cell in row-major
        order; +inf, the infimum of the empty set, when no two points exist."""
        D = _decision(self._matrix, [], lambda cell, number, t, scale: cell)[0]
        (cells,) = np.nonzero(D.ravel() > 0)
        if not cells.size:
            return INF
        i, j = divmod(cells.item(np.argmin(D.ravel()[cells])), self.n)
        return self.dist[i][j]

    def power_cost(self, p=1) -> "CostMatrix":
        """Ground cost d^p with the zero lower-bound pair attached.

        The space is frozen, so the matrix is built once per p and kept;
        for p == 1 it is the space's own matrix.
        """
        key = (type(p), p)
        if key not in self._power_costs:
            self._power_costs[key] = self._build_power_cost(p)
        return self._power_costs[key]

    def _build_power_cost(self, p):
        if is_inf(p):
            raise ParameterError("p = inf is not supported")
        if not p >= 1:  # a NaN fails too
            raise ParameterError(f"order p must be >= 1, got {p}")
        zero = (0,) * self.n
        if p == 1:
            return self._matrix._attach((zero, zero))
        if isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
            k = int(p)
            cost = tuple(tuple(d**k for d in row) for row in self.dist)
        else:
            cost = tuple(tuple(float(d) ** float(p) for d in row) for row in self.dist)
        return CostMatrix(cost, lower_bound=(zero, zero))


def from_point_cloud(points, norm_order=2, labels=None) -> FiniteMetricSpace:
    """Build a space from vectors under the l^p norm (p in [1, inf])."""
    if not (isinstance(norm_order, (int, float, Fraction)) and norm_order >= 1):
        raise ParameterError(f"norm order must be a number >= 1 or inf, got {norm_order!r}")
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
        # d(x, x) is 0.0 in a float cloud, whose rows then pack as doubles
        dist[i][i] = d(points[i], points[i])
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = d(points[i], points[j])
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return FiniteMetricSpace(labels, tuple(map(tuple, dist)))


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise transport costs; entries may be +inf (forbidden moves).

    An optional additive lower-bound pair (a1, a2) certifies
    cost[i][j] >= a1[i] + a2[j] on finite entries, within
    numerics.check_tol(tol) of mode_of(matrix, a1, a2), scaled by the
    largest |finite cost|.

    The numeric mode is decided once, here, by numerics.extended_array:
    rows whose first cell other than +inf is a finite float or an integer
    are packed with one struct call per row into float64 or int64, when
    every cell packs, and any other cost is decided by one scan of its
    cells' types; a str or bytes cell is refused.  array holds the costs,
    read-only, in that mode's arithmetic: float64 in float mode; int64, or
    an object array of the exact cells and +inf as Python numbers, in
    rational mode.  _scaled_costs is their exact format, integers over a
    scale, built on first use.  cost is
    the tuple of row tuples: the input itself when it is one, built from
    the rows of any other sequence, and from array on first use when the
    input is an ndarray, whose cells then come back as Python numbers.
    has_inf records whether a cell is +inf, and max_abs_finite() returns
    the largest |cost| over the finite cells: recorded at construction
    from extended_array's bounds when no cell is +inf, else found on first
    use (from _scaled_costs' ints on an object array), as _float_costs
    (array itself when float64) is, and kept.  It is
    read by a rational solve's int64 fit (solver._exact_input), never by a
    float solve, and by the float-mode default tolerance of the checks on
    costs and distances (numerics.check_tol).
    """

    cost: tuple
    lower_bound: tuple = None
    tol: float = field(default=None, compare=False)

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
        top = None  # found on first use
        if bounds is None:  # an object or empty array
            kinds = set(map(type, array.ravel().tolist()))
            has_inf = any(number_kind(kind) == 2 for kind in kinds)
        else:
            lo, hi = bounds
            has_inf = hi == INF
            if not has_inf:
                top = max(abs(lo), abs(hi))
        vars(self).update(array=array, mode=mode, has_inf=has_inf, _max_abs_finite=top)
        if array.dtype == np.int64:  # already in the exact format
            vars(self)["_scaled_costs"] = array, 1
        elif array.dtype == np.float64:  # already float64
            vars(self)["_float_costs"] = array
        if self.lower_bound is not None:
            self._attach(self.lower_bound)

    def _attach(self, lower_bound):
        """Check the pair (a1, a2) against the finite costs, and make it this
        matrix's lower_bound; returns the matrix."""
        a1, a2 = map(tuple, lower_bound)
        array = self.array
        if len(a1) != len(array) or len(a2) != array.shape[1]:
            raise ShapeError("lower-bound vectors do not match cost shape")
        # c < a1[i] + a2[j] - tol in Python arithmetic, cell by cell in C
        bound = np.add.outer(np.array(a1, dtype=object), np.array(a2, dtype=object))
        tol = check_tol(self.tol, mode_of(self, a1, a2), self.max_abs_finite)
        below = np.less(array, bound - tol).nonzero()
        if below[0].size:
            i, j = below[0].item(0), below[1].item(0)
            raise DataError(
                f"cost[{i}][{j}] = {self.cost[i][j]} below lower bound "
                f"{a1[i]} + {a2[j]}"
            )
        object.__setattr__(self, "lower_bound", (a1, a2))
        return self

    @cached_property
    def _scaled_costs(self):
        """(C, scale), the one exact format of the costs, built on first use
        (a float solve never builds it): int64 with scale 1 from an int64
        array (set at construction), else Python ints over the least common
        multiple of the finite cells' denominators, and +inf.  A consumer
        computes in int64 only under a bound that rules out overflow."""
        # a float-mode matrix holds float64: read its cells as they were given
        C = np.array(self.cost, dtype=object) if self.mode == FLOAT else self.array.astype(object)
        finite = C != INF if self.has_inf else np.ones(C.shape, dtype=bool)
        costs, scale = scaled_ints(C[finite].tolist())
        C[finite] = costs
        C.flags.writeable = False
        return C, scale

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

    @cached_property
    def _float_costs(self):
        """The costs as a read-only float64 array, exact ones rounded as float() rounds them."""
        C = self.array.astype(np.float64)
        C.flags.writeable = False
        return C

    def max_abs_finite(self):
        """The largest |cost| over the finite cells, 0 when there is none."""
        top, A = self._max_abs_finite, self.array
        if top is None:  # found once
            if A.dtype == object:  # a scan of the exact format's ints, not of Fractions
                C, scale = self._scaled_costs
                top = max((abs(c) for c in C.ravel().tolist() if c != INF), default=0)
                top = top if scale == 1 else Fraction(top, scale)
            else:  # float64 with +inf cells
                top = np.maximum.reduce(np.abs(A), axis=None, where=A != INF, initial=0).item()
            vars(self)["_max_abs_finite"] = top
        return top
