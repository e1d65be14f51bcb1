"""Transport plans between two measures.

A plan is an n x m nonnegative matrix whose row sums are the first
measure's weights and whose column sums are the second's.  Everything here
is constructive: product plans, marginal extraction, verification both
directly and through sum-separable test functions, the sub-rectangle tail
bound, and restriction with renormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .measure import DiscreteMeasure, TestFunction, indicator, integrate
from .numerics import (
    EmptyRestrictionError,
    FLOAT,
    INF,
    RATIONAL,
    ShapeError,
    default_tol,
    extended_array,
    infer_mode,
)


@dataclass(frozen=True)
class TransportPlan:
    """Joint mass matrix coupling mu1 (rows) with mu2 (columns).

    A plan built from a matrix holds that matrix, as a tuple of row tuples.
    A plan the solver returns holds the solver's read-only array instead,
    and builds matrix from it on first use: a float64 plan gives Python
    floats; an exact one holds Python ints X over a positive scale s, and
    its cells are Fraction(x, s), or the plan's zero where x is 0.
    Equality, hashing and repr go by the matrix and the measures.
    """

    matrix: tuple
    mu1: DiscreteMeasure = None
    mu2: DiscreteMeasure = None

    #: the solver's array, and the scale and zero of an exact one (see _of_array)
    _array = _scale = _zero = None

    def __post_init__(self):
        mat = tuple(map(tuple, self.matrix))
        object.__setattr__(self, "matrix", mat)
        if not mat or not mat[0]:
            raise ShapeError("empty plan matrix")
        if set(map(len, mat)) != {len(mat[0])}:
            raise ShapeError("plan matrix is not rectangular")
        extended_array(mat, "plan")  # raises on NaN and -inf

    @classmethod
    def _of_array(cls, X, mu1=None, mu2=None, scale=None, zero=0):
        """The plan of an n x m array that has been checked already.

        X is float64, or, with scale, Python ints (an object array) whose
        cells stand for Fraction(x, scale), and zero for x = 0.  The plan
        keeps X, read-only, and builds matrix only when it is asked for.
        """
        plan = object.__new__(cls)
        X.flags.writeable = False
        for name, value in (("mu1", mu1), ("mu2", mu2), ("_array", X), ("_scale", scale),
                            ("_zero", zero)):
            object.__setattr__(plan, name, value)
        return plan

    def __getattr__(self, name):
        # only a plan of an array lacks its matrix, until it is asked for
        if name != "matrix" or self._array is None:
            raise AttributeError(name)
        rows = self._array.tolist()
        if self._scale is None:
            matrix = tuple(map(tuple, rows))
        else:
            scale, zero = self._scale, self._zero
            # lists first: a tuple built from a generator grows by resizing,
            # which scatters the allocator's pools
            cells = [[Fraction(x, scale) if x else zero for x in row] for row in rows]
            matrix = tuple(map(tuple, cells))
        object.__setattr__(self, "matrix", matrix)
        return matrix

    @property
    def shape(self):
        if self._array is not None:
            return self._array.shape
        return (len(self.matrix), len(self.matrix[0]))

    @property
    def mode(self) -> str:
        if self._array is not None:
            return FLOAT if self._scale is None else RATIONAL
        return infer_mode(chain(*self.matrix))

    def total_mass(self):
        return sum(sum(row) for row in self.matrix)


def marginals(plan: TransportPlan):
    """Row-sum and column-sum measures of the plan."""
    n, m = plan.shape
    first = tuple(sum(row) for row in plan.matrix)
    second = tuple(sum(plan.matrix[i][j] for i in range(n)) for j in range(m))
    return DiscreteMeasure(first), DiscreteMeasure(second)


def product_coupling(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> TransportPlan:
    """The independent coupling mu1 (x) mu2; witnesses that plans always exist."""
    mat = tuple(tuple(a * b for b in mu2.weights) for a in mu1.weights)
    return TransportPlan(mat, mu1, mu2)


def is_coupling(plan, mu1, mu2, tol=None):
    """Check the coupling invariants; returns (ok, report).

    The report lists ("nonnegativity" | "row" | "column", index, magnitude)
    entries, worst violation first; a NaN cell or sum is a violation, and
    the worst.  An array plan, and a float plan the solver returned, is
    checked with array operations against the weights as floats.  An exact
    plan the solver returned is checked on its scaled ints (see
    _is_scaled_coupling) against exact weights and a tolerance in [0, inf),
    as the default 0 is.  Any other plan is checked cell by cell in its own
    arithmetic.
    """
    if isinstance(plan, TransportPlan) and plan._array is not None:
        if plan._scale is None:
            plan = plan._array
        elif mu1.mode == mu2.mode == RATIONAL and (tol is None or 0 <= tol < INF):
            return _is_scaled_coupling(plan, mu1, mu2, tol or 0)
    if isinstance(plan, np.ndarray):
        a, b = mu1.float_weights, mu2.float_weights
        return _is_coupling_array(plan, a, b, default_tol(FLOAT) if tol is None else tol)
    matrix = plan.matrix if isinstance(plan, TransportPlan) else tuple(
        tuple(row) for row in plan
    )
    n = len(matrix)
    m = len(matrix[0]) if matrix else 0
    _check_plan_shape(n, m, mu1.n, mu2.n)
    if tol is None:
        tol = default_tol(infer_mode(chain(mu1.weights, mu2.weights, *matrix)))
    # zero cells are skipped: they change no sum, and an exact zero costs a
    # Fraction addition or comparison in Python; the tests are written so
    # that NaN fails them
    report = []
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x and not x >= -tol:
                report.append(("nonnegativity", (i, j), -x))
    for i, (row, w) in enumerate(zip(matrix, mu1.weights)):
        gap = abs(sum(filter(None, row)) - w)
        if not gap <= tol:
            report.append(("row", i, gap))
    for j, (column, w) in enumerate(zip(zip(*matrix), mu2.weights)):
        gap = abs(sum(filter(None, column)) - w)
        if not gap <= tol:
            report.append(("column", j, gap))
    return _worst_first(report)


def _worst_first(report):
    """(ok, report) with the report sorted by magnitude, NaN first."""
    report.sort(key=lambda v: (v[2] != v[2], v[2]), reverse=True)
    return (not report), report


def _check_plan_shape(n, m, n1, n2):
    if n != n1 or m != n2:
        raise ShapeError(f"plan is {n}x{m} but measures have {n1} and {n2} points")


def _is_coupling_array(X, a, b, tol):
    """is_coupling's report for an array plan, from array operations.

    a and b are the weights as arrays in the plan's arithmetic: float64;
    int64, whose sums and gaps are exact while the total supply is below
    2^62, as the solver keeps it; or object arrays of exact numbers, which
    are compared exactly.  A NaN cell fails the nonnegativity test, and its row
    and column sums fail theirs.  A passing plan costs one pass of
    reductions: the least cell and the worst row and column gaps.  The
    report, cell by cell, is built only when one of them fails.
    """
    n, m = X.shape
    _check_plan_shape(n, m, a.size, b.size)
    gaps = [
        (kind, np.abs(np.add.reduce(X, axis=axis) - weights))
        for kind, axis, weights in (("row", 1, a), ("column", 0, b))
    ]
    if X.dtype == object or any(g.dtype == object for _, g in gaps):
        # an object array's min and max can pass over a NaN: test every entry
        passing = np.all(X >= -tol) and all(np.all(g <= tol) for _, g in gaps)
    else:  # a float64 min or max is NaN when an entry is
        passing = X.min() >= -tol and all(g.max() <= tol for _, g in gaps)
    if passing:
        return True, []
    i, j = np.logical_not(X >= -tol).nonzero()
    report = [("nonnegativity", (r, c), -X.item(r, c)) for r, c in zip(i.tolist(), j.tolist())]
    for kind, g in gaps:
        (bad,) = np.logical_not(g <= tol).nonzero()
        report += [(kind, k, g.item(k)) for k in bad.tolist()]
    return _worst_first(report)


def _is_scaled_coupling(plan, mu1, mu2, tol):
    """is_coupling of an exact solver plan, in integer array operations.

    The plan holds ints X over its scale s.  X and the measures' scaled
    weights go over one common scale L (s itself for the measures the plan
    was solved for), and tol to floor(tol L): on integers x >= -tol L iff
    x >= -floor(tol L), and gap <= tol L iff gap <= floor(tol L), so every
    test decides as in Fractions.  The magnitudes are Fractions over L.
    """
    X, scale = plan._array, plan._scale
    (ints1, s1), (ints2, s2) = mu1.scaled_weights, mu2.scaled_weights
    common = math.lcm(scale, s1, s2)
    if common != scale:
        X = X * (common // scale)
    a = np.array(ints1, dtype=object) * (common // s1)
    b = np.array(ints2, dtype=object) * (common // s2)
    ok, report = _is_coupling_array(X, a, b, math.floor(Fraction(tol) * common))
    return ok, [(kind, at, Fraction(size, common)) for kind, at, size in report]


def verify_coupling_via_test_functions(plan, mu1, mu2, pairs=None, tol=None) -> bool:
    """Marginal check through sum-separable test functions phi1 (+) phi2.

    For each pair, compares sum_{ij} (phi1[i] + phi2[j]) pi[ij] against
    int phi1 dmu1 + int phi2 dmu2.  With all singleton-indicator pairs this
    is equivalent to the direct marginal check (given unit total mass).
    """
    matrix = plan.matrix if isinstance(plan, TransportPlan) else tuple(
        tuple(row) for row in plan
    )
    n = len(matrix)
    m = len(matrix[0]) if matrix else 0
    if n != mu1.n or m != mu2.n:
        raise ShapeError("plan shape does not match the measures")
    if tol is None:
        tol = default_tol(infer_mode(chain(mu1.weights, mu2.weights, *matrix)))
    if pairs is None:
        pairs = all_indicator_pairs(n, m)
    # a negative cell can hide behind cancelling integrals; reject it up front
    if any(x < -tol for row in matrix for x in row):
        return False
    for phi1, phi2 in pairs:
        v1 = phi1.values if isinstance(phi1, TestFunction) else tuple(phi1)
        v2 = phi2.values if isinstance(phi2, TestFunction) else tuple(phi2)
        if len(v1) != n or len(v2) != m:
            raise ShapeError("test-function lengths do not match the plan")
        lhs = sum(
            (v1[i] + v2[j]) * matrix[i][j]
            for i in range(n)
            for j in range(m)
            if matrix[i][j] != 0
        )
        rhs = integrate(mu1, v1) + integrate(mu2, v2)
        if abs(lhs - rhs) > tol:
            return False
    return True


def all_indicator_pairs(n: int, m: int):
    """(1_{i}, 0) and (0, 1_{j}) pairs spanning all marginal constraints."""
    zero_m = TestFunction((0,) * m)
    zero_n = TestFunction((0,) * n)
    pairs = [(indicator(i, n), zero_m) for i in range(n)]
    pairs += [(zero_n, indicator(j, m)) for j in range(m)]
    return pairs


def tail_mass_bound_check(plan: TransportPlan, K1, K2, mu1=None, mu2=None, tol=None):
    """Mass outside K1 x K2 against the sum of marginal tail masses.

    Returns (lhs, rhs, holds) with lhs = pi((K1 x K2)^c) and
    rhs = mu1(K1^c) + mu2(K2^c); the union bound makes holds always true
    for genuine couplings.  The default tol is that of the mode of the plan
    and both weight vectors.
    """
    n, m = plan.shape
    K1, K2 = set(K1), set(K2)
    for i in K1:
        if not 0 <= i < n:
            raise IndexError(f"row index {i} out of range")
    for j in K2:
        if not 0 <= j < m:
            raise IndexError(f"column index {j} out of range")
    if mu1 is None or mu2 is None:
        mu1, mu2 = marginals(plan)
    if tol is None:
        tol = default_tol(infer_mode(chain(mu1.weights, mu2.weights, *plan.matrix)))
    lhs = sum(
        plan.matrix[i][j]
        for i in range(n)
        for j in range(m)
        if i not in K1 or j not in K2
    )
    rhs = sum(mu1.weights[i] for i in range(n) if i not in K1) + sum(
        mu2.weights[j] for j in range(m) if j not in K2
    )
    return lhs, rhs, lhs <= rhs + tol


def restrict_and_normalize(plan: TransportPlan, mask):
    """Keep the masked cells, renormalize to unit mass.

    Returns (restricted plan, Z, mu1', mu2') where Z is the retained mass.
    The mask is any n x m truth-valued matrix; an all-false (or zero-mass)
    selection is an error since renormalization needs positive mass.
    """
    n, m = plan.shape
    if len(mask) != n or any(len(row) != m for row in mask):
        raise ShapeError("mask shape does not match the plan")
    kept = [
        [plan.matrix[i][j] if mask[i][j] else 0 for j in range(m)] for i in range(n)
    ]
    Z = sum(sum(row) for row in kept)
    if Z <= 0:
        raise EmptyRestrictionError("restriction keeps zero mass")
    normalized = tuple(tuple(x / Z for x in row) for row in kept)
    mu1p = DiscreteMeasure(tuple(sum(row) for row in normalized))
    mu2p = DiscreteMeasure(
        tuple(sum(normalized[i][j] for i in range(n)) for j in range(m))
    )
    return TransportPlan(normalized, mu1p, mu2p), Z, mu1p, mu2p

