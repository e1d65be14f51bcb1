"""Transport plans between two measures.

A plan is an n x m nonnegative matrix whose row sums are the first
measure's weights and whose column sums are the second's.  Everything here
is constructive: product plans, marginal extraction, verification both
directly and through sum-separable test functions, the sub-rectangle tail
bound, and restriction with renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .measure import DiscreteMeasure, TestFunction, indicator, integrate
from .numerics import (
    EmptyRestrictionError,
    ShapeError,
    FLOAT,
    check_extended_matrix,
    default_tol,
    infer_mode,
)


@dataclass(frozen=True)
class TransportPlan:
    """Joint mass matrix coupling mu1 (rows) with mu2 (columns)."""

    matrix: tuple
    mu1: DiscreteMeasure = None
    mu2: DiscreteMeasure = None

    def __post_init__(self):
        mat = tuple(map(tuple, self.matrix))
        object.__setattr__(self, "matrix", mat)
        if not mat or not mat[0]:
            raise ShapeError("empty plan matrix")
        if set(map(len, mat)) != {len(mat[0])}:
            raise ShapeError("plan matrix is not rectangular")
        check_extended_matrix(mat, "plan entry")

    @property
    def shape(self):
        return (len(self.matrix), len(self.matrix[0]))

    @property
    def mode(self) -> str:
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
    entries, worst violation first.  An array plan is checked with array
    operations against the weights as floats; any other plan, exact entries
    included, cell by cell in its own arithmetic.
    """
    if isinstance(plan, np.ndarray):
        a, b = (np.array(mu.weights, dtype=np.float64) for mu in (mu1, mu2))
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
    # Fraction addition or comparison in Python
    report = []
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x and x < -tol:
                report.append(("nonnegativity", (i, j), -x))
    for i, (row, w) in enumerate(zip(matrix, mu1.weights)):
        gap = abs(sum(filter(None, row)) - w)
        if gap > tol:
            report.append(("row", i, gap))
    for j, (column, w) in enumerate(zip(zip(*matrix), mu2.weights)):
        gap = abs(sum(filter(None, column)) - w)
        if gap > tol:
            report.append(("column", j, gap))
    report.sort(key=lambda v: v[2], reverse=True)
    return (not report), report


def _check_plan_shape(n, m, n1, n2):
    if n != n1 or m != n2:
        raise ShapeError(f"plan is {n}x{m} but measures have {n1} and {n2} points")


def _is_coupling_array(X, a, b, tol):
    """is_coupling's report for an array plan, from array operations.

    a and b are the weights as arrays in the plan's arithmetic: float64, or
    object arrays of exact numbers, which are compared exactly.
    """
    n, m = X.shape
    _check_plan_shape(n, m, a.size, b.size)
    report = [
        ("nonnegativity", (i, j), -X.item(i, j))
        for i, j in np.argwhere(X < -tol).tolist()
    ]
    for kind, sums, weights in (("row", X.sum(axis=1), a), ("column", X.sum(axis=0), b)):
        gaps = np.abs(sums - weights)
        report += [(kind, k, gaps.item(k)) for k in np.flatnonzero(gaps > tol).tolist()]
    report.sort(key=lambda v: v[2], reverse=True)
    return (not report), report


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


def tail_mass_bound_check(plan: TransportPlan, K1, K2, mu1=None, mu2=None, tol=0):
    """Mass outside K1 x K2 against the sum of marginal tail masses.

    Returns (lhs, rhs, holds) with lhs = pi((K1 x K2)^c) and
    rhs = mu1(K1^c) + mu2(K2^c); the union bound makes holds always true
    for genuine couplings.
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

