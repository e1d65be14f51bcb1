"""Transport plans between two measures.

A plan is an n x m nonnegative matrix whose row sums are the first
measure's weights and whose column sums are the second's.  Everything here
is constructive: product plans, marginal extraction, verification both
directly and through sum-separable test functions, the sub-rectangle tail
bound, and restriction with renormalization.

A plan's number format is decided here, once, when it is built, as
DiscreteMeasure decides its weights': a read-only float64 array when a
cell is a float, else Python ints X over a positive scale s (an object
array; cell x stands for x / s).  Each check has one path per mode: an
exact plan against exact weights or costs works on the ints, anything
else on float64, adding in the order in which sum() added the cells.
Sums are typed as sum() types them (_typed).  Other modules read the
format through _as_plan, _scaled, _floats, _sum_cells and _line_sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

import numpy as np

from .measure import DiscreteMeasure, TestFunction, indicator, integrate
from .numerics import (
    EmptyRestrictionError,
    FLOAT,
    INF,
    RATIONAL,
    DataError,
    ShapeError,
    _floor,
    check_tol,
    extended_array,
    mode_of,
    number_kind,
    scaled_ints,
)


@dataclass(frozen=True)
class TransportPlan:
    """Joint mass matrix coupling mu1 (rows) with mu2 (columns).

    The matrix, a tuple of row tuples (an ndarray's cells become Python
    numbers), is read once into the plan's format (_read); NaN and infinite
    cells are refused.  Solver plans and glued_marginal_13's arrive in the
    format (_of_array) and build their matrix on first use.  Equality,
    hashing and repr go by the matrix and the measures.
    """

    matrix: tuple
    mu1: DiscreteMeasure = None
    mu2: DiscreteMeasure = None

    #: the format (see _read): the array, the scale of an exact one, and the
    #: highest kind among the cells with mass; _of_array adds the zero cell
    _array = _scale = _cell = _zero = None

    def __post_init__(self):
        vars(self).update(_read(self.matrix, strict=True))

    @classmethod
    def _of_array(cls, X, mu1=None, mu2=None, scale=None, zero=0.0):
        """The plan of an n x m array that has been checked already.

        X is float64, or, with scale, Python ints (an object array) whose
        cells stand for Fraction(x, scale), and zero for x = 0.  The plan
        keeps X, read-only, and builds matrix only when it is asked for.
        """
        plan = object.__new__(cls)
        X.flags.writeable = False
        cell = 2 if scale is None else 1
        vars(plan).update(mu1=mu1, mu2=mu2, _array=X, _scale=scale, _cell=cell, _zero=zero)
        return plan

    def __getattr__(self, name):
        # only a plan of an array lacks its matrix and its cells' kinds,
        # until they are asked for
        if name == "_kinds":
            value = np.where(self._array != 0, self._cell, number_kind(type(self._zero)))
        elif name == "matrix":
            rows = self._array.tolist()
            if self._scale is not None:
                scale, zero = self._scale, self._zero
                # lists first: a tuple built from a generator grows by
                # resizing, which scatters the allocator's pools
                rows = [[Fraction(x, scale) if x else zero for x in row] for row in rows]
            value = tuple(map(tuple, rows))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    @property
    def shape(self):
        return self._array.shape

    @property
    def mode(self) -> str:
        return FLOAT if self._scale is None else RATIONAL

    def total_mass(self):
        # a float plan adds up its row sums, as sum() over the rows did
        return _sum_cells(self) if self._scale else sum(_line_sums(self)[0])


def _read(rows, strict):
    """The matrix and the format of a plan given as rows or an ndarray.

    The mode is extended_array's, and exact cells become scaled_ints' ints.
    strict refuses NaN and infinite cells, else read into float64.  _kinds
    holds each cell's kind (numerics.number_kind), floats wherever a float plan has mass,
    and _cell the highest among the cells with mass.
    """
    matrix = tuple(map(tuple, rows.tolist() if isinstance(rows, np.ndarray) else rows))
    if not matrix or not matrix[0]:
        raise ShapeError("empty plan matrix")
    if set(map(len, matrix)) != {len(matrix[0])}:
        raise ShapeError("plan matrix is not rectangular")
    try:
        X, mode, bounds = extended_array(rows, "plan")  # raises on NaN and -inf
    except DataError:
        if strict:
            raise
        X, mode, bounds = np.array(matrix, dtype=np.float64), FLOAT, None
    cells = list(chain.from_iterable(matrix))
    types = list(map(type, cells))
    codes = {t: number_kind(t) for t in set(types)}
    kinds = np.fromiter(map(codes.__getitem__, types), np.int8, len(types)).reshape(X.shape)
    # +inf: the only float cell of rational mode, or a float64 maximum
    infinite = 2 in codes.values() if mode == RATIONAL else bool(bounds) and bounds[1] == INF
    if infinite and strict:
        raise DataError("+inf plan entry")
    if mode == FLOAT or infinite:
        X, scale = X.astype(np.float64, copy=False), None
        kinds[X != 0] = 2
    elif X.dtype == object:
        ints, scale = scaled_ints(cells)
        X = np.array(ints, dtype=object).reshape(X.shape)
    else:  # int64
        X, scale = X.astype(object), 1
    X.flags.writeable = kinds.flags.writeable = False
    cell = kinds[X != 0].max(initial=0)
    return {"matrix": matrix, "_array": X, "_scale": scale, "_kinds": kinds, "_cell": cell}


def _as_plan(plan):
    """plan, or the TransportPlan of a raw matrix or ndarray, read with its
    NaN and infinite cells kept (see _read) for the checks to report."""
    if isinstance(plan, TransportPlan):
        return plan
    read = object.__new__(TransportPlan)  # with no NaN check
    vars(read).update(_read(plan, strict=False), mu1=None, mu2=None)
    return read


def _scaled(plan):
    """(X, scale, ints) of an exact plan, its cells X / scale, where ints
    says whether every cell with mass is an int; None for a float plan."""
    return None if plan._scale is None else (plan._array, plan._scale, plan._cell == 0)


def _floats(plan):
    """The plan's cells as a float64 array, exact ones rounded as float() rounds them."""
    X, scale = plan._array, plan._scale
    return X if scale is None else (X / scale).astype(np.float64)


def _sum_in_order(values):
    """0 + values[0] + values[1] + ... as Python numbers, added left to right.

    np.sum adds pairwise, and sum() compensates floats from Python 3.12 on;
    either can change the last bits of a result that a plain loop produces.
    """
    return 0 + values.cumsum().item(-1) if values.size else 0


def _typed(plan, sums, kinds):
    """Sums of sets of the plan's cells, typed as sum() types them from 0:
    sums holds each set's sum of the ints, or of the floats, and kinds the
    highest kind among its cells (numerics.number_kind), as a sum() of
    values takes the highest kind among them, from the int 0."""
    scale = plan._scale or 1
    return [
        0 + s if kind == 2 else Fraction(int(s), scale) if kind else int(s) // scale
        for s, kind in zip(sums, kinds)
    ]


def _sum_cells(plan, where=...):
    """The sum of the plan's cells, or of those where the mask where is
    true, typed by _typed; floats are added in row-major order."""
    X, kinds = plan._array[where], plan._kinds[where]
    total = _sum_in_order(X.ravel()) if plan._scale is None else X.sum()
    return _typed(plan, [total], [kinds.max(initial=0)])[0]


def _line_sums(plan):
    """The plan's row sums and column sums, typed by _typed; floats are
    added in order along each row and column."""
    X, kinds = plan._array, plan._kinds
    if plan._scale is None:
        sums = np.cumsum(X, axis=1)[:, -1], np.cumsum(X, axis=0)[-1]
    else:
        sums = X.sum(axis=1), X.sum(axis=0)
    return tuple(
        _typed(plan, s.tolist(), kinds.max(axis=axis).tolist()) for axis, s in zip((1, 0), sums)
    )


def marginals(plan: TransportPlan):
    """Row-sum and column-sum measures of the plan."""
    first, second = _line_sums(plan)
    return DiscreteMeasure(tuple(first)), DiscreteMeasure(tuple(second))


def product_coupling(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> TransportPlan:
    """The independent coupling mu1 (x) mu2; witnesses that plans always exist."""
    mat = tuple(tuple(a * b for b in mu2.weights) for a in mu1.weights)
    return TransportPlan(mat, mu1, mu2)


def is_coupling(plan, mu1, mu2, tol=None):
    """Check the coupling invariants; returns (ok, report).

    The report lists ("nonnegativity" | "row" | "column", index, magnitude)
    entries, worst violation first; a NaN cell or sum is a violation, and
    the worst.  An exact plan is checked on its ints (_is_scaled_coupling),
    a float plan on float64 against the weights as floats.  A raw matrix or
    ndarray is read by _as_plan.
    """
    plan = _as_plan(plan)
    tol = check_tol(tol, mode_of(plan, mu1, mu2))
    if plan.mode == RATIONAL:
        return _is_scaled_coupling(plan, mu1, mu2, tol)
    return _is_coupling_array(plan._array, mu1.float_weights, mu2.float_weights, tol)


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
    are compared exactly.
    """
    n, m = X.shape
    _check_plan_shape(n, m, a.size, b.size)
    lines = [
        ("row", np.abs(np.add.reduce(X, axis=1) - a), tol),
        ("column", np.abs(np.add.reduce(X, axis=0) - b), tol),
    ]
    return _worst_first(_violations(X, tol, lines))


def _violations(X, limit, lines):
    """is_coupling's report entries, unsorted: the cells x of X that fail
    x >= -limit, and for each (kind, gaps, bound) of lines the gaps that
    fail gap <= bound; NaN fails.  A passing float64 plan costs one pass of
    reductions, and the entries are built only when a test fails.
    """
    (_, g1, t1), (_, g2, t2) = lines
    if X.dtype != object and g1.dtype != object and g2.dtype != object:
        low, high = np.minimum.reduce, np.maximum.reduce
        # a float64 min or max is NaN when an entry is
        if low(X, None) >= -limit and high(g1) <= t1 and high(g2) <= t2:
            return []
    # an object array's min and max can pass over a NaN, so every entry is
    # tested; a numpy float64 NaN warns when compared as an object
    with np.errstate(invalid="ignore"):
        i, j = np.logical_not(X >= -limit).nonzero()
        report = [("nonnegativity", (r, c), -X.item(r, c)) for r, c in zip(i.tolist(), j.tolist())]
        for kind, g, t in lines:
            (bad,) = np.logical_not(g <= t).nonzero()
            report += [(kind, k, g.item(k)) for k in bad.tolist()]
    return report


def _is_scaled_coupling(plan, mu1, mu2, tol):
    """is_coupling of an exact plan, in integer array operations.

    X and the exact measures' scaled weights go over one common scale L,
    and tol to floor(tol L): on integers x >= -tol L iff x >= -floor(tol L),
    so every test decides as in Fractions.  Against float weights a line's
    exact sum is rounded, as float() rounds it, and the gap is a float, as
    Python computes it.  An exact magnitude is a Fraction over L, or an int
    where the cells and the weight it comes from are ints, as in Python.
    """
    X, scale = plan._array, plan._scale
    _check_plan_shape(*X.shape, mu1.n, mu2.n)
    common = math.lcm(scale, *(mu.scaled_weights[1] for mu in (mu1, mu2) if mu.mode == RATIONAL))
    if common != scale:
        X = X * (common // scale)
    limit, lines = _floor(tol, common), []
    for kind, axis, mu in (("row", 1, mu1), ("column", 0, mu2)):
        sums = np.add.reduce(X, axis=axis)
        if mu.mode == RATIONAL:
            ints, s = mu.scaled_weights
            lines.append((kind, np.abs(sums - np.array(ints, dtype=object) * (common // s)), limit))
        else:
            lines.append((kind, np.abs((sums / common).astype(np.float64) - mu.float_weights), tol))
    report = _violations(X, limit, lines)
    if report:  # type the exact magnitudes
        kinds = np.where(X != 0, plan._kinds, 0)  # of the nonzero cells
        lines = {"row": (mu1, kinds), "column": (mu2, kinds.T)}
        for k, (kind, at, size) in enumerate(report):
            if number_kind(type(size)) == 2:
                continue
            if kind in lines:
                mu, rows = lines[kind]
                ints = number_kind(type(mu.weights[at])) == 0 and not rows[at].any()
            else:
                ints = not kinds[at]
            report[k] = kind, at, size // common if ints else Fraction(size, common)
    return _worst_first(report)


def verify_coupling_via_test_functions(plan, mu1, mu2, pairs=None, tol=None) -> bool:
    """Marginal check through sum-separable test functions phi1 (+) phi2.

    For each pair, compares sum_{ij} (phi1[i] + phi2[j]) pi[ij] against
    int phi1 dmu1 + int phi2 dmu2.  With all singleton-indicator pairs this
    is equivalent to the direct marginal check (given unit total mass).
    The left side is read off the row and column sums (_line_sums).
    """
    plan = _as_plan(plan)
    n, m = plan.shape
    if n != mu1.n or m != mu2.n:
        raise ShapeError("plan shape does not match the measures")
    tol = check_tol(tol, mode_of(plan, mu1, mu2))
    if pairs is None:
        pairs = all_indicator_pairs(n, m)
    X, scale = plan._array, plan._scale
    # a negative cell can hide behind cancelling integrals; reject it up
    # front; the tests are written so that NaN fails them
    if not np.all(X >= (-tol if scale is None else -_floor(tol, scale))):
        return False
    rows, columns = _line_sums(plan)
    for phi1, phi2 in pairs:
        v1 = phi1.values if isinstance(phi1, TestFunction) else tuple(phi1)
        v2 = phi2.values if isinstance(phi2, TestFunction) else tuple(phi2)
        if len(v1) != n or len(v2) != m:
            raise ShapeError("test-function lengths do not match the plan")
        lhs = sum(map(mul, v1, rows)) + sum(map(mul, v2, columns))
        rhs = integrate(mu1, v1) + integrate(mu2, v2)
        if not abs(lhs - rhs) <= tol:
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
    for K, size, what in ((K1, n, "row"), (K2, m, "column")):
        for k in K:
            if not 0 <= k < size:
                raise IndexError(f"{what} index {k} out of range")
    if mu1 is None or mu2 is None:
        mu1, mu2 = marginals(plan)
    tol = check_tol(tol, mode_of(plan, mu1, mu2))
    inside = np.outer(np.isin(range(n), list(K1)), np.isin(range(m), list(K2)))
    lhs = _sum_cells(plan, ~inside)
    rhs = sum(w for i, w in enumerate(mu1.weights) if i not in K1)
    rhs += sum(w for j, w in enumerate(mu2.weights) if j not in K2)
    return lhs, rhs, lhs <= rhs + tol


def restrict_and_normalize(plan: TransportPlan, mask):
    """Keep the masked cells, renormalize to unit mass.

    Returns (restricted plan, Z, mu1', mu2') where Z is the retained mass.
    The mask is any n x m truth-valued matrix; an all-false (or zero-mass)
    selection is an error since renormalization needs positive mass.  An
    exact plan's kept ints go over their own total, as Fractions; a float
    plan adds Z up row by row, as sum() did, and divides in float64.
    """
    n, m = plan.shape
    if len(mask) != n or any(len(row) != m for row in mask):
        raise ShapeError("mask shape does not match the plan")
    keep = np.array(mask, dtype=bool).reshape(n, m)
    X = np.where(keep, plan._array, 0)
    exact = plan._scale is not None
    Z = _sum_cells(plan, keep) if exact else _sum_in_order(np.cumsum(X, axis=1)[:, -1])
    if Z <= 0:
        raise EmptyRestrictionError("restriction keeps zero mass")
    X = X if exact else X / Z
    scale, zero = (X.sum(), Fraction(0)) if exact else (None, 0.0)
    mu1p, mu2p = marginals(TransportPlan._of_array(X, scale=scale, zero=zero))
    return TransportPlan._of_array(X, mu1p, mu2p, scale, zero), Z, mu1p, mu2p
