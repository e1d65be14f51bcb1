"""Exact solution of the discrete Kantorovich problem.

The public entry point is solve_kantorovich, the one place that decides the
numeric mode and the path:

- rational mode goes through the transportation simplex (simplex.py) on
  Python ints: weights and finite costs are scaled by the least common
  multiple of their denominators, and the integer flows are divided back by
  the weight scale.  Float weights are read as the binary fractions they
  are, so two measures whose exact totals differ are refused rather than
  solved into a plan that couples neither;
- float problems go through the dense C kernel in _dense.c, forbidden +inf
  cells included, loaded through ctypes by _compiled (which builds it with
  the system C compiler on first import).  When the C kernel cannot be built
  or loaded, or FINITEOT_FORCE_PURE=1 turns it off, they go through the same
  simplex on floats.  _dense.c is a port of simplex.py, so either engine
  returns the same plan, bit for bit, after the same number of pivots.
  KERNEL names the engine of float problems ("compiled" or "python");
  KERNEL_INFO adds its library and the reason it was chosen, and is logged
  at DEBUG on the "finiteot" logger.

A float solve converts the weights and costs to float64 arrays once and
stays on arrays until the plan is built: the forbidden cells, the pricing
tolerance, the forbidden-mass decision, the dust sweep, the coupling check
and the cost are array operations, and the Python simplex alone gets
Python lists.  The returned plan's matrix is still a tuple of tuples of
Python floats, and its cost a Python float.

Both engines price a forbidden +inf cell as an (M, value) pair, so the
optimal plan they return puts the least possible mass on forbidden cells:
the finite part of that plan is a maximum flow.  The problem has no finite-cost
plan exactly when that mass exceeds the tolerance, and then the rows that
reach each other through the plan's residual graph give the Hall-type cut
certificate.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..coupling import TransportPlan, is_coupling
from ..measure import DiscreteMeasure, integrate
from ..numerics import (
    FLOAT,
    INF,
    RATIONAL,
    ParameterError,
    ShapeError,
    default_tol,
    infer_mode,
    is_inf,
    pricing_tol,
)
from ..space import CostMatrix
from . import _compiled
from .simplex import flow_to_matrix, transportation_simplex


@dataclass(frozen=True)
class KernelInfo:
    """Which engine solves float problems, from which library, and why."""

    kernel: str
    library: str  # None for the Python simplex
    reason: str


def _select_kernel():
    """(C kernel or None, KernelInfo); None sends every float solve to simplex.py."""
    if os.environ.get("FINITEOT_FORCE_PURE"):
        return None, KernelInfo("python", None, "forced by FINITEOT_FORCE_PURE")
    try:
        kernel = _compiled.load()
    except _compiled.KernelUnavailable as exc:
        return None, KernelInfo("python", None, f"compiled kernel unavailable: {exc}")
    how = "built into" if kernel.built else "loaded from"
    return kernel, KernelInfo(kernel.KERNEL_NAME, str(kernel.path), f"{how} the cache")


_kernel, KERNEL_INFO = _select_kernel()
KERNEL = KERNEL_INFO.kernel
logging.getLogger("finiteot").debug("dense float kernel: %s", KERNEL_INFO)


@dataclass(frozen=True)
class OTSolution:
    """Optimal plan with its cost; cost is +inf when no finite plan exists.

    iterations is the pivot count of the engine that ran, also on an
    infeasible result (plan None, with infeasibility_certificate set).
    """

    plan: TransportPlan
    optimal_cost: object
    iterations: int
    mode: str
    infeasibility_certificate: dict = None

    @property
    def feasible(self) -> bool:
        return not is_inf(self.optimal_cost)


def cost_of_plan(plan, cost) -> object:
    """sum c_ij pi_ij with 0 * inf = 0; +inf if mass sits on an inf cell.

    The terms on cells with nonzero mass are added left to right in
    row-major order, starting from 0.  A float64 array plan is computed with
    array operations against the costs as floats, in that same order; any
    other plan, exact entries included, cell by cell in its own arithmetic.
    """
    if isinstance(plan, np.ndarray):
        return _cost_of_array_plan(plan, cost.cost if isinstance(cost, CostMatrix) else cost)
    matrix = plan.matrix if isinstance(plan, TransportPlan) else plan
    c = cost.cost if isinstance(cost, CostMatrix) else cost
    if len(matrix) != len(c) or len(matrix[0]) != len(c[0]):
        raise ShapeError("plan and cost shapes differ")
    total = 0
    for crow, prow in zip(c, matrix):
        for cij, pij in zip(crow, prow):
            if pij:
                term = INF if is_inf(cij) else cij * pij
                if is_inf(term):
                    return INF
                total += term
    return total


def _cost_of_array_plan(X, cost):
    C = np.asarray(cost, dtype=np.float64)
    if X.shape != C.shape:
        raise ShapeError("plan and cost shapes differ")
    mass = X != 0
    terms = C[mass] * X[mass]
    if np.isinf(terms).any():
        return INF
    return _sum_in_order(terms)


def _sum_in_order(values):
    """0 + values[0] + values[1] + ... as Python floats, added left to right.

    np.sum adds pairwise, and sum() compensates from Python 3.12 on; either
    can change the last bits of a result that a plain loop produces.
    """
    return 0 + np.cumsum(values)[-1].item() if values.size else 0


def check_lower_bound(cost: CostMatrix, mu1, mu2, plan):
    """Integral of the lower-bound pair against the marginals vs plan cost.

    The bound is the same for every coupling, so it lower-bounds the
    optimum.  Returns (bound, cost, holds).
    """
    if cost.lower_bound is None:
        raise ParameterError("cost matrix carries no lower-bound pair")
    a1, a2 = cost.lower_bound
    bound = integrate(mu1, a1) + integrate(mu2, a2)
    value = cost_of_plan(plan, cost)
    return bound, value, is_inf(value) or value >= bound


def _solve_scaled(a, b, c, forbidden, tol):
    """Rational simplex run on Python ints; returns (Fraction matrix, pivots).

    Weights are scaled by the least common multiple of their denominators
    and finite costs by that of theirs; forbidden is the n x m truth matrix
    of the +inf cells.  Both scales are positive, so every comparison, and
    hence every pivot, is the one the Fractions would give.
    """
    wscale = math.lcm(*(x.denominator for x in (*a, *b)))
    rows = list(zip(c, forbidden))
    cscale = math.lcm(
        *(x.denominator for row, frow in rows for x, f in zip(row, frow) if not f)
    )
    flow, iters = transportation_simplex(
        [x.numerator * (wscale // x.denominator) for x in a],
        [x.numerator * (wscale // x.denominator) for x in b],
        [
            [x if f else x.numerator * (cscale // x.denominator) for x, f in zip(row, frow)]
            for row, frow in rows
        ],
        tol=tol * cscale,
    )
    exact = {cell: Fraction(f, wscale) for cell, f in flow.items()}
    return flow_to_matrix(exact, len(a), len(b), zero=Fraction(0)), iters


def _hall_certificate(a, b, forbidden, matrix, tol):
    """Hall-type cut read off an optimal plan that has to use forbidden cells.

    forbidden is the n x m truth matrix of the +inf cells.  The finite cells
    of the plan form a maximum flow.  Starting from the rows whose forbidden
    cells carry more than tol, walk row -> column over finite cells and
    column -> row over finite cells whose flow exceeds tol: the rows reached
    are the source side of a minimum cut, and their finite neighbourhood
    cannot take their mass.
    """
    n, m = len(a), len(b)
    finite = [[j for j in range(m) if not forbidden[i][j]] for i in range(n)]
    rows = {
        i for i in range(n)
        if sum(x for x, f in zip(matrix[i], forbidden[i]) if f) > tol
    }
    cols = set()
    stack = list(rows)
    while stack:
        for j in finite[stack.pop()]:
            if j in cols:
                continue
            cols.add(j)
            for k in range(n):
                if k not in rows and not forbidden[k][j] and matrix[k][j] > tol:
                    rows.add(k)
                    stack.append(k)
    rows, cols = sorted(rows), sorted(cols)
    certificate = {
        "rows": rows,
        "reachable_columns": cols,
        "row_mass": sum(a[i] for i in rows),
        "column_mass": sum(b[j] for j in cols),
    }
    if not certificate["row_mass"] > certificate["column_mass"]:
        raise RuntimeError(f"solver found no Hall cut: {certificate}")
    return certificate


def _resolve_mode(mu1, mu2, c, mode):
    if mode is not None:
        return mode
    if infer_mode(mu1.weights + mu2.weights) == FLOAT:
        return FLOAT
    return infer_mode(x for row in c for x in row if not is_inf(x))


def solve_kantorovich(
    mu1: DiscreteMeasure,
    mu2: DiscreteMeasure,
    cost,
    mode: str = None,
    tol: float = None,
) -> OTSolution:
    """Minimize the total transport cost over all couplings of (mu1, mu2).

    +inf cost cells are forbidden moves; when they disconnect the problem
    the result has optimal_cost = +inf and a Hall-type cut certificate.
    """
    cm = cost if isinstance(cost, CostMatrix) else CostMatrix(tuple(map(tuple, cost)))
    n, m = cm.shape
    if n != mu1.n or m != mu2.n:
        raise ShapeError(f"cost is {n}x{m} but measures have {mu1.n}, {mu2.n} points")
    mode = _resolve_mode(mu1, mu2, cm.cost, mode)
    if mode == RATIONAL:
        return _solve_rational(mu1, mu2, cm, tol)
    if mode == FLOAT:
        return _solve_float(mu1, mu2, cm, tol)
    raise ParameterError(f"unknown mode {mode!r}")


def _solve_rational(mu1, mu2, cm, tol):
    a = [Fraction(w) for w in mu1.weights]
    b = [Fraction(w) for w in mu2.weights]
    gap = sum(a) - sum(b)
    if gap:
        raise ParameterError(
            f"rational mode needs weights whose exact totals agree; the first "
            f"measure's total minus the second's is {float(gap)!r} ({gap})"
        )
    if tol is None:
        tol = default_tol(RATIONAL)
    forbidden = [[is_inf(x) for x in row] for row in cm.cost]
    c = [
        [x if f else Fraction(x) for x, f in zip(row, frow)]
        for row, frow in zip(cm.cost, forbidden)
    ]
    matrix, iters = _solve_scaled(a, b, c, forbidden, tol)
    if any(map(any, forbidden)):
        mass = sum(x for prow, frow in zip(matrix, forbidden) for x, f in zip(prow, frow) if f)
        if mass > tol:
            certificate = _hall_certificate(a, b, forbidden, matrix, tol)
            return OTSolution(None, INF, iters, RATIONAL, certificate)
    plan = TransportPlan(tuple(map(tuple, matrix)), mu1, mu2)
    ok, report = is_coupling(plan, mu1, mu2, tol=default_tol(RATIONAL))
    if not ok:
        raise RuntimeError(f"solver returned an invalid plan: {report[:3]}")
    return OTSolution(plan, cost_of_plan(plan, cm), iters, RATIONAL)


def _solve_float(mu1, mu2, cm, tol):
    """Float solve on float64 arrays from the input to the finished plan."""
    a = np.array(mu1.weights, dtype=np.float64)
    b = np.array(mu2.weights, dtype=np.float64)
    C = np.array(cm.cost, dtype=np.float64)
    n, m = C.shape
    forbidden = np.isinf(C)  # only +inf: CostMatrix rejects -inf and NaN
    has_forbidden = bool(forbidden.any())
    if tol is None:
        finite = np.abs(C[~forbidden] if has_forbidden else C)
        tol = pricing_tol(FLOAT, finite.max() if finite.size else 0)

    if _kernel is not None:
        X, iters = _kernel.solve_dense(a, b, C, tol)
    else:
        flow, iters = transportation_simplex(a.tolist(), b.tolist(), C.tolist(), tol=tol)
        X = np.zeros((n, m))
        for (i, j), f in flow.items():
            X[i, j] = f
    if has_forbidden:
        if _sum_in_order(X[forbidden]) > tol:
            certificate = _hall_certificate(
                a.tolist(), b.tolist(), forbidden.tolist(), X.tolist(), tol
            )
            return OTSolution(None, INF, iters, FLOAT, certificate)
        # roundoff can leave dust on forbidden basic cells; sweep it
        X[forbidden] = 0.0

    ok, report = is_coupling(X, mu1, mu2, tol=default_tol(FLOAT))
    if not ok:
        raise RuntimeError(f"solver returned an invalid plan: {report[:3]}")
    value = cost_of_plan(X, C)
    plan = TransportPlan(tuple(map(tuple, X.tolist())), mu1, mu2)
    return OTSolution(plan, value, iters, FLOAT)


def verify_restriction_optimality(solution: OTSolution, mask, cost, tol=None):
    """Restricted-and-renormalized optimal plans stay optimal.

    Returns (restricted_cost, resolved_cost, holds).  The input solution is
    assumed optimal; that precondition is not checked here.
    """
    from ..coupling import restrict_and_normalize

    cm = cost if isinstance(cost, CostMatrix) else CostMatrix(tuple(map(tuple, cost)))
    restricted, Z, mu1p, mu2p = restrict_and_normalize(solution.plan, mask)
    restricted_cost = cost_of_plan(restricted, cm)
    resolved = solve_kantorovich(mu1p, mu2p, cm, mode=solution.mode)
    if tol is None:
        tol = pricing_tol(solution.mode, cm.max_abs_finite())
    if is_inf(restricted_cost) or is_inf(resolved.optimal_cost):
        holds = is_inf(restricted_cost) and is_inf(resolved.optimal_cost)
    else:
        holds = abs(restricted_cost - resolved.optimal_cost) <= tol
    return restricted_cost, resolved.optimal_cost, holds


from .oracles import oracle_basis_enumeration, oracle_permutation  # noqa: E402

__all__ = [
    "KERNEL",
    "KERNEL_INFO",
    "KernelInfo",
    "OTSolution",
    "cost_of_plan",
    "check_lower_bound",
    "solve_kantorovich",
    "verify_restriction_optimality",
    "oracle_permutation",
    "oracle_basis_enumeration",
]
