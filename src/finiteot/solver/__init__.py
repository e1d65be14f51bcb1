"""Exact solution of the discrete Kantorovich problem.

The public entry point is solve_kantorovich, the one place that decides the
numeric mode and the path.  It converts the problem once into the engine's
numbers, and everything after that is written once for both modes:

- float mode works on float64 arrays of the weights and costs;
- rational mode works on object arrays of Python ints: the weights are
  scaled by the least common multiple of their denominators and the finite
  costs by that of theirs, and +inf cells stay.  Float numbers are read as
  the binary fractions they are, so two measures whose exact totals differ
  are refused rather than solved into a plan that couples neither.

On those arrays come the forbidden-cell mask and the tolerance, the engine,
the forbidden-mass decision and its certificate, the coupling check and the
cost.  Only the result is converted back: the plan's matrix is a tuple of
tuples of Python floats, or of Fractions (f / weight scale), and the cost a
Python float, or a Fraction (divided once by both scales).

The engine of float problems is the dense C kernel in _dense.c, forbidden
+inf cells included, loaded through ctypes by _compiled (which builds it
with the system C compiler on first import).  Rational problems, and float
problems when the C kernel cannot be built or loaded or FINITEOT_FORCE_PURE=1
turns it off, go through the same simplex in Python (simplex.py), on
Python lists of the arrays.  _dense.c is a port of simplex.py, so either
engine returns the same float plan, bit for bit, after the same number of
pivots.  KERNEL names the engine of float problems ("compiled" or
"python"); KERNEL_INFO adds its library and the reason it was chosen, and
is logged at DEBUG on the "finiteot" logger.

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
from itertools import chain

import numpy as np

from ..coupling import TransportPlan, _is_coupling_array
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
from .simplex import transportation_simplex


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
    row-major order, starting from 0.  An array plan is computed with array
    operations in that same order: an object array (exact entries) against
    the costs as they are, any other array against the costs as float64.
    Any other plan, exact entries included, is computed cell by cell in its
    own arithmetic.
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
    C = np.asarray(cost, dtype=object if X.dtype == object else np.float64)
    if X.shape != C.shape:
        raise ShapeError("plan and cost shapes differ")
    mass = X != 0
    terms = C[mass] * X[mass]
    if (abs(terms) == INF).any():  # np.isinf takes no object arrays
        return INF
    return _sum_in_order(terms)


def _sum_in_order(values):
    """0 + values[0] + values[1] + ... as Python numbers, added left to right.

    np.sum adds pairwise, and sum() compensates floats from Python 3.12 on;
    either can change the last bits of a result that a plain loop produces.
    """
    return 0 + values.cumsum().item(-1) if values.size else 0


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


def _hall_certificate(a, b, forbidden, X, tol, scale=None):
    """Hall-type cut read off an optimal plan that has to use forbidden cells.

    a, b, the n x m mask forbidden of the +inf cells and the plan X are the
    engine's arrays, and tol is in the units of X.  The finite cells of the
    plan form a maximum flow.  Starting from the rows whose forbidden cells
    carry more than tol, walk row -> column over finite cells and column ->
    row over finite cells whose flow exceeds tol: the rows reached are the
    source side of a minimum cut, and their finite neighbourhood cannot take
    their mass.  The masses are reported in input units: as Fractions over
    scale when one is given (rational mode), else as they are.
    """
    n, m = X.shape
    a, b, forbidden, matrix = a.tolist(), b.tolist(), forbidden.tolist(), X.tolist()
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
    row_mass, column_mass = sum(a[i] for i in rows), sum(b[j] for j in cols)
    if scale is not None:
        row_mass, column_mass = Fraction(row_mass, scale), Fraction(column_mass, scale)
    certificate = {
        "rows": rows,
        "reachable_columns": cols,
        "row_mass": row_mass,
        "column_mass": column_mass,
    }
    if not row_mass > column_mass:
        raise RuntimeError(f"solver found no Hall cut: {certificate}")
    return certificate


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
    if mode is None:
        mode = infer_mode(chain(mu1.weights, mu2.weights, *cm.cost))
    if mode == FLOAT:
        a, b, C = (np.array(x, dtype=np.float64) for x in (mu1.weights, mu2.weights, cm.cost))
        wscale = cscale = 1
    elif mode == RATIONAL:
        a, b, C, wscale, cscale = _exact_input(mu1.weights, mu2.weights, cm.cost)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    forbidden = C == INF  # only +inf: CostMatrix rejects -inf and NaN
    if tol is None:
        tol = 0 if mode == RATIONAL else pricing_tol(FLOAT, np.abs(C[~forbidden]).max(initial=0))

    if mode == FLOAT and _kernel is not None:
        X, iters = _kernel.solve_dense(a, b, C, tol)
    else:
        flow, iters = transportation_simplex(a.tolist(), b.tolist(), C.tolist(), tol=tol * cscale)
        X = np.zeros(C.shape, dtype=C.dtype)
        for (i, j), f in flow.items():
            X[i, j] = f
    plan, value, certificate = None, INF, None
    flow_tol = tol * wscale
    if forbidden.any() and _sum_in_order(X[forbidden]) > flow_tol:
        certificate = _hall_certificate(
            a, b, forbidden, X, flow_tol, wscale if mode == RATIONAL else None
        )
    else:
        if mode == FLOAT:
            # roundoff can leave dust on forbidden basic cells; sweep it
            X[forbidden] = 0.0
        ok, report = _is_coupling_array(X, a, b, default_tol(mode))
        if not ok:
            raise RuntimeError(f"solver returned an invalid plan: {report[:3]}")
        value = cost_of_plan(X, C)
        if mode == FLOAT:
            matrix = X.tolist()
        else:
            zero = Fraction(0)
            matrix = [[Fraction(f, wscale) if f else zero for f in row] for row in X.tolist()]
            value = value if is_inf(value) else Fraction(value, wscale * cscale)
        plan = TransportPlan(matrix, mu1, mu2)
    return OTSolution(plan, value, iters, mode, certificate)


def _exact_input(w1, w2, cost):
    """Rational mode's engine input: (a, b, C, weight scale, cost scale).

    The weights are scaled by the least common multiple of their
    denominators and the finite costs by that of theirs, into object arrays
    of Python ints; +inf cells stay.  Both scales are positive, so every
    comparison, and hence every pivot, is the one the Fractions would give.
    Float numbers count as the binary fractions they are, so two measures
    whose exact totals differ are refused rather than solved into a plan
    that couples neither.
    """
    weights, wscale = _scaled((*w1, *w2))
    a, b = weights[: len(w1)], weights[len(w1):]
    if sum(a) != sum(b):
        gap = Fraction(sum(a) - sum(b), wscale)
        raise ParameterError(
            f"rational mode needs weights whose exact totals agree; the first "
            f"measure's total minus the second's is {float(gap)!r} ({gap})"
        )
    C = np.array(cost, dtype=object)
    finite = C != INF
    costs, cscale = _scaled(C[finite].tolist())
    C[finite] = costs
    return np.array(a, dtype=object), np.array(b, dtype=object), C, wscale, cscale


def _scaled(values):
    """(ints, scale): exact numbers times the lcm of their denominators."""
    try:
        ratios = [x.as_integer_ratio() for x in values]
    except AttributeError:  # numpy integers have no as_integer_ratio
        ratios = [(int(x.numerator), int(x.denominator)) for x in map(Fraction, values)]
    scale = math.lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


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
