"""Exact solution of the discrete Kantorovich problem.

The public entry point is solve_kantorovich, the one place that decides the
path.  The problem arrives as arrays and leaves as one: the CostMatrix
holds its costs as one ndarray and knows their mode (see
numerics.extended_array), and each DiscreteMeasure keeps the array its
own check built (float_weights) or its scaled ints (scaled_weights).  The
mode is numerics.mode_of the three, rational when all three are, and
everything after it is written once for both modes:

- float mode works on those float64 arrays as they are, with no copy;
- rational mode works on integers: the weights are scaled by the least
  common multiple of their denominators, the costs are the CostMatrix's
  own exact format (_scaled_costs), and the tolerance is floored on their
  scale (numerics._floor); _exact_input decides, once for the full
  problem, whether they go to the engine as int64 arrays or as object
  arrays of Python ints.  Float numbers are read as the binary fractions
  they are, so two measures whose exact totals differ are refused rather
  than solved into a plan that couples neither.

On those arrays come the tolerance and the engine.  A cell enters the
basis when its reduced cost r = c - u - v is below -tol; a float solve
given no tol passes tol 0 and rel_tol FLOAT_TOL, and a cell must then
also have r < -FLOAT_TOL * (|c| + |u| + |v|), beyond the rounding error
of its own sum.  Only when the plan has mass on forbidden cells does a
float solve given no tol read the largest |finite cost|, for the
pricing_tol below which that mass is roundoff.  The engine checks
and prices its own plan: with the plan it returns a summary of five
numbers from one row-major pass over it (summarize in _dense.c,
simplex.plan_summary in Python), the mass on forbidden cells, the price,
the worst row and column gaps and the least cell, with forbidden cells
counted as swept to 0.  The forbidden-mass decision, the coupling check
and the cost are read off that summary; the plan is checked again, by
coupling._is_coupling_array, only to report a failed check.  A solve
reads what its inputs decided when they were built: the CostMatrix's
mode, whether a cell is +inf and its float64 costs; a measure's mode, its
arrays, and whether its weights are positive in the format the solve
reads (float_positive, scaled_positive).  In both modes a mask of the
forbidden cells is built only when the plan has mass on them, to sweep
float dust or to find the Hall cut.  The engines need positive weights
(a zero weight can leave them no strongly feasible tree), so when a
weight is zero the engine runs on the support, and its plan is
scattered back into the full n x m array with zeros elsewhere;
zero-weight lines add nothing to any sum, so the support's summary is
the full plan's.  A rational plan comes back in its weights' dtype, and
so do its summary's sums, which are exact because every row and column
sum is at most the total supply; its price is the cost where
_exact_input says so, else the cost is one dot product in Python ints.
A float plan's price adds its terms as _float_price does, so it is the
cost cost_of_plan gives it.  The returned TransportPlan takes the
engine's array in the plan format (see coupling): float64, or Python
ints made from the engine's plan in one pass, over the weight scale; its
matrix of Python floats, or of Fractions, is built only when asked for.
The cost is a Python float, or a Fraction (divided once by both scales).
So a solve makes no Python call per cell from input to plan, and few
numpy calls.

The engine is picked by the weights' dtype (_run_engine).  Float64 and
int64 weights go to the C kernel in _dense.c, loaded through ctypes by
_compiled (which builds it with the system C compiler on first import).
Its float build runs every float problem, forbidden +inf cells included.
Its int64 build runs the rational problems that _exact_input, the one
place that decides it, finds to fit in int64 (see there), with forbidden
cells marked, and its plan comes back in int64, so the cost and the
checks stay exact.  Object weights (the rational problems that do not
fit), and every problem when the C kernel cannot be built or loaded or
FINITEOT_FORCE_PURE=1 turns it off, go through the same simplex in
Python (simplex.py), on Python lists of the arrays.
_dense.c is a port of simplex.py, so either engine returns the same
plan, bit for bit on floats, after the same number of pivots.
OTSolution.engine names the engine that ran ("compiled" or "python").
KERNEL names the engine of float problems; KERNEL_INFO adds its library and
the reason it was chosen, and is logged at DEBUG on the "finiteot" logger.

Both engines price a forbidden +inf cell as an (M, value) pair, so the
optimal plan they return puts the least possible mass on forbidden cells:
the finite part of that plan is a maximum flow.  When no cell is forbidden,
both price the value part alone, which picks the same entering cells.  The problem has no finite-cost
plan exactly when that mass exceeds the tolerance, and then a closure on
the engine's boolean masks gives the Hall-type cut certificate: from the
rows with forbidden mass, rows reach columns over finite cells and columns
reach rows over finite cells with flow, each row and column expanded once.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from ..coupling import (
    TransportPlan,
    _as_plan,
    _floats,
    _is_coupling_array,
    _scaled,
    _sum_in_order,
)
from ..measure import DiscreteMeasure, integrate
from ..numerics import (
    FLOAT,
    FLOAT_TOL,
    INF,
    RATIONAL,
    ParameterError,
    ShapeError,
    _floor,
    default_tol,
    is_inf,
    mode_of,
    number_kind,
    pricing_tol,
)
from ..space import CostMatrix
from . import _compiled
from .simplex import plan_summary, transportation_simplex


@dataclass(frozen=True)
class KernelInfo:
    """Which engine solves float problems, from which library, and why.

    The compiled kernel also solves the rational problems whose scaled data
    fit in int64.
    """

    kernel: str
    library: str  # None for the Python simplex
    reason: str


def _select_kernel():
    """(C kernel or None, KernelInfo); None sends every solve to simplex.py."""
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
logging.getLogger("finiteot").debug("dense kernel: %s", KERNEL_INFO)


@dataclass(frozen=True)
class OTSolution:
    """Optimal plan with its cost; cost is +inf when no finite plan exists.

    iterations is the pivot count of the engine that ran, also on an
    infeasible result (plan None, with infeasibility_certificate set).
    engine is "compiled" when the C kernel ran, else "python".
    """

    plan: TransportPlan
    optimal_cost: object
    iterations: int
    mode: str
    infeasibility_certificate: dict = None
    engine: str = "python"

    @property
    def feasible(self) -> bool:
        return not is_inf(self.optimal_cost)


def cost_of_plan(plan, cost) -> object:
    """sum c_ij pi_ij with 0 * inf = 0; +inf if mass sits on an inf cell.

    One path per mode, over the cells with nonzero mass.  Any cost is read
    through CostMatrix, so it is checked as every cost input is.  An exact
    plan against exact costs (+inf allowed) is one integer dot product of
    its ints and the matrix's cached scaled costs: an int when every such
    cell holds an int mass at an int cost, else one Fraction.  Any other
    plan and costs meet in float64, and the terms are added left to right
    in row-major order, starting from 0.  A raw plan matrix or ndarray is
    read by coupling._as_plan.
    """
    plan = _as_plan(plan)
    cm = cost if isinstance(cost, CostMatrix) else CostMatrix(cost)
    if plan.shape != cm.shape:
        raise ShapeError("plan and cost shapes differ")
    if mode_of(plan, cm) == FLOAT:
        return _float_price(cm._float_costs, _floats(plan))
    X, pscale, ints_only = _scaled(plan)
    C, cscale = cm._scaled_costs
    mass = X != 0
    costs = C[mass].tolist()
    if INF in costs:
        return INF
    total = sum(map(mul, X[mass].tolist(), costs))
    given = cm.array[mass].tolist()  # the exact cells as Python ints and Fractions
    if ints_only and all(number_kind(kind) == 0 for kind in set(map(type, given))):
        return total // (pscale * cscale)
    return Fraction(total, pscale * cscale)


def _float_price(C, X):
    """sum c_ij x_ij over the cells of X with mass, on float64 C and X: +inf
    when a term is infinite, else the terms added left to right in
    row-major order (_sum_in_order)."""
    mass = X != 0
    terms = C[mass] * X[mass]
    return INF if INF in abs(terms) else _sum_in_order(terms)


def check_lower_bound(cost: CostMatrix, mu1, mu2, plan):
    """Integral of the lower-bound pair against the marginals vs plan cost.

    The bound is the same for every coupling, so it lower-bounds the
    optimum; on a tight pair every plan costs it exactly.  holds compares
    them within default_tol of the mode of the cost, the measures and the
    plan.  Returns (bound, cost, holds).
    """
    if cost.lower_bound is None:
        raise ParameterError("cost matrix carries no lower-bound pair")
    a1, a2 = cost.lower_bound
    bound = integrate(mu1, a1) + integrate(mu2, a2)
    plan = _as_plan(plan)
    value = cost_of_plan(plan, cost)
    tol = default_tol(mode_of(cost, mu1, mu2, plan))
    return bound, value, is_inf(value) or value >= bound - tol


def _hall_certificate(a, b, forbidden, X, tol, scale=None):
    """Hall-type cut read off an optimal plan that has to use forbidden cells.

    a, b, the n x m mask forbidden of the +inf cells and the plan X are the
    engine's arrays, and tol is in the units of X.  The finite cells of the
    plan form a maximum flow.  The rows whose forbidden cells carry more
    than tol start a closure on two boolean masks: rows reach columns over
    finite cells, and columns reach rows over finite cells whose flow
    exceeds tol.  Only the newest rows and columns are expanded, so each is
    expanded once and the closure costs O(nm).  The rows reached are the
    source side of a minimum cut, and their finite neighbourhood cannot
    take their mass.  The masses are summed in order (_sum_in_order) and
    reported in input units: as Fractions over scale when one is given
    (rational mode), else as they are.
    """
    finite = ~forbidden
    flows = finite & (X > tol)
    rows = np.cumsum(np.where(forbidden, X, 0), axis=1)[:, -1] > tol
    cols, new_rows = np.zeros(X.shape[1], dtype=bool), rows
    while new_rows.any():
        new_cols = finite[new_rows].any(axis=0) & ~cols
        cols |= new_cols
        new_rows = flows[:, new_cols].any(axis=1) & ~rows
        rows |= new_rows
    row_mass, column_mass = _sum_in_order(a[rows]), _sum_in_order(b[cols])
    if scale is not None:
        row_mass, column_mass = Fraction(row_mass, scale), Fraction(column_mass, scale)
    certificate = {
        "rows": rows.nonzero()[0].tolist(),
        "reachable_columns": cols.nonzero()[0].tolist(),
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
    A tol that is given must be a nonnegative number (ParameterError on a
    negative one or NaN, before any engine runs), and a cell enters when
    its reduced cost is below -tol.  With no tol, rational mode prices
    exactly, and float mode lets a cell enter when its reduced cost r is
    below -FLOAT_TOL * (|c| + |u| + |v|).
    """
    cm = cost if isinstance(cost, CostMatrix) else CostMatrix(cost)
    n, m = cm.shape
    if n != mu1.n or m != mu2.n:
        raise ShapeError(f"cost is {n}x{m} but measures have {mu1.n}, {mu2.n} points")
    if mode is None:
        mode = mode_of(cm, mu1, mu2)
    # a float solve given no tol prices each cell against its own rounding
    # error (rel_tol), not against one tolerance scaled by the largest cost
    rel_tol = 0.0
    if tol is None:
        tol, rel_tol = 0, FLOAT_TOL if mode == FLOAT else 0.0
    elif not tol >= 0:  # a NaN fails too
        raise ParameterError(f"tol must be a nonnegative number, not {tol!r}")
    if mode == FLOAT:
        a, b, C, wscale = mu1.float_weights, mu2.float_weights, cm._float_costs, None
        positive = mu1.float_positive and mu2.float_positive
    elif mode == RATIONAL:
        a, b, C, tol, wscale, cscale, priced = _exact_input(mu1, mu2, cm, tol)
        positive = mu1.scaled_positive and mu2.scaled_positive
    else:
        raise ParameterError(f"unknown mode {mode!r}")

    if positive:
        X, iters, summary, engine = _run_engine(a, b, C, tol, rel_tol)
    else:  # the engines need positive weights: solve on the support
        rows, cols = a > 0, b > 0
        support = np.ix_(rows, cols)
        on_support, iters, summary, engine = _run_engine(
            a[rows], b[cols], C[support], tol, rel_tol
        )
        # zero-weight lines add nothing to any sum, and np.ix_ keeps the
        # row-major order: the support's summary is the full plan's
        X = np.zeros(C.shape, dtype=on_support.dtype)
        X[support] = on_support
    forbidden_mass, price, row_gap, column_gap, least = summary
    plan, value, certificate = None, INF, None
    if forbidden_mass:  # only a problem with forbidden cells has any
        # the engines minimise the M part exactly whatever tol is, so in
        # rational mode any mass on forbidden cells proves that no
        # finite-cost plan exists; in float mode mass up to tol, or without
        # one pricing_tol of the costs, is roundoff
        flow_tol = 0
        if mode == FLOAT:
            flow_tol = pricing_tol(FLOAT, cm.max_abs_finite()) if rel_tol else tol
        forbidden = _compiled.forbidden_cells(C)
        if forbidden_mass > flow_tol:
            certificate = _hall_certificate(a, b, forbidden, X, flow_tol, wscale)
        else:
            # float roundoff left dust on forbidden basic cells; sweep it
            # (the summary counts them as swept)
            X[forbidden] = 0.0
    if certificate is None:
        check = default_tol(mode)
        if not (least >= -check and row_gap <= check and column_gap <= check):  # NaN fails
            _, report = _is_coupling_array(X, a, b, check)
            raise RuntimeError(
                f"solver returned an invalid plan: {report[:3]} (engine summary {summary})"
            )
        if mode == FLOAT:
            value = price
            plan = TransportPlan._of_array(X, mu1, mu2)
        else:
            # no mass sits on a forbidden cell; unless _exact_input found the
            # price exact, the cost is the integer dot product over the
            # cells with mass
            if not priced:
                mass = X != 0
                price = sum(map(mul, C[mass].tolist(), X[mass].tolist()))
            value = Fraction(price, wscale * cscale)
            # the plan's Python ints, int 0 on the cells without mass
            plan = TransportPlan._of_array(X.astype(object), mu1, mu2, wscale, _ZERO)
    return OTSolution(plan, value, iters, mode, certificate, engine)


def _run_engine(a, b, C, tol, rel_tol):
    """(plan array, pivots, summary, engine name) of the engine that solves (a, b, C).

    The weights are positive, tol is in C's units and rel_tol is the
    per-cell factor of float pricing (0 for none).  Their dtype picks
    the engine: float64 and int64 weights (see _exact_input) go to the C
    kernel while it is loaded, and object weights, or every problem when it
    is not, to the Python simplex.  The plan comes back in the weights'
    dtype.  Either engine checks and prices its own plan: summary is
    [forbidden mass, price, worst row gap, worst column gap, least cell]
    (simplex.plan_summary), the same numbers from both.
    """
    if _kernel is not None and a.dtype != object:
        return (*_kernel.solve_dense(a, b, C, tol, rel_tol), _compiled.KERNEL_NAME)
    X = np.zeros(C.shape, dtype=a.dtype)  # object (Python ints) in rational mode
    a, b, cost = a.tolist(), b.tolist(), C.tolist()
    flow, iters = transportation_simplex(a, b, cost, tol=tol, rel_tol=rel_tol)
    for (i, j), f in flow.items():
        X[i, j] = f
    return X, iters, plan_summary(a, b, cost, flow), "python"


def _exact_input(mu1, mu2, cm, tol):
    """Rational mode's engine input, decided once for the full problem:
    (a, b, C, tol, weight scale, cost scale, priced).

    The weights are scaled by the least common multiple of their
    denominators, from each measure's scaled_weights, the costs are the
    CostMatrix's _scaled_costs, and tol goes to the costs' units as the
    floor that numerics._floor takes of tol * cost scale, exactly (an
    infinite tol stays infinite): on integers r < -t iff r < -floor(t),
    and both engines get that floor.  Both scales are positive, so every
    comparison, and hence every pivot, is the one the Fractions would
    give.  The numbers are int64 arrays, for the int64 build, exactly when
    the kernel is loaded and they provably fit: the total supply, which
    bounds every flow and line sum, is below 2^62, and (n + m) max|finite
    cost| and |floor(tol)| are below 2^60 (a potential is a signed sum of
    at most n + m costs, and a reduced cost adds two of them).  max|c| is
    the CostMatrix's max_abs_finite(), or for a float matrix, which
    records it for its rounded cells only, a scan of the scaled cells.
    There forbidden cells are marked FORBIDDEN_INT64 (an int64 C passes as
    it is).  Otherwise they are object arrays of Python ints.  priced says
    whether the engine's price is the plan's cost: it always is in Python
    ints, and in int64, which adds it modulo 2^64, while max|c| times the
    total supply, which bounds it, is below 2^63.
    """
    (ints1, s1), (ints2, s2) = mu1.scaled_weights, mu2.scaled_weights
    wscale = math.lcm(s1, s2)
    f1, f2 = wscale // s1, wscale // s2
    supply, demand = sum(ints1) * f1, sum(ints2) * f2
    if supply != demand:
        gap = Fraction(supply - demand, wscale)
        raise ParameterError(
            f"rational mode needs weights whose exact totals agree; the first "
            f"measure's total minus the second's is {float(gap)!r} ({gap})"
        )
    C, cscale = cm._scaled_costs
    tol = _floor(tol, cscale)
    fits = _kernel is not None and supply < 2**62 and abs(tol) < 2**60
    if fits and C.dtype != np.int64:
        finite = C != INF if cm.has_inf else np.ones(C.shape, dtype=bool)
        costs = C[finite].tolist()
    if fits:
        # a float matrix records its largest |cost| for its rounded cells only
        top = max(map(abs, costs), default=0) if cm.mode == FLOAT else cm.max_abs_finite() * cscale
        fits = sum(C.shape) * top < 2**60
    if not fits:
        a, b = np.array(ints1, dtype=object) * f1, np.array(ints2, dtype=object) * f2
        return a, b, C, tol, wscale, cscale, True
    if C.dtype != np.int64:
        C = np.full(C.shape, _compiled.FORBIDDEN_INT64, dtype=np.int64)
        C[finite] = costs
    a, b = np.array(ints1, dtype=np.int64) * f1, np.array(ints2, dtype=np.int64) * f2
    return a, b, C, tol, wscale, cscale, top * supply < 2**63


_ZERO = Fraction(0)  # the zero cell of a rational solver plan


def verify_restriction_optimality(solution: OTSolution, mask, cost, tol=None):
    """Restricted-and-renormalized optimal plans stay optimal.

    Returns (restricted_cost, resolved_cost, holds).  The input solution is
    assumed optimal; that precondition is not checked here.
    """
    from ..coupling import restrict_and_normalize

    cm = cost if isinstance(cost, CostMatrix) else CostMatrix(cost)
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
