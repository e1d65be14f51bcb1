"""Lower-semicontinuity machinery on finite spaces.

The inf-convolution approximants f_n(x) = min_z (f(z) + n * d(x, z)) squeeze
any extended function from below; on a finite space they reach f exactly
once n clears (max f - min f) / (min positive distance).  The liminf of a
finite sequence of plan costs is taken over the final quarter of the
sequence, and that convention is reported alongside the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .coupling import TransportPlan
from .measure import DiscreteMeasure, indicator, integrate
from .numerics import (
    INF,
    DomainError,
    ShapeError,
    check_extended,
    default_tol,
    infer_mode,
    is_inf,
)
from .solver import cost_of_plan
from .space import CostMatrix


@dataclass(frozen=True)
class ExtendedFunction:
    """Point values, possibly +inf, with at least one finite value."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        for v in vals:
            check_extended(v, "function value")
        if all(is_inf(v) for v in vals):
            raise DomainError("function is +inf everywhere")

    @property
    def n(self):
        return len(self.values)

    def finite_range(self):
        finite = [v for v in self.values if not is_inf(v)]
        return min(finite), max(finite)


def moreau_yosida(f, space, n):
    """f_n(x) = min_z (f(z) + n * d(x, z)); always finite-valued.

    The paper's construction assumes f >= 0; any f bounded below works the
    same way since the whole envelope just shifts with f.
    """
    values = f.values if isinstance(f, ExtendedFunction) else ExtendedFunction(tuple(f)).values
    if n <= 0:
        raise DomainError(f"approximation index must be positive, got {n}")
    size = len(values)
    if size != space.n:
        raise ShapeError("function does not match the space size")
    out = []
    for x in range(size):
        best = None
        for z in range(size):
            if is_inf(values[z]):
                continue
            cand = values[z] + n * space.dist[x][z]
            if best is None or cand < best:
                best = cand
        out.append(best)
    return tuple(out)


def exact_recovery_threshold(f, space):
    """Smallest scale past which the envelope equals f at finite points."""
    lo, hi = (f if isinstance(f, ExtendedFunction) else ExtendedFunction(tuple(f))).finite_range()
    spread = hi - lo
    if spread == 0:
        return 1
    return spread / space.min_positive_distance()


def check_moreau_yosida_properties(f, space, N, tol=None):
    """Verify the envelope's ladder properties for n = 1..N.

    Checks pointwise monotonicity in n, domination f_n <= f, the
    n-Lipschitz bound, and convergence: equality with f at finite points
    once n passes the finite-space threshold, divergence at +inf points.
    Returns a report dict with per-property pass flags and counterexamples.
    """
    fn = f if isinstance(f, ExtendedFunction) else ExtendedFunction(tuple(f))
    if tol is None:
        tol = default_tol(infer_mode(chain(fn.values, *space.dist)))
    tables = {n: moreau_yosida(fn, space, n) for n in range(1, N + 1)}
    failures = {"monotone": [], "dominated": [], "lipschitz": [], "convergence": []}
    size = fn.n
    for n in range(1, N + 1):
        tab = tables[n]
        if n < N:
            nxt = tables[n + 1]
            for x in range(size):
                if tab[x] > nxt[x] + tol:
                    failures["monotone"].append({"n": n, "x": x})
        for x in range(size):
            if not is_inf(fn.values[x]) and tab[x] > fn.values[x] + tol:
                failures["dominated"].append({"n": n, "x": x})
        for x in range(size):
            for y in range(size):
                if abs(tab[x] - tab[y]) > n * space.dist[x][y] + tol:
                    failures["lipschitz"].append({"n": n, "x": x, "y": y})

    threshold = exact_recovery_threshold(fn, space)
    n_star = max(1, math.ceil(float(threshold)))
    if n_star <= N:
        tab = tables[n_star]
        for x in range(size):
            if not is_inf(fn.values[x]) and abs(tab[x] - fn.values[x]) > tol:
                failures["convergence"].append({"n": n_star, "x": x})
    # at +inf points the envelope must keep climbing without bound
    for x in range(size):
        if is_inf(fn.values[x]) and N >= 2 and not tables[N][x] > tables[1][x] - tol:
            if any(space.dist[x][z] > 0 and not is_inf(fn.values[z]) for z in range(size)):
                failures["convergence"].append({"x": x, "divergence": False})
    return {
        "N": N,
        "threshold": threshold,
        "passed": all(not v for v in failures.values()),
        "failures": failures,
    }


@dataclass(frozen=True)
class MeasureSequence:
    items: tuple

    def __post_init__(self):
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise DomainError("empty measure sequence")
        n = items[0].n
        for mu in items:
            if mu.n != n:
                raise DomainError("sequence mixes spaces of different sizes")


def narrow_limit_check(seq: MeasureSequence, limit: DiscreteMeasure, tol) -> bool:
    """Finite-space narrow convergence: coordinatewise weight convergence.

    True iff the final element is within tol of the limit per coordinate
    and the deviations over the tail never grow by more than tol per step.
    The weight comparison is cross-checked against integrals of singleton
    indicators, which must agree exactly: integrating an indicator only adds
    zeros to one weight.
    """
    if isinstance(seq, (list, tuple)):
        seq = MeasureSequence(tuple(seq))
    if seq.items[0].n != limit.n:
        raise DomainError("limit lives on a different space")
    devs = [
        max(abs(a - b) for a, b in zip(mu.weights, limit.weights))
        for mu in seq.items
    ]
    n = limit.n
    last = seq.items[-1]
    indicator_dev = max(
        abs(integrate(last, indicator(i, n)) - integrate(limit, indicator(i, n)))
        for i in range(n)
    )
    assert indicator_dev == devs[-1]
    if devs[-1] > tol:
        return False
    tail_start = len(devs) - max(1, math.ceil(len(devs) / 4))
    for t in range(tail_start, len(devs) - 1):
        if devs[t + 1] > devs[t] + tol:
            return False
    return True


def liminf_cost_check(plans, plan_limit, cost, tol=None):
    """Lower semicontinuity of the plan cost along a converging sequence.

    liminf over a finite sequence is the minimum cost over its final
    quarter (the convention is stated in the report).  With an all-finite
    cost the inequality is an equality; +inf cells can make it strict.
    """
    plans = [p if isinstance(p, TransportPlan) else TransportPlan(p) for p in plans]
    limit = (
        plan_limit
        if isinstance(plan_limit, TransportPlan)
        else TransportPlan(plan_limit)
    )
    if not plans:
        raise DomainError("empty plan sequence")
    shape = limit.shape
    for p in plans:
        if p.shape != shape:
            raise ShapeError("plans have mismatched shapes")
    if tol is None:
        cells = cost.cost if isinstance(cost, CostMatrix) else cost
        rows = chain(limit.matrix, *(p.matrix for p in plans), cells)
        tol = default_tol(infer_mode(chain.from_iterable(rows)))
    # entrywise convergence toward the limit: the worst entry gap must
    # never grow along the tail of the sequence
    def worst_gap(p):
        worst = (0, (0, 0))
        for i in range(shape[0]):
            for j in range(shape[1]):
                gap = abs(p.matrix[i][j] - limit.matrix[i][j])
                if gap > worst[0]:
                    worst = (gap, (i, j))
        return worst

    gaps = [worst_gap(p) for p in plans]
    conv_start = len(plans) - max(1, math.ceil(len(plans) / 4))
    for t in range(conv_start, len(plans) - 1):
        if gaps[t + 1][0] > gaps[t][0] + tol:
            raise DomainError(
                f"sequence does not converge to the limit: entry "
                f"{gaps[t + 1][1]} gap grows to {gaps[t + 1][0]} at step {t + 1}"
            )

    tail_len = max(1, math.ceil(len(plans) / 4))
    tail = plans[-tail_len:]
    costs = [cost_of_plan(p, cost) for p in tail]
    liminf_value = costs[0]
    for cst in costs[1:]:
        if cst < liminf_value:
            liminf_value = cst
    limit_value = cost_of_plan(limit, cost)
    if is_inf(liminf_value):
        holds = True
    elif is_inf(limit_value):
        holds = False
    else:
        holds = limit_value <= liminf_value + tol
    return {
        "liminf_value": liminf_value,
        "limit_value": limit_value,
        "tail_length": tail_len,
        "holds": holds,
    }
