"""Lower-semicontinuity machinery on finite spaces.

The inf-convolution approximants f_n(x) = min_z (f(z) + n * d(x, z)) squeeze
any extended function from below; on a finite space they reach f exactly
once n clears (max f - min f) / (min positive distance).  Each f_n is one
min-plus product on the space's distance array, and the ladder's checks
are array tests on the same numbers (space._decision).  The liminf of a
finite sequence of plan costs is taken over its final quarter, and that
convention is reported alongside the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat

import numpy as np

from .coupling import TransportPlan, _floats, _scaled
from .measure import DiscreteMeasure
from .numerics import (
    FLOATS,
    INF,
    INTEGERS,
    DomainError,
    ParameterError,
    ShapeError,
    check_extended,
    check_tol,
    infer_mode,
    is_inf,
    mode_of,
    python_numbers,
)
from .solver import cost_of_plan
from .space import CostMatrix, _cells, _decision


@dataclass(frozen=True)
class ExtendedFunction:
    """Point values, possibly +inf, with at least one finite value; numpy
    scalars are read as the Python numbers they equal.

    Its mode (infer_mode's) and _finite, the read-only mask of the values
    that are not +inf, are decided once, at construction, with no Python
    call per value: the floats (numerics.FLOATS), the only values that can
    be NaN or infinite, are found by type and checked as one float64 array.
    """

    values: tuple

    def __post_init__(self):
        vals = python_numbers(self.values)
        is_float = np.fromiter(map(isinstance, vals, repeat(FLOATS)), bool, len(vals))
        floats = np.array(list(compress(vals, is_float)), dtype=np.float64)
        (bad,) = np.nonzero(np.isnan(floats) | (floats == -INF))
        if bad.size:  # the first NaN or -inf value
            check_extended(floats.item(bad[0]), "function value")
        finite = ~is_float
        finite[is_float] = floats < INF
        if not finite.any():
            raise DomainError("function is +inf everywhere")
        finite.flags.writeable = False
        vars(self).update(values=vals, mode=infer_mode(vals), _finite=finite)

    @property
    def n(self):
        return len(self.values)

    def finite_range(self):
        finite = list(compress(self.values, self._finite))
        return min(finite), max(finite)


def moreau_yosida(f, space, n):
    """f_n(x) = min_z (f(z) + n * d(x, z)); always finite-valued.

    The paper's construction assumes f >= 0; any f bounded below works the
    same way since the whole envelope just shifts with f.  The minimum is a
    min-plus product on the space's array (space._decision, exact values
    scaled by L^2); f_n(x) is f(z) + n * d(x, z) at the first minimising z.
    """
    fn = f if isinstance(f, ExtendedFunction) else ExtendedFunction(tuple(f))
    if not 0 < n < INF:  # a NaN fails too
        raise DomainError(f"approximation index must be a finite positive number, got {n}")
    values = fn.values
    if len(values) != space.n:
        raise ShapeError("function does not match the space size")
    finite = fn._finite.nonzero()[0]
    anchors = [values[z] for z in finite.tolist()]
    D, X, _, scale = _decision(
        space._matrix, [*anchors, n], lambda cell, number, t, scale: number * (scale + cell)
    )
    candidates = X[-1] * (D if finite.size == len(values) else D[:, finite])
    candidates += X[:-1] if scale is None else X[:-1] * scale  # in place
    d, anchor = space.dist, finite[candidates.argmin(axis=1)].tolist()
    return tuple([values[z] + n * d[x][z] for x, z in enumerate(anchor)])


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
    Each property is one array test on the N envelopes, f and the distances
    (space._decision; the Lipschitz bound is one (n, n) test per n).
    """
    fn = f if isinstance(f, ExtendedFunction) else ExtendedFunction(tuple(f))
    if not (isinstance(N, INTEGERS) and N >= 1):
        raise ParameterError(f"N must be an integer >= 1, got {N!r}")
    # scaled by max |finite f| + N max d, which bounds every envelope
    top = space._matrix.max_abs_finite
    tol = check_tol(tol, mode_of(space._matrix, fn), lambda: max(map(abs, fn.finite_range())) + N * top())
    tables = [moreau_yosida(fn, space, n) for n in range(1, N + 1)]
    finite, size = fn._finite, fn.n
    # tol is one of the numbers, as the tests add it: a float tol adds in floats
    numbers = [*chain.from_iterable(tables), *compress(fn.values, finite), tol]
    D, X, _, _ = _decision(
        space._matrix, numbers, lambda cell, number, t, scale: 3 * number + N * cell
    )
    T, F, t = X[: N * size].reshape(N, size), np.zeros(size, X.dtype), X[-1]
    F[finite] = X[N * size : -1]

    def lipschitz(n):  # |f_n(x) - f_n(y)| > n d(x, y) + tol
        gaps = T[n - 1, :, None] - T[n - 1]
        np.abs(gaps, out=gaps)
        return _cells(gaps > n * D + t)

    failures = {
        "monotone": [{"n": n + 1, "x": x} for n, x in _cells(T[:-1] > T[1:] + t)],
        "dominated": [{"n": n + 1, "x": x} for n, x in _cells(finite & (T > F + t))],
        "lipschitz": [{"n": n, "x": x, "y": y} for n in range(1, N + 1) for x, y in lipschitz(n)],
        "convergence": [],
    }
    threshold = exact_recovery_threshold(fn, space)
    n_star = max(1, math.ceil(float(threshold)))
    if n_star <= N:
        missed = finite & (abs(T[n_star - 1] - F) > t)
        failures["convergence"] += [{"n": n_star, "x": x} for (x,) in _cells(missed)]
    # at +inf points the envelope must keep climbing without bound
    if N >= 2:
        stuck = ~finite & ~(T[-1] > T[0] - t) & ((D > 0) & finite).any(axis=1)
        failures["convergence"] += [{"x": x, "divergence": False} for (x,) in _cells(stuck)]
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
    A weight is the integral of its point's indicator, so the weights are
    compared directly.
    """
    if isinstance(seq, (list, tuple)):
        seq = MeasureSequence(tuple(seq))
    if seq.items[0].n != limit.n:
        raise DomainError("limit lives on a different space")
    tol = check_tol(tol, mode_of(limit, *seq.items))
    devs = [
        max(abs(a - b) for a, b in zip(mu.weights, limit.weights))
        for mu in seq.items
    ]
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
    def read(p):
        return p if isinstance(p, TransportPlan) else TransportPlan(p)

    plans, limit = list(map(read, plans)), read(plan_limit)
    if not plans:
        raise DomainError("empty plan sequence")
    if any(p.shape != limit.shape for p in plans):
        raise ShapeError("plans have mismatched shapes")
    cm = cost if isinstance(cost, CostMatrix) else CostMatrix(cost)  # read once
    # the entry gaps are masses, and the costs scale with the largest |finite cost|
    mode = mode_of(cm, limit, *plans)
    tol, cost_tol = check_tol(tol, mode), check_tol(tol, mode, cm.max_abs_finite)
    # entrywise convergence toward the limit: the worst entry gap must
    # never grow along the tail of the sequence; two exact plans are
    # compared on their ints, any other two in float64
    def worst_gap(p):
        pair = _scaled(p), _scaled(limit)
        if None in pair:
            gaps, scale = np.abs(_floats(p) - _floats(limit)), None
        else:
            (X, s, _), (Y, t, _) = pair
            gaps, scale = np.abs(X * t - Y * s), s * t
        k = int(np.argmax(gaps))  # the first worst entry, in row-major order
        gap = gaps.item(k) if scale is None else Fraction(gaps.item(k), scale)
        return gap, divmod(k, limit.shape[1])

    gaps = [worst_gap(p) for p in plans]
    tail_len = max(1, math.ceil(len(plans) / 4))
    for t in range(len(plans) - tail_len, len(plans) - 1):
        if gaps[t + 1][0] > gaps[t][0] + tol:
            raise DomainError(
                f"sequence does not converge to the limit: entry "
                f"{gaps[t + 1][1]} gap grows to {gaps[t + 1][0]} at step {t + 1}"
            )

    liminf_value = min(cost_of_plan(p, cm) for p in plans[-tail_len:])  # the first least
    limit_value = cost_of_plan(limit, cm)
    holds = is_inf(liminf_value) or not is_inf(limit_value) and limit_value <= liminf_value + cost_tol
    return {
        "liminf_value": liminf_value,
        "limit_value": limit_value,
        "tail_length": tail_len,
        "holds": holds,
    }
