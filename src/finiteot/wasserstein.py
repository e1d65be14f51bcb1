"""Wasserstein-p distance, the gluing construction, and the metric axioms.

W_p is the p-th root of the optimal transport cost under ground cost d^p.
Gluing two plans sharing a middle marginal is done by the explicit
disintegration tensor pi12[i][j] * pi23[j][k] / mu2[j] (zero on zero-mass
middle atoms), which makes every statement here checkable exactly in
rational mode.  A GluedPlan keeps its factors, the two plans, and builds
that n1 x n2 x n3 tensor only when asked for it.  Exact plans (int and
Fraction cells) are glued on the scaled integers every exact plan holds:
pi12 = P / s12 and pi23 = Q / s23, read as rows of Python ints, so the
middle marginals compare as integer sums and the 1-3 plan is one integer
matrix product over the nonzero cells of P and Q, which builds its
Fraction cells only when they are asked for.  Summed on lists, the ints
of a basic plan cost O(n1 n2 + n2 n3) to read and O(nonzero cells) to
multiply, where numpy's object arrays call back into Python per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product

import numpy as np

from .coupling import TransportPlan, _line_sums, _scaled, _sum_cells
from .measure import measures_equal
from .numerics import (
    INF,
    RATIONAL,
    DomainError,
    GlueError,
    ParameterError,
    check_tol,
    infer_mode,
    mode_of,
)
from .solver import cost_of_plan, solve_kantorovich


@dataclass(frozen=True)
class WassersteinParams:
    p: object = 1
    mode: str = None  # None = infer from the data
    tol: object = None  # the solve's pricing and the checks' tolerance; None = each one's default

    def __post_init__(self):
        if not self.p >= 1:  # a NaN fails too
            raise ParameterError(f"order p must be >= 1, got {self.p}")


def _root(value, p, mode):
    if p == 1:
        return value
    if value == 0:
        return Fraction(0) if mode == RATIONAL else 0.0
    return float(value) ** (1.0 / float(p))


def wasserstein_distance(mu1, mu2, space, params: WassersteinParams = None):
    """W_p between two measures on one space; returns (value, optimal plan).

    The value stays exact (a Fraction) in rational mode with p = 1; any
    p > 1 takes a float root.
    """
    if params is None:
        params = WassersteinParams()
    if mu1.n != space.n or mu2.n != space.n:
        raise DomainError("measures do not live on the given space")
    cost = space.power_cost(params.p)
    sol = solve_kantorovich(mu1, mu2, cost, mode=params.mode, tol=params.tol)
    return _root(sol.optimal_cost, params.p, sol.mode), sol.plan


class GluedPlan:
    """Three-coordinate joint mass whose (1,2) and (2,3) marginals are plans.

    It keeps its factors, the two plans (a matrix given for either is read
    as a TransportPlan), and reads their format off them: pi12 and pi23 are
    their matrices, built only when asked for, and when both are exact
    their ints P and Q glue with no Fraction built.  The middle marginal
    mu2 and the n1 x n2 x n3 tensor pi12[i][j] * pi23[j][k] / mu2[j] are
    derived on first use.  Equality, hashing and repr go by pi12 and pi23.
    """

    def __init__(self, pi12, pi23):
        vars(self)["_plans"] = tuple(
            p if isinstance(p, TransportPlan) else TransportPlan(p) for p in (pi12, pi23)
        )

    pi12 = property(lambda self: self._plans[0].matrix, doc="The n1 x n2 matrix.")
    pi23 = property(lambda self: self._plans[1].matrix, doc="The n2 x n3 matrix.")

    def __eq__(self, other):
        return isinstance(other, GluedPlan) and (self.pi12, self.pi23) == (other.pi12, other.pi23)

    def __hash__(self):
        return hash((self.pi12, self.pi23))

    def __repr__(self):
        return f"GluedPlan(pi12={self.pi12!r}, pi23={self.pi23!r})"

    @property
    def shape(self):
        (n1, n2), (_, n3) = (plan.shape for plan in self._plans)
        return n1, n2, n3

    @property
    def _integer_factors(self):
        """(P, s12, Q, s23) with pi12 = P / s12 and pi23 = Q / s23, the two
        plans' ints (coupling._scaled) when both are exact, else None; mu2
        is then made of Fractions, so every tensor cell is exact."""
        factors = [_scaled(plan) for plan in self._plans]
        if None in factors:
            return None
        (P, s12, _), (Q, s23, _) = factors
        return P, s12, Q, s23

    @cached_property
    def _middle_ints(self):
        """The column sums of P as Python ints, summed over its rows as
        lists (both plans exact): the middle marginal is them over s12."""
        return list(map(sum, zip(*self._integer_factors[0].tolist())))

    @cached_property
    def mu2(self):
        """The middle marginal: the column sums of pi12."""
        exact = self._integer_factors
        if exact is None:
            return tuple(_line_sums(self._plans[0])[1])
        s12 = exact[1]
        return tuple(Fraction(c, s12) for c in self._middle_ints)

    @cached_property
    def tensor(self):
        """n1 x n2 x n3 nested tuples, zero on zero-mass middle atoms."""
        # a basic plan has few nonzero cells; every other (i, j) row is zero
        zeros = (0,) * self.shape[2]
        return tuple(
            tuple(
                tuple(x * y / m for y in row23) if x and m > 0 else zeros
                for x, m, row23 in zip(row, self.mu2, self.pi23)
            )
            for row in self.pi12
        )

    def marginal_12(self):
        return tuple(tuple(map(sum, sl)) for sl in self.tensor)

    def marginal_23(self):
        # each sum runs over i, in order
        return tuple(tuple(map(sum, zip(*column))) for column in zip(*self.tensor))

    def total_mass(self):
        return sum(sum(sum(r) for r in sl) for sl in self.tensor)


def glue(pi12: TransportPlan, pi23: TransportPlan, tol=None) -> GluedPlan:
    """Join two plans through their common middle marginal.

    Requires column sums of pi12 to equal row sums of pi23; the glued plan
    makes the outer coordinates conditionally independent given the middle
    one.  Two exact plans are compared on their integer factors, with no
    Fraction arithmetic and no matrix built; any other two on their
    column and row sums (coupling._line_sums).  The tensor is not built
    here.
    """
    n2, n2b = pi12.shape[1], pi23.shape[0]
    if n2 != n2b:
        raise GlueError(f"middle sizes differ: {n2} vs {n2b}")
    g = GluedPlan(pi12, pi23)
    exact = g._integer_factors
    tol = check_tol(tol, mode_of(*g._plans))
    if exact:
        _, s12, Q, s23 = exact
        # both sums, in Python ints, over the common scale s12 * s23
        gaps = [abs(x * s23 - y * s12) for x, y in zip(g._middle_ints, map(sum, Q.tolist()))]
    else:
        gaps = [abs(x - y) for x, y in zip(g.mu2, _line_sums(g._plans[1])[0])]
    worst_j = max(range(n2), key=gaps.__getitem__)  # the first worst
    worst_gap = gaps[worst_j]
    if exact and worst_gap:
        worst_gap = Fraction(worst_gap, s12 * s23)
    if worst_gap > tol:
        raise GlueError(
            f"middle marginals differ at index {worst_j} by {worst_gap}"
        )
    return g


def glued_marginal_13(g: GluedPlan) -> TransportPlan:
    """Collapse the middle coordinate; couples the two outer marginals.

    On integer factors this is one matrix product: with M = P.sum(0),
    L = lcm of the positive M_j and f_j = L // M_j (0 where M_j is not
    positive), pi13 = (P * f) @ Q / (s23 * L).  The product runs on the
    plans' rows as Python ints, over the nonzero cells of P and of Q
    only, at most n1 + n2 - 1 and n2 + n3 - 1 of them in basic plans:
    cells (i, j) of P and (j, k) of Q add P_ij f_j Q_jk to cell (i, k).
    The plan holds those ints, and its matrix has a Fraction on each
    nonzero cell and an int 0 elsewhere.  Any other plan sums the tensor
    over the middle.
    """
    exact = g._integer_factors
    if exact is None:
        n3 = g.shape[2]
        matrix = []
        for sl in g.tensor:
            rows = [r for r in sl if any(r)]
            matrix.append(tuple(map(sum, zip(*rows))) if rows else (0,) * n3)
        return TransportPlan(matrix)
    P, _, Q, s23 = exact
    mass = g._middle_ints
    L = math.lcm(*(m for m in mass if m > 0))
    f = [L // m if m > 0 else 0 for m in mass]
    cells23 = [[(k, y) for k, y in enumerate(row) if y] for row in Q.tolist()]
    product = [[0] * Q.shape[1] for _ in range(P.shape[0])]  # int 0 cells
    for row, out in zip(P.tolist(), product):
        for j, x in enumerate(row):
            if x:
                w = x * f[j]
                for k, y in cells23[j]:
                    out[k] += w * y
    return TransportPlan._of_array(np.array(product, dtype=object), scale=s23 * L, zero=0)


def triangle_witness(mu1, mu2, mu3, space, params: WassersteinParams = None):
    """Constructive two-step triangle inequality check.

    Glues the optimal 1-2 and 2-3 plans, extracts the 1-3 marginal, and
    checks the chain W(1,3) <= cost(pi13)^(1/p) <= W(1,2) + W(2,3).
    """
    if params is None:
        params = WassersteinParams()
    w12, pi12 = wasserstein_distance(mu1, mu2, space, params)
    w23, pi23 = wasserstein_distance(mu2, mu3, space, params)
    w13, _ = wasserstein_distance(mu1, mu3, space, params)
    glued = glue(pi12, pi23)
    pi13 = glued_marginal_13(glued)
    cost = space.power_cost(params.p)
    glued_cost_13 = _root(cost_of_plan(pi13, cost), params.p, infer_mode((w13,)))
    # every W_p and the glued cost's root lie below the largest distance
    tol = check_tol(params.tol, infer_mode((w12, w23, w13, glued_cost_13)), space._matrix.max_abs_finite)
    holds = (w13 <= glued_cost_13 + tol) and (glued_cost_13 <= w12 + w23 + tol)
    return {
        "w12": w12,
        "w23": w23,
        "w13": w13,
        "glued_cost_13": glued_cost_13,
        "holds": holds,
    }


def metric_axiom_suite(measures, space, params: WassersteinParams = None):
    """Check all metric axioms of W_p over a list of measures.

    Returns a report dict with per-axiom pass flags and any counterexample
    witnesses.  Discernibility uses the diagonal argument: W = 0 forces all
    plan mass onto the diagonal, hence equal weight vectors.
    """
    if params is None:
        params = WassersteinParams()
    if len(measures) < 2:
        raise DomainError("need at least two measures")
    k = len(measures)
    dist, plans = {}, {}
    for i in range(k):
        for j in range(k):  # W(j, i) too, solved with the arguments swapped
            dist[i, j], plans[i, j] = wasserstein_distance(measures[i], measures[j], space, params)
    # every W_p lies below the largest distance
    tol = check_tol(params.tol, infer_mode(dist.values()), space._matrix.max_abs_finite)

    axioms = "nonnegativity", "symmetry", "identity", "discernibility", "triangle"
    failures = {axiom: [] for axiom in axioms}
    for i in range(k):
        if dist[i, i] > tol:
            failures["identity"].append({"i": i, "value": dist[i, i]})
        for j in range(i, k):
            if dist[i, j] < -tol:
                failures["nonnegativity"].append({"i": i, "j": j, "value": dist[i, j]})
            if i == j:
                continue  # W(i, i) has no arguments to swap
            if abs(dist[i, j] - dist[j, i]) > tol:
                failures["symmetry"].append({"i": i, "j": j, "w_ij": dist[i, j], "w_ji": dist[j, i]})
            if dist[i, j] <= tol:
                # derived weight tolerance: W >= min-positive-distance * off-diag mass
                wtol = tol / space.min_positive_distance() if 0 < tol < INF else tol
                off_diag = _sum_cells(plans[i, j], ~np.eye(space.n, dtype=bool))
                if off_diag > wtol or not measures_equal(measures[i], measures[j], "weights", tol=wtol):
                    failures["discernibility"].append({"i": i, "j": j, "off_diagonal_mass": off_diag})
    for i, j, l in product(range(k), repeat=3):
        gap = dist[i, l] - dist[i, j] - dist[j, l]
        if gap > tol:
            failures["triangle"].append({"i": i, "j": j, "k": l, "gap": gap})

    passed = all(not v for v in failures.values())
    return {
        "p": params.p,
        "n_measures": k,
        "passed": passed,
        "failures": failures,
        "distances": {f"{i},{j}": w for (i, j), w in dist.items() if i <= j},
    }


def glued_plan_is_valid(g: GluedPlan, pi12, pi23, tol=None):
    """Both marginal invariants and unit mass; returns (ok, report).

    The report lists each (1,2) and each (2,3) marginal cell of the tensor
    that is more than tol away from pi12's or pi23's, as (name, |gap|) in
    row-major order, then ("total_mass", |mass - 1|).  When g's plans and
    pi12 and pi23 are all exact, it is read off the integer factors with no
    tensor built (_factor_report); otherwise the tensor is summed.
    """
    tol = check_tol(tol, mode_of(pi12, pi23))  # the tensor is exact when both plans are
    report = _factor_report(g, pi12, pi23, tol)
    if report is not None:
        return (not report), report
    pairs = ("(1,2)", g.marginal_12(), pi12.matrix), ("(2,3)", g.marginal_23(), pi23.matrix)
    report = [
        (name, abs(x - y))
        for name, got, want in pairs
        for x, y in zip(chain(*got), chain(*want))
        if abs(x - y) > tol
    ]
    mass = g.total_mass()
    if abs(mass - 1) > tol:
        report.append(("total_mass", abs(mass - 1)))
    return (not report), report


def _factor_report(g, pi12, pi23, tol):
    """glued_plan_is_valid's report from the integer factors, or None unless
    g's plans, pi12 and pi23 are all exact, pi12 and pi23 have g's shapes
    and tol is a finite number.

    With g's plans P / s12 and Q / s23, M_j = sum_i P_ij and R_j =
    sum_k Q_jk, the tensor's cell (i, j, k) is P_ij Q_jk / (s23 M_j) where
    M_j > 0 and 0 elsewhere.  Summed exactly, its (1,2) marginal is
    P_ij R_j / (s23 M_j), its (2,3) marginal Q_jk / s23 and its mass the
    sum of R_j / s23, each where M_j > 0 and 0 elsewhere.  Each gap to
    pi12's ints A / sa and pi23's B / sb is an integer over a positive
    denominator, compared with tol = p / q by cross-multiplying, and a
    reported gap is that Fraction: the tensor's exact sums, with no
    Fraction built for a cell that passes.
    """
    factors, wanted = g._integer_factors, (_scaled(pi12), _scaled(pi23))
    if factors is None or None in wanted:
        return None
    try:
        p, q = Fraction(tol).as_integer_ratio()
    except (TypeError, OverflowError):  # an infinite tol, or a numpy scalar Fraction does not take
        return None
    P, _, Q, s23 = factors
    (A, sa, _), (B, sb, _) = wanted
    if A.shape != P.shape or B.shape != Q.shape:
        return None
    M, R = P.sum(axis=0), Q.sum(axis=1)
    kept = M > 0
    den = np.where(kept, M * s23, 1)  # of the (1,2) marginal, per column
    gap12 = np.abs(np.where(kept, P * R, 0) * sa - A * den)
    den12 = den * sa
    gap23 = np.abs(np.where(kept[:, None], Q, 0) * sb - B * s23)
    den23 = s23 * sb
    report = [
        ("(1,2)", Fraction(gap12[i, j], den12[j]))
        for i, j in zip(*np.nonzero(gap12 * q > p * den12))
    ]
    report += [
        ("(2,3)", Fraction(gap23[j, k], den23)) for j, k in zip(*np.nonzero(gap23 * q > p * den23))
    ]
    mass_gap = abs(sum(R[kept].tolist()) - s23)
    if mass_gap * q > p * s23:
        report.append(("total_mass", Fraction(mass_gap, s23)))
    return report
