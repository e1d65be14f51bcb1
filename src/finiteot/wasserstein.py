"""Wasserstein-p distance, the gluing construction, and the metric axioms.

W_p is the p-th root of the optimal transport cost under ground cost d^p.
Gluing two plans sharing a middle marginal is done by the explicit
disintegration tensor pi12[i][j] * pi23[j][k] / mu2[j] (zero on zero-mass
middle atoms), which makes every statement here checkable exactly in
rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .coupling import TransportPlan, is_coupling, marginals
from .measure import DiscreteMeasure, measures_equal
from .numerics import (
    RATIONAL,
    DomainError,
    GlueError,
    ParameterError,
    default_tol,
    infer_mode,
)
from .solver import cost_of_plan, solve_kantorovich


@dataclass(frozen=True)
class WassersteinParams:
    p: object = 1
    mode: str = None  # None = infer from the data
    tol: object = None  # solver and comparison tolerance; None = the mode default

    def __post_init__(self):
        if self.p < 1:
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


@dataclass(frozen=True)
class GluedPlan:
    """Three-coordinate joint mass whose (1,2) and (2,3) marginals are plans."""

    tensor: tuple  # n1 x n2 x n3 nested tuples

    @property
    def shape(self):
        return (
            len(self.tensor),
            len(self.tensor[0]),
            len(self.tensor[0][0]),
        )

    def marginal_12(self):
        n1, n2, n3 = self.shape
        return tuple(
            tuple(sum(self.tensor[i][j][k] for k in range(n3)) for j in range(n2))
            for i in range(n1)
        )

    def marginal_23(self):
        n1, n2, n3 = self.shape
        return tuple(
            tuple(sum(self.tensor[i][j][k] for i in range(n1)) for k in range(n3))
            for j in range(n2)
        )

    def total_mass(self):
        return sum(sum(sum(r) for r in sl) for sl in self.tensor)


def glue(pi12: TransportPlan, pi23: TransportPlan, tol=None) -> GluedPlan:
    """Join two plans through their common middle marginal.

    Requires column sums of pi12 to equal row sums of pi23; the glued
    tensor makes the outer coordinates conditionally independent given the
    middle one.
    """
    n1, n2 = pi12.shape
    n2b, n3 = pi23.shape
    if n2 != n2b:
        raise GlueError(f"middle sizes differ: {n2} vs {n2b}")
    if tol is None:
        tol = default_tol(infer_mode(chain(*pi12.matrix, *pi23.matrix)))
    mid_from_12 = [sum(pi12.matrix[i][j] for i in range(n1)) for j in range(n2)]
    mid_from_23 = [sum(row) for row in pi23.matrix]
    worst_j, worst_gap = None, 0
    for j in range(n2):
        gap = abs(mid_from_12[j] - mid_from_23[j])
        if gap > worst_gap:
            worst_gap, worst_j = gap, j
    if worst_gap > tol:
        raise GlueError(
            f"middle marginals differ at index {worst_j} by {worst_gap}"
        )
    mu2 = mid_from_12
    # a basic plan has few nonzero cells; every other (i, j) row is zero
    zeros = (0,) * n3
    tensor = tuple(
        tuple(
            tuple(x * y / mu2[j] for y in pi23.matrix[j]) if x and mu2[j] > 0 else zeros
            for j, x in enumerate(row)
        )
        for row in pi12.matrix
    )
    return GluedPlan(tensor)


def glued_marginal_13(g: GluedPlan) -> TransportPlan:
    """Collapse the middle coordinate; couples the two outer marginals."""
    n3 = g.shape[2]
    matrix = []
    for sl in g.tensor:
        rows = [r for r in sl if any(r)]
        matrix.append(tuple(map(sum, zip(*rows))) if rows else (0,) * n3)
    return TransportPlan(matrix)


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
    tol = params.tol
    if tol is None:
        tol = default_tol(infer_mode((w12, w23, w13, glued_cost_13)))
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
    dist = {}
    plans = {}
    for i in range(k):
        for j in range(k):
            if i <= j:
                w, plan = wasserstein_distance(measures[i], measures[j], space, params)
                dist[(i, j)] = w
                plans[(i, j)] = plan
    tol = params.tol
    if tol is None:
        tol = default_tol(infer_mode(dist.values()))

    failures = {
        "nonnegativity": [],
        "symmetry": [],
        "identity": [],
        "discernibility": [],
        "triangle": [],
    }
    for i in range(k):
        if dist[(i, i)] > tol:
            failures["identity"].append({"i": i, "value": dist[(i, i)]})
        for j in range(i, k):
            if dist[(i, j)] < -tol:
                failures["nonnegativity"].append({"i": i, "j": j, "value": dist[(i, j)]})
            # W is computed once per unordered pair, so symmetry is checked
            # by re-solving with the arguments swapped
            w_ji, _ = wasserstein_distance(measures[j], measures[i], space, params)
            if abs(dist[(i, j)] - w_ji) > tol:
                failures["symmetry"].append(
                    {"i": i, "j": j, "w_ij": dist[(i, j)], "w_ji": w_ji}
                )
            if i != j and dist[(i, j)] <= tol:
                # derived weight tolerance: W >= min-positive-distance * off-diag mass
                wtol = (
                    tol / space.min_positive_distance() if tol else 0
                )
                plan = plans[(i, j)]
                off_diag = sum(
                    plan.matrix[x][y]
                    for x in range(space.n)
                    for y in range(space.n)
                    if x != y
                )
                if off_diag > wtol or not measures_equal(
                    measures[i], measures[j], "weights", tol=wtol
                ):
                    failures["discernibility"].append(
                        {"i": i, "j": j, "off_diagonal_mass": off_diag}
                    )

    def w(i, j):
        return dist[(i, j)] if i <= j else dist[(j, i)]

    for i in range(k):
        for j in range(k):
            for l in range(k):
                gap = w(i, l) - w(i, j) - w(j, l)
                if gap > tol:
                    failures["triangle"].append(
                        {"i": i, "j": j, "k": l, "gap": gap}
                    )

    passed = all(not v for v in failures.values())
    return {
        "p": params.p,
        "n_measures": k,
        "passed": passed,
        "failures": failures,
        "distances": {f"{i},{j}": dist[(i, j)] for i, j in dist},
    }


def glued_plan_is_valid(g: GluedPlan, pi12, pi23, tol=None):
    """Both marginal invariants and unit mass; returns (ok, report)."""
    if tol is None:
        tol = default_tol(infer_mode(chain(*chain(*g.tensor), *pi12.matrix, *pi23.matrix)))
    report = []
    m12 = g.marginal_12()
    m23 = g.marginal_23()
    for name, got, want in (("(1,2)", m12, pi12.matrix), ("(2,3)", m23, pi23.matrix)):
        for a_row, b_row in zip(got, want):
            for x, y in zip(a_row, b_row):
                if abs(x - y) > tol:
                    report.append((name, abs(x - y)))
    mass = g.total_mass()
    if abs(mass - 1) > tol:
        report.append(("total_mass", abs(mass - 1)))
    return (not report), report
