"""Wasserstein-p distance, the gluing construction, and the metric axioms.

W_p is the p-th root of the optimal transport cost under ground cost d^p.
Gluing two plans sharing a middle marginal is done by the explicit
disintegration tensor pi12[i][j] * pi23[j][k] / mu2[j] (zero on zero-mass
middle atoms), which makes every statement here checkable exactly in
rational mode.  A GluedPlan keeps its factors, the two plans, and builds
that n1 x n2 x n3 tensor only when asked for it.  Exact plans (int and
Fraction cells) are glued on scaled integers: pi12 = P / s12 and
pi23 = Q / s23, so the middle marginals compare as integer sums and the 1-3
plan is one integer matrix product, with one Fraction per nonzero cell.
Two plans the solver returned bring P and Q with them, and their glued plan
builds its Fraction matrices only when they are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .coupling import TransportPlan, is_coupling, marginals
from .measure import DiscreteMeasure, measures_equal
from .numerics import (
    RATIONAL,
    DomainError,
    GlueError,
    ParameterError,
    all_exact,
    default_tol,
    infer_mode,
    scaled_ints,
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
    """Three-coordinate joint mass whose (1,2) and (2,3) marginals are plans.

    It keeps its factors, the matrices of the two plans; the middle
    marginal mu2, the integer factors and the n1 x n2 x n3 tensor
    pi12[i][j] * pi23[j][k] / mu2[j] are derived from them on first use.
    A glued plan of two solver plans (see _of_plans) keeps the plans
    instead, and builds pi12 and pi23 from them on first use.
    """

    pi12: tuple  # n1 x n2 matrix
    pi23: tuple  # n2 x n3 matrix

    #: the two solver plans that pi12 and pi23 are built from (see _of_plans)
    _plans = None

    @classmethod
    def _of_plans(cls, plan12, plan23):
        """The glued plan of two exact solver plans, on their scaled ints.

        Each plan holds Python ints X over a scale s (TransportPlan._of_array),
        which are its integer factor; its matrix is built only when pi12 or
        pi23 is asked for.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "_plans", (plan12, plan23))
        vars(g)["_integer_factors"] = (plan12._array, plan12._scale, plan23._array, plan23._scale)
        return g

    def __getattr__(self, name):
        # only a glued plan of solver plans lacks its matrices, until asked for
        if name not in ("pi12", "pi23") or self._plans is None:
            raise AttributeError(name)
        matrix = self._plans[name == "pi23"].matrix
        object.__setattr__(self, name, matrix)
        return matrix

    @property
    def shape(self):
        if self._plans is not None:
            (n1, n2), (_, n3) = (plan.shape for plan in self._plans)
            return n1, n2, n3
        return len(self.pi12), len(self.pi23), len(self.pi23[0])

    @cached_property
    def _integer_factors(self):
        """(P, s12, Q, s23) with pi12 = P / s12 and pi23 = Q / s23, or None.

        P and Q are object arrays of Python ints.  They exist when every
        cell of both plans is an int or a Fraction; the middle marginal is
        then made of Fractions, so every tensor cell is exact arithmetic.
        """
        return _integer_factors(self.pi12, self.pi23, (None, None))

    @cached_property
    def mu2(self):
        """The middle marginal: the column sums of pi12."""
        exact = self._integer_factors
        if exact is None:
            n1, n2, _ = self.shape
            return tuple(sum(self.pi12[i][j] for i in range(n1)) for j in range(n2))
        P, s12, _, _ = exact
        return tuple(Fraction(c, s12) for c in P.sum(axis=0).tolist())

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


def _integer_factors(pi12, pi23, forms):
    """GluedPlan._integer_factors of the matrices pi12 and pi23.

    forms holds, for each, the (ints, scale) of the solver plan it is the
    matrix of, or None; then its cells are not scaled again.
    """
    cells12, cells23 = (list(chain(*m)) for m in (pi12, pi23))
    if not (all_exact(cells12) and all_exact(cells23)):
        return None
    n1, n2, n3 = len(pi12), len(pi23), len(pi23[0])
    factors = []
    for cells, shape, form in ((cells12, (n1, n2), forms[0]), (cells23, (n2, n3), forms[1])):
        if form is None:
            ints, scale = scaled_ints(cells)
            form = np.array(ints, dtype=object).reshape(shape), scale
        factors += form
    return tuple(factors)


def glue(pi12: TransportPlan, pi23: TransportPlan, tol=None) -> GluedPlan:
    """Join two plans through their common middle marginal.

    Requires column sums of pi12 to equal row sums of pi23; the glued plan
    makes the outer coordinates conditionally independent given the middle
    one.  Exact plans are compared on their integer factors, with no
    Fraction arithmetic; a plan the solver returned brings its own, and two
    of them are glued with no matrix built (GluedPlan._of_plans).  The
    tensor is not built here.
    """
    n2, n2b = pi12.shape[1], pi23.shape[0]
    if n2 != n2b:
        raise GlueError(f"middle sizes differ: {n2} vs {n2b}")
    # the (ints, scale) an exact plan from the solver carries
    forms = tuple(None if p._scale is None else (p._array, p._scale) for p in (pi12, pi23))
    if None not in forms:
        g = GluedPlan._of_plans(pi12, pi23)
    else:
        g = GluedPlan(pi12.matrix, pi23.matrix)
        if forms != (None, None):
            vars(g)["_integer_factors"] = _integer_factors(g.pi12, g.pi23, forms)
    exact = g._integer_factors
    if tol is None:
        tol = 0 if exact else default_tol(infer_mode(chain(*pi12.matrix, *pi23.matrix)))
    if exact:
        P, s12, Q, s23 = exact
        # both sums over the common scale s12 * s23
        gaps = np.abs(P.sum(axis=0) * s23 - Q.sum(axis=1) * s12).tolist()
    else:
        gaps = [abs(x - sum(row)) for x, row in zip(g.mu2, pi23.matrix)]
    worst_j, worst_gap = None, 0
    for j, gap in enumerate(gaps):
        if gap > worst_gap:
            worst_gap, worst_j = gap, j
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
    positive), pi13 = (P * f) @ Q / (s23 * L).  The product is taken over
    the nonzero cells of P only, at most n1 + n2 - 1 of them in a basic
    plan: cell (i, j) adds P_ij f_j Q_j to row i.  The plan holds those
    ints, and its matrix has a Fraction on each nonzero cell and an int 0
    elsewhere.  Any other plan sums the tensor over the middle.
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
    mass = P.sum(axis=0).tolist()
    L = math.lcm(*(m for m in mass if m > 0))
    f = np.array([L // m if m > 0 else 0 for m in mass], dtype=object)
    i, j = P.nonzero()
    product = np.zeros((P.shape[0], Q.shape[1]), dtype=object)  # int 0 cells
    np.add.at(product, i, (P[i, j] * f[j])[:, None] * Q[j])
    return TransportPlan._of_array(product, scale=s23 * L)


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
