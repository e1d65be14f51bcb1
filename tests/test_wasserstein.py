import math
import random
import sys
from fractions import Fraction as F
import itertools
from itertools import chain

import numpy as np
import pytest

from finiteot import solver
from finiteot.coupling import TransportPlan, _scaled, is_coupling, product_coupling
from finiteot.generators import (
    random_coupling,
    random_point_cloud_space,
    random_rational_measure,
    random_rational_metric_space,
    random_vertex_coupling,
)
from finiteot.measure import DiscreteMeasure, dirac, new_measure
from finiteot.numerics import GlueError, ParameterError, default_tol, infer_mode, mode_of
from finiteot.space import FiniteMetricSpace
from finiteot.wasserstein import (
    GluedPlan,
    WassersteinParams,
    _factor_report,
    glue,
    glued_marginal_13,
    glued_plan_is_valid,
    metric_axiom_suite,
    triangle_witness,
    wasserstein_distance,
)

HALF = F(1, 2)
TWO_POINT = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
LINE3 = FiniteMetricSpace(
    ("0", "1/2", "1"),
    ((0, HALF, 1), (HALF, 0, HALF), (1, HALF, 0)),
)
UNIFORM2 = new_measure([HALF, HALF])


class TestDistance:
    def test_self_distance_zero(self):
        w, plan = wasserstein_distance(UNIFORM2, UNIFORM2, TWO_POINT)
        assert w == 0
        assert plan.matrix[0][1] == 0 and plan.matrix[1][0] == 0

    def test_self_distance_zero_random(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(2, 5)
            space = random_rational_metric_space(rng, n)
            mu = random_rational_measure(rng, n)
            w, _ = wasserstein_distance(mu, mu, space)
            assert w == 0

    def test_diracs_at_distance(self):
        w, _ = wasserstein_distance(dirac(0, 2), dirac(1, 2), TWO_POINT)
        assert w == 1

    def test_quarter_shift_w1(self):
        nu = new_measure([F(1, 4), F(3, 4)])
        w, _ = wasserstein_distance(UNIFORM2, nu, TWO_POINT)
        assert w == F(1, 4)

    def test_w2_takes_root(self):
        params = WassersteinParams(p=2)
        w, _ = wasserstein_distance(dirac(0, 3), dirac(2, 3), LINE3, params)
        assert w == pytest.approx(1.0)

    def test_w2_mixed(self):
        # half the mass moves distance 1/2 under d^2, cost 1/8, W2 = sqrt(1/8)
        mu = new_measure([HALF, HALF, 0])
        nu = new_measure([HALF, 0, HALF])
        w, _ = wasserstein_distance(mu, nu, LINE3, WassersteinParams(p=2))
        assert w == pytest.approx(0.125**0.5)

    def test_order_relation(self):
        # W_p <= W_q for p <= q when the diameter is at most 1
        rng = random.Random(67)
        for _ in range(20):
            mu = random_rational_measure(rng, 3)
            nu = random_rational_measure(rng, 3)
            w1, _ = wasserstein_distance(mu, nu, LINE3, WassersteinParams(p=1))
            w2, _ = wasserstein_distance(mu, nu, LINE3, WassersteinParams(p=2))
            assert float(w1) <= float(w2) + 1e-9

    def test_rejects_bad_p(self):
        with pytest.raises(ParameterError):
            WassersteinParams(p=F(1, 2))

    def test_rejects_a_nan_p(self):
        # nan < 1 is False: the order was taken, and the solve failed later
        # on a "NaN cost entry"
        with pytest.raises(ParameterError, match="order p must be >= 1, got nan"):
            WassersteinParams(p=float("nan"))
        with pytest.raises(ParameterError, match="order p must be >= 1, got nan"):
            TWO_POINT.power_cost(float("nan"))

    def test_plan_is_a_coupling(self):
        mu = new_measure([F(1, 3), F(2, 3)])
        _, plan = wasserstein_distance(mu, UNIFORM2, TWO_POINT)
        assert is_coupling(plan, mu, UNIFORM2, tol=0)[0]


class TestGlue:
    def test_diagonal_chain(self):
        diag = TransportPlan(((HALF, 0), (0, HALF)))
        g = glue(diag, diag)
        assert g.tensor[0][0][0] == HALF and g.tensor[1][1][1] == HALF
        assert g.total_mass() == 1

    def test_product_chain_eighths(self):
        prod = product_coupling(UNIFORM2, UNIFORM2)
        g = glue(prod, prod)
        for sl in g.tensor:
            for row in sl:
                for x in row:
                    assert x == F(1, 8)

    def test_marginals_recovered(self):
        pi12 = TransportPlan(((F(1, 4), F(1, 4)), (HALF, 0)))
        pi23 = TransportPlan(((F(3, 4), 0), (0, F(1, 4))))
        g = glue(pi12, pi23)
        assert g.marginal_12() == pi12.matrix
        assert g.marginal_23() == pi23.matrix

    def test_zero_weight_middle_atom(self):
        # middle point 1 carries no mass; the glued tensor is zero there
        pi12 = TransportPlan(((HALF, 0), (HALF, 0)))
        pi23 = TransportPlan(((1, 0), (0, 0)))
        g = glue(pi12, pi23)
        assert all(
            g.tensor[i][1][k] == 0 for i in range(2) for k in range(2)
        )
        ok, report = glued_plan_is_valid(g, pi12, pi23, tol=0)
        assert ok, report

    def test_mismatched_middle_rejected(self):
        diag = TransportPlan(((HALF, 0), (0, HALF)))
        anti = TransportPlan(((0, HALF), (HALF, 0)))
        skew = TransportPlan(((F(3, 4), 0), (0, F(1, 4))))
        with pytest.raises(GlueError):
            glue(diag, skew)
        # anti-diagonal still has uniform middle, so this one glues fine
        glue(diag, anti)

    def test_random_glues_are_valid(self):
        rng = random.Random(71)
        for _ in range(100):
            n1, n2, n3 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            mu1 = random_rational_measure(rng, n1)
            mu2 = random_rational_measure(rng, n2)
            mu3 = random_rational_measure(rng, n3)
            pi12 = random_coupling(rng, mu1, mu2)
            pi23 = random_coupling(rng, mu2, mu3)
            g = glue(pi12, pi23)
            ok, report = glued_plan_is_valid(g, pi12, pi23, tol=0)
            assert ok, report
            pi13 = glued_marginal_13(g)
            assert is_coupling(pi13, mu1, mu3, tol=0)[0]

    @staticmethod
    def check_against_the_formula(pi12, pi23, mode, tol=None):
        """glue's tensor and glued_marginal_13 against the gluing formula,
        evaluated cell by cell in the plans' own arithmetic: exact plans, int
        ones too, divide by the middle mass as a Fraction."""
        n1, n2, n3 = len(pi12), len(pi23), len(pi23[0])
        mu2 = [sum(pi12[i][j] for i in range(n1)) for j in range(n2)]
        if mode == "rational":
            mu2 = list(map(F, mu2))
        want = [
            [
                [pi12[i][j] * pi23[j][k] / mu2[j] if mu2[j] > 0 else 0 for k in range(n3)]
                for j in range(n2)
            ]
            for i in range(n1)
        ]
        want13 = [
            [sum(want[i][j][k] for j in range(n2)) for k in range(n3)]
            for i in range(n1)
        ]
        g = glue(TransportPlan(pi12), TransportPlan(pi23), tol)
        assert [[list(r) for r in sl] for sl in g.tensor] == want
        flat = [x for sl in g.tensor for r in sl for x in r]
        assert infer_mode(flat) == infer_mode(x for sl in want for r in sl for x in r)
        pi13 = glued_marginal_13(g)
        assert [list(r) for r in pi13.matrix] == want13
        assert pi13.mode == TransportPlan(want13).mode == mode

    @staticmethod
    def int_plans(rng):
        """Two nonnegative int matrices whose middle marginals agree, with one
        middle point of zero mass."""
        n1, n2, n3 = rng.randint(1, 5), rng.randint(2, 5), rng.randint(1, 5)
        pi12 = [[rng.choice((0, 0, rng.randint(1, 9))) for _ in range(n2)] for _ in range(n1)]
        pi12[0][0] += 1
        j0 = rng.randrange(1, n2)
        for row in pi12:
            row[j0] = 0
        pi23 = []
        for j in range(n2):
            total = sum(row[j] for row in pi12)
            cuts = sorted(rng.randint(0, total) for _ in range(n3 - 1))
            pi23.append([b - a for a, b in zip([0] + cuts, cuts + [total])])
        return pi12, pi23

    @staticmethod
    def middle_check_message(pi12, pi23, tol):
        """The message of glue's marginal check, from the check written out on
        the plans' own numbers; None when the plans glue."""
        n2 = len(pi23)
        mid12 = [sum(row[j] for row in pi12) for j in range(n2)]
        worst_j, worst_gap = None, 0
        for j in range(n2):
            gap = abs(mid12[j] - sum(pi23[j]))
            if gap > worst_gap:
                worst_gap, worst_j = gap, j
        if worst_gap > tol:
            return f"middle marginals differ at index {worst_j} by {worst_gap}"
        return None

    def test_tensor_and_marginal_13_match_the_formula(self):
        rng = random.Random(89)
        for trial in range(60):
            exact = trial % 2 == 0
            n1, n2, n3 = rng.randint(1, 5), rng.randint(2, 5), rng.randint(1, 5)
            raw = [0] + [rng.randint(1, 9) for _ in range(n2 - 1)]
            rng.shuffle(raw)  # one middle point of zero mass
            mus = [
                random_rational_measure(rng, n1),
                DiscreteMeasure(tuple(F(w, sum(raw)) for w in raw)),
                random_rational_measure(rng, n3),
            ]
            if not exact:
                mus = [DiscreteMeasure(tuple(map(float, mu.weights))) for mu in mus]
            # vertices are sparse, mixtures dense
            make = random_vertex_coupling if trial % 4 < 2 else random_coupling
            pi12 = make(rng, mus[0], mus[1]).matrix
            pi23 = make(rng, mus[1], mus[2]).matrix
            self.check_against_the_formula(pi12, pi23, "rational" if exact else "float")
            if exact:
                self.check_against_the_formula(pi12, pi23, "rational", tol=F(1, 10**9))
        # two int plans glue exactly, as an int plan and a Fraction plan do
        rng = random.Random(97)
        for _ in range(40):
            pi12, pi23 = self.int_plans(rng)
            self.check_against_the_formula(pi12, pi23, "rational")
            self.check_against_the_formula(pi12, [[F(y) for y in row] for row in pi23], "rational")
        # mismatched middles raise with the message of the check written out
        rng = random.Random(101)
        for trial in range(60):
            n = rng.randint(2, 5)
            mus = [random_rational_measure(rng, n) for _ in range(3)]
            pi12 = [list(r) for r in random_coupling(rng, mus[0], mus[1]).matrix]
            pi23 = [list(r) for r in random_coupling(rng, mus[1], mus[2]).matrix]
            # move some mass of pi23 from one middle row to another
            j, k = rng.sample(range(n), 2)
            delta = F(rng.randint(1, 5), rng.choice((7, 10**6, 10**12)))
            pi23[j][0] += delta
            pi23[k][-1] += delta * rng.choice((-1, 0, 2))
            exact = trial % 3 != 1
            if not exact:
                pi12 = [[float(x) for x in r] for r in pi12]
                pi23 = [[float(x) for x in r] for r in pi23]
            for tol in (None, 0, F(1, 10**9), 1e-9, F(1, 5)):
                want_tol = (0 if exact else 1e-9) if tol is None else tol
                want = self.middle_check_message(pi12, pi23, want_tol)
                if want is None:
                    glue(TransportPlan(pi12), TransportPlan(pi23), tol)
                    continue
                with pytest.raises(GlueError) as info:
                    glue(TransportPlan(pi12), TransportPlan(pi23), tol)
                assert str(info.value) == want

    def test_sparse_marginal_13_matches_the_dense_product(self):
        """The product over P's nonzero cells against (P * f) @ Q, cell for
        cell in type and value, on vertex plans, mixtures and solver plans,
        and on the solver plans' matrices glued from their cells."""
        rng = random.Random(131)
        for trial in range(120):
            n = rng.randint(1, 6)
            mus = [random_rational_measure(rng, n) for _ in range(3)]
            if trial % 3 == 2:
                space = random_rational_metric_space(rng, n)
                plans = [wasserstein_distance(mus[k], mus[k + 1], space)[1] for k in (0, 1)]
            else:
                make = random_vertex_coupling if trial % 3 == 0 else random_coupling
                plans = [make(rng, mus[k], mus[k + 1]) for k in (0, 1)]
            g = glue(*plans)
            P, _, Q, s23 = g._integer_factors
            mass = P.sum(axis=0).tolist()
            L = math.lcm(*(m for m in mass if m > 0))
            f = np.array([L // m if m > 0 else 0 for m in mass], dtype=object)
            dense = [[F(x, s23 * L) if x else 0 for x in row] for row in ((P * f) @ Q).tolist()]
            typed = [[(type(x), x) for x in row] for row in dense]
            for glued in (g, glue(*(TransportPlan(p.matrix) for p in plans))):
                pi13 = glued_marginal_13(glued)
                assert [[(type(x), x) for x in row] for row in pi13.matrix] == typed

    def test_solver_plans_glue_as_their_matrices_do(self):
        """Two solver plans glue on their scaled ints, and build no matrix
        until one is asked for: the same shape, middle marginal, 1-3 plan,
        tensor and marginals, in type and value, as glue_reference finds
        cell by cell from their matrices, zero-mass middle atoms included."""
        rng = random.Random(151)
        for _ in range(40):
            n = rng.randint(1, 7)
            space = random_rational_metric_space(rng, n)
            mus = [random_rational_measure(rng, n) for _ in range(3)]
            plans = [wasserstein_distance(mus[k], mus[k + 1], space)[1] for k in (0, 1)]
            g = glue(*plans)
            pi13 = glued_marginal_13(g)
            assert all("matrix" not in vars(p) for p in plans)  # read off the ints
            want = glue_reference(*(p.matrix for p in plans))
            assert g.shape == (n, n, n) and typed(g.mu2) == typed(want["mu2"])
            assert typed(pi13.matrix) == typed(want["pi13"])
            assert typed(g.tensor) == typed(want["tensor"])
            for name in ("marginal_12", "marginal_23", "total_mass"):
                assert typed(getattr(g, name)()) == typed(want[name])
            assert g == glue(*(TransportPlan(p.matrix) for p in plans))
            assert (g.pi12, g.pi23) == tuple(p.matrix for p in plans)

    def test_glued_plan_keeps_its_factors(self):
        pi12 = TransportPlan(((F(1, 4), F(1, 4)), (HALF, 0)))
        pi23 = TransportPlan(((F(3, 4), 0), (0, F(1, 4))))
        g = glue(pi12, pi23)
        assert (g.pi12, g.pi23) == (pi12.matrix, pi23.matrix)
        assert "tensor" not in vars(g)  # built on demand only
        assert g.mu2 == (F(3, 4), F(1, 4)) and g.shape == (2, 2, 2)
        assert g == glue(pi12, pi23) and hash(g) == hash(glue(pi12, pi23))


def glue_reference(pi12, pi23):
    """The glued plan of two exact plans, cell by cell from their matrices:
    the middle marginal as Fractions, the tensor, its marginals and total
    mass, and the 1-3 plan, a Fraction on each nonzero cell and an int 0
    elsewhere."""
    n1, n2, n3 = len(pi12), len(pi23), len(pi23[0])
    mu2 = tuple(F(sum(row[j] for row in pi12)) for j in range(n2))
    tensor = tuple(
        tuple(
            tuple(x * y / m for y in row23) if x and m > 0 else (0,) * n3
            for x, m, row23 in zip(row, mu2, pi23)
        )
        for row in pi12
    )
    t = tensor
    return {
        "mu2": mu2,
        "tensor": tensor,
        "marginal_12": tuple(
            tuple(sum(t[i][j][k] for k in range(n3)) for j in range(n2)) for i in range(n1)
        ),
        "marginal_23": tuple(
            tuple(sum(t[i][j][k] for i in range(n1)) for k in range(n3)) for j in range(n2)
        ),
        "total_mass": sum(sum(sum(r) for r in sl) for sl in tensor),
        "pi13": tuple(
            tuple(sum(t[i][j][k] for j in range(n2)) or 0 for k in range(n3)) for i in range(n1)
        ),
    }


def typed(x):
    """x with every number as (type, value), to compare types as well."""
    if isinstance(x, tuple):
        return tuple(map(typed, x))
    return type(x), x


def count_fractions_built(monkeypatch, run):
    """run() with the Fractions it builds counted, and the simplex uncounted,
    as its pivots are its own work; returns (result, count)."""
    new = F.__new__.__code__
    built = 0

    def count(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is new

    engine = solver.transportation_simplex

    def uncounted(*args, **kwargs):
        sys.setprofile(None)
        try:
            return engine(*args, **kwargs)
        finally:
            sys.setprofile(count)

    monkeypatch.setattr(solver, "transportation_simplex", uncounted)
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, built


def test_gluing_solver_plans_builds_no_fractions(monkeypatch):
    """Two 100 x 100 solver plans glue, and give their 1-3 plan, on their
    scaled ints: no Fraction is built (the matrices alone would build one
    per nonzero cell and check the type of all 10,000)."""
    n = 100
    rng = random.Random(100)
    cost = [[rng.randint(0, 1000) for _ in range(n)] for _ in range(n)]
    mus = [
        DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw))
        for raw in ([rng.randint(1, 1000) for _ in range(n)] for _ in range(3))
    ]
    plans = [solver.solve_kantorovich(mus[k], mus[k + 1], cost).plan for k in (0, 1)]
    pi13, built = count_fractions_built(
        monkeypatch, lambda: glued_marginal_13(glue(*plans))
    )
    assert built == 0, f"{built} Fractions built"
    assert is_coupling(pi13, mus[0], mus[2], tol=0)[0]


def reference_glued_plan_is_valid(g, pi12, pi23, tol=None):
    """glued_plan_is_valid as it was before it read exact plans' integer
    factors: every marginal cell and the mass summed from the tensor."""
    if tol is None:
        tol = default_tol(mode_of(pi12, pi23))
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


def glued_plan_battery(rng, exact):
    """(g, pi12, pi23, tol) with the cases the report must keep: middle
    marginals that differ, zero-mass middle atoms, plans given to the check
    that differ from g's by a cell or by their mass, solver plans with their
    Fraction zeros, and several tolerances."""
    def plan(rows):
        return TransportPlan(rows if exact else tuple(tuple(map(float, row)) for row in rows))

    for trial in range(400):
        n1, n2, n3 = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        mu1, mu2, mu3 = (random_rational_measure(rng, n) for n in (n1, n2, n3))
        pi12 = random_coupling(rng, mu1, mu2)
        middle = mu2 if rng.random() < 0.6 else random_rational_measure(rng, n2)
        pi23 = random_coupling(rng, middle, mu3)
        if trial % 10 == 0:  # the solver's plans, with Fraction(0) cells
            cost = [[rng.randint(0, 9) for _ in range(n2)] for _ in range(n1)]
            pi12 = solver.solve_kantorovich(mu1, middle, cost).plan
        if not exact:
            pi12, pi23 = plan(pi12.matrix), plan(pi23.matrix)
        given12, given23 = pi12, pi23
        if trial % 3 == 1:  # a cell moved, or the mass scaled
            cells = [list(row) for row in pi12.matrix]
            cells[rng.randrange(n1)][rng.randrange(n2)] += F(1, rng.randint(2, 9))
            given12 = plan(cells)
        if trial % 5 == 2:
            given23 = plan([[x * 2 for x in row] for row in pi23.matrix])
        tol = rng.choice((None, 0, F(1, 40), 0.01, -1 if trial % 50 == 0 else 0))
        yield GluedPlan(pi12, pi23), given12, given23, tol


@pytest.mark.parametrize("exact", [True, False])
def test_glued_plan_is_valid_repeats_the_tensor_sums(exact):
    """The same reports as the tensor's sums, entry for entry and in order,
    with exact magnitudes: on the integer factors when every plan is exact,
    and on the tensor, as before, otherwise."""
    failing = 0
    for g, pi12, pi23, tol in glued_plan_battery(random.Random(91), exact):
        got = glued_plan_is_valid(g, pi12, pi23, tol)
        want = reference_glued_plan_is_valid(g, pi12, pi23, tol)
        assert got == want, (g, pi12, pi23, tol)
        assert [type(m) is float for _, m in got[1]] == [not exact] * len(got[1])
        failing += not got[0]
    assert 100 < failing < 350


def test_glued_plan_is_valid_builds_no_tensor_on_exact_plans(monkeypatch):
    """Two 24-point rational solver plans are checked on their integer
    factors: the n1 n2 n3 tensor is never built."""
    space = random_rational_metric_space(random.Random(24), 24)
    rng = random.Random(25)
    mus = [random_rational_measure(rng, 24) for _ in range(3)]
    _, pi12 = wasserstein_distance(mus[0], mus[1], space)
    _, pi23 = wasserstein_distance(mus[1], mus[2], space)
    g = glue(pi12, pi23)
    monkeypatch.setattr(GluedPlan, "tensor", property(lambda self: pytest.fail("tensor built")))
    assert glued_plan_is_valid(g, pi12, pi23) == (True, [])
    assert glued_plan_is_valid(g, pi23, pi12, tol=0)[0] is False


def reference_glue(pi12, pi23):
    """glue's check of two exact plans on object arrays, as the
    library ran it before it summed the plans' rows as Python ints."""
    g = GluedPlan(pi12, pi23)
    P, s12, Q, s23 = g._integer_factors
    gaps = np.abs(P.sum(axis=0) * s23 - Q.sum(axis=1) * s12).tolist()
    worst_j = max(range(len(gaps)), key=gaps.__getitem__)
    if gaps[worst_j]:
        raise GlueError(
            f"middle marginals differ at index {worst_j} by {F(gaps[worst_j], s12 * s23)}"
        )
    return g


def reference_glued_marginal_13(g):
    """glued_marginal_13 of an exact glued plan on object arrays, as the
    library ran it before it took Q's nonzero cells: np.add.at over P's."""
    P, _, Q, s23 = g._integer_factors
    mass = P.sum(axis=0).tolist()
    L = math.lcm(*(m for m in mass if m > 0))
    f = np.array([L // m if m > 0 else 0 for m in mass], dtype=object)
    i, j = P.nonzero()
    product = np.zeros((P.shape[0], Q.shape[1]), dtype=object)
    np.add.at(product, i, (P[i, j] * f[j])[:, None] * Q[j])
    return TransportPlan._of_array(product, scale=s23 * L, zero=0)


def exact_glue_battery(rng):
    """(pi12, pi23) of exact plans: basic solver plans of n up to 300,
    dense product couplings, and both with zero-mass middle atoms; every
    third pair has a pi23 whose middle marginal differs."""
    def measure(n, zeros=False):
        raw = [rng.randint(0 if zeros and k else 1, 30) for k in range(n)]
        return DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw))

    for trial, n in enumerate((1, 2, 3, 5, 8, 13, 21, 40, 90, 300, 2, 4, 7, 12, 30, 60)):
        product = trial >= 10
        zeros = trial % 2 == 1
        mus = [measure(n), measure(n, zeros), measure(n)]
        other = measure(n, zeros)
        if product:
            plans = [product_coupling(mus[0], mus[1]), product_coupling(mus[1], mus[2])]
            wrong = product_coupling(other, mus[2])
        else:
            cost = [[rng.randint(0, 50) for _ in range(n)] for _ in range(n)]
            plans = [solver.solve_kantorovich(mus[k], mus[k + 1], cost).plan for k in (0, 1)]
            wrong = solver.solve_kantorovich(other, mus[2], cost).plan
        yield plans
        if n > 1 and other != mus[1]:
            yield plans[0], wrong


def test_exact_gluing_matches_the_object_array_reference():
    """glue and glued_marginal_13 on the plans' rows as Python ints give
    the object-array reference's middle marginal, 1-3 ints, scale and
    cells, the same GlueError index and gap on mismatched middles, and
    glued_plan_is_valid's verdicts."""
    glued = refused = 0
    for pi12, pi23 in exact_glue_battery(random.Random(303)):
        try:
            want = reference_glue(pi12, pi23)
        except GlueError as exc:
            with pytest.raises(GlueError) as raised:
                glue(pi12, pi23)
            assert str(raised.value) == str(exc)
            refused += 1
            continue
        g = glue(pi12, pi23)
        P, s12 = g._integer_factors[:2]
        assert typed(g.mu2) == typed(tuple(F(c, s12) for c in P.sum(axis=0).tolist()))
        got13, want13 = glued_marginal_13(g), reference_glued_marginal_13(want)
        assert got13._scale == want13._scale
        assert typed(tuple(map(tuple, got13._array.tolist()))) == typed(
            tuple(map(tuple, want13._array.tolist()))
        )
        assert typed(got13.matrix) == typed(want13.matrix)
        assert glued_plan_is_valid(g, pi12, pi23) == (True, [])
        if g.shape[0] <= 13:
            assert glued_plan_is_valid(g, pi12, pi23) == reference_glued_plan_is_valid(want, pi12, pi23)
            assert glued_plan_is_valid(g, pi23, pi12, tol=0) == reference_glued_plan_is_valid(
                want, pi23, pi12, tol=0
            )
        glued += 1
    assert glued == 16 and refused > 10, (glued, refused)


def reference_factor_report(g, pi12, pi23, tol):
    """_factor_report on numpy object arrays, as the library ran it before
    it took the plans' rows as Python ints over their nonzero cells."""
    factors, wanted = g._integer_factors, (_scaled(pi12), _scaled(pi23))
    p, q = F(tol).as_integer_ratio()
    P, _, Q, s23 = factors
    (A, sa, _), (B, sb, _) = wanted
    M, R = P.sum(axis=0), Q.sum(axis=1)
    kept = M > 0
    den = np.where(kept, M * s23, 1)  # of the (1,2) marginal, per column
    gap12 = np.abs(np.where(kept, P * R, 0) * sa - A * den)
    den12 = den * sa
    gap23 = np.abs(np.where(kept[:, None], Q, 0) * sb - B * s23)
    den23 = s23 * sb
    report = [
        ("(1,2)", F(gap12[i, j], den12[j])) for i, j in zip(*np.nonzero(gap12 * q > p * den12))
    ]
    report += [("(2,3)", F(gap23[j, k], den23)) for j, k in zip(*np.nonzero(gap23 * q > p * den23))]
    mass_gap = abs(sum(R[kept].tolist()) - s23)
    if mass_gap * q > p * s23:
        report.append(("total_mass", F(mass_gap, s23)))
    return report


def test_factor_report_matches_the_object_array_reference():
    """The same gaps, as the same Fractions in the same order, as the
    object-array reference: for g's own plans, for the two swapped, and for
    middles that differ (g glued with no check), at several tolerances.
    A negative tolerance never reaches it: glued_plan_is_valid refuses one."""
    reported = 0
    for pi12, pi23 in exact_glue_battery(random.Random(304)):
        g = GluedPlan(pi12, pi23)
        for given, tol in itertools.product(((pi12, pi23), (pi23, pi12)), (0, F(1, 40), 1e-3)):
            got = _factor_report(g, *given, tol)
            assert got == reference_factor_report(g, *given, tol), (g.shape, tol)
            assert all(type(gap) is F for _, gap in got)
            reported += len(got)
        with pytest.raises(ParameterError):
            glued_plan_is_valid(g, pi12, pi23, -1)
    assert reported > 1000, reported


class TestTriangleWitness:
    def test_degenerate_triangle(self):
        out = triangle_witness(UNIFORM2, UNIFORM2, UNIFORM2, TWO_POINT)
        assert out["holds"] and out["w13"] == 0

    def test_diracs_on_line(self):
        out = triangle_witness(dirac(0, 3), dirac(1, 3), dirac(2, 3), LINE3)
        assert out["holds"]
        assert out["w12"] == HALF and out["w23"] == HALF and out["w13"] == 1
        assert out["glued_cost_13"] == 1

    def test_random_triples(self):
        rng = random.Random(73)
        for p in (1, 2):
            params = WassersteinParams(p=p)
            for _ in range(30):
                n = rng.randint(2, 4)
                space = random_rational_metric_space(rng, n)
                mus = [random_rational_measure(rng, n) for _ in range(3)]
                out = triangle_witness(*mus, space, params)
                assert out["holds"], out


def test_rational_witness_builds_few_fractions(monkeypatch):
    """A rational triangle witness on a 16-point integer metric space glues
    its plans on scaled ints: Fractions are built for the nonzero cells of
    the three optimal plans and of the 1-3 plan, not per cell of the
    n^3 = 4,096-cell tensor.  Counted, not timed, so the bound holds on any
    host; the simplex runs uncounted, as its pivots are its own work."""
    n = 16
    rng = random.Random(16)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 20)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    space = FiniteMetricSpace(tuple(map(str, range(n))), d)
    mus = [
        DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw))
        for raw in ([rng.randint(1, 1000) for _ in range(n)] for _ in range(3))
    ]
    out, built = count_fractions_built(monkeypatch, lambda: triangle_witness(*mus, space))
    assert out["holds"] and type(out["glued_cost_13"]) is F
    assert built < n * n, f"{built} Fractions built for a {n}-point witness"


def reference_axiom_suite(measures, space, params):
    """metric_axiom_suite as it was, re-solving W(i, i) for its symmetry check."""
    from finiteot.coupling import _sum_cells
    from finiteot.measure import measures_equal
    from finiteot.numerics import default_tol

    k = len(measures)
    dist, plans = {}, {}
    for i in range(k):
        for j in range(i, k):
            dist[i, j], plans[i, j] = wasserstein_distance(measures[i], measures[j], space, params)
    tol = params.tol
    if tol is None:
        tol = default_tol(infer_mode(dist.values()))
    axioms = "nonnegativity", "symmetry", "identity", "discernibility", "triangle"
    failures = {axiom: [] for axiom in axioms}
    for i in range(k):
        if dist[(i, i)] > tol:
            failures["identity"].append({"i": i, "value": dist[(i, i)]})
        for j in range(i, k):
            if dist[(i, j)] < -tol:
                failures["nonnegativity"].append({"i": i, "j": j, "value": dist[(i, j)]})
            w_ji, _ = wasserstein_distance(measures[j], measures[i], space, params)
            if abs(dist[(i, j)] - w_ji) > tol:
                failures["symmetry"].append({"i": i, "j": j, "w_ij": dist[(i, j)], "w_ji": w_ji})
            if i != j and dist[(i, j)] <= tol:
                wtol = tol / space.min_positive_distance() if tol else 0
                off_diag = _sum_cells(plans[(i, j)], ~np.eye(space.n, dtype=bool))
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
                    failures["triangle"].append({"i": i, "j": j, "k": l, "gap": gap})
    return {
        "p": params.p,
        "n_measures": k,
        "passed": all(not v for v in failures.values()),
        "failures": failures,
        "distances": {f"{i},{j}": dist[(i, j)] for i, j in dist},
    }


class TestMetricSuite:
    def test_two_point_family(self):
        measures = [
            UNIFORM2,
            dirac(0, 2),
            dirac(1, 2),
            new_measure([F(1, 4), F(3, 4)]),
        ]
        report = metric_axiom_suite(measures, TWO_POINT)
        assert report["passed"], report["failures"]

    def test_float_point_cloud(self):
        rng = random.Random(79)
        space = random_point_cloud_space(rng, 5)
        measures = [
            new_measure([float(w) for w in random_rational_measure(rng, 5).weights])
            for _ in range(4)
        ]
        for p in (1, 2):
            report = metric_axiom_suite(
                measures, space, WassersteinParams(p=p, tol=1e-9)
            )
            assert report["passed"], report["failures"]

    @pytest.mark.parametrize("seed", range(5))
    def test_float_mode_on_rational_measures(self, seed):
        # the tolerance follows the float distances, not the exact weights
        rng = random.Random(seed)
        space = random_rational_metric_space(rng, 8)
        measures = [random_rational_measure(rng, 8) for _ in range(5)]
        report = metric_axiom_suite(measures, space, WassersteinParams(p=1, mode="float"))
        assert report["passed"], report["failures"]

    def test_duplicate_measures_share_identity(self):
        report = metric_axiom_suite([UNIFORM2, UNIFORM2], TWO_POINT)
        assert report["passed"]

    def test_an_infinite_tol_on_one_point(self):
        # the weight tolerance was inf / inf, a NaN: a false discernibility
        # failure, and a NaN tol for measures_equal once tols are checked
        point, dirac1 = FiniteMetricSpace(("a",), ((0,),)), new_measure((1,))
        for tol in (float("inf"), 0.5, 0):
            assert metric_axiom_suite([dirac1, dirac1], point, WassersteinParams(tol=tol))["passed"]

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_skips_the_self_pairs(self, seed, monkeypatch):
        # k^2 solves, not k^2 + k: the same reports as when W(i, i) was
        # solved again, in both modes
        import finiteot.wasserstein as w

        rng = random.Random(seed)
        k, n = 5, 6
        exact = random_rational_metric_space(rng, n)
        cloud = random_point_cloud_space(rng, n)
        exacts, floats = [random_rational_measure(rng, n) for _ in range(k)], []
        for _ in range(k):
            floats.append(new_measure([float(x) for x in random_rational_measure(rng, n).weights]))
        batteries = [
            (exacts, exact, WassersteinParams()),
            (exacts, exact, WassersteinParams(mode="float")),
            (floats, cloud, WassersteinParams(p=2)),
        ]
        solve, solves = w.solve_kantorovich, []

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(w, "solve_kantorovich", counted)
        for measures, space, params in batteries:
            solves.clear()
            report = metric_axiom_suite(measures, space, params)
            assert len(solves) == k * k
            assert report == reference_axiom_suite(measures, space, params)

    def test_every_test_reads_the_solves_made(self, monkeypatch):
        # W(j, i) is solved with the arguments swapped: the symmetry test and
        # the triangle test read it, where the triangle test read W(i, j)
        import finiteot.wasserstein as w

        measures = [UNIFORM2, dirac(0, 2), dirac(1, 2)]
        table = {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1, (1, 2): 1, (2, 1): 5}
        solves = []

        def distance(mu, nu, space, params):
            pair = measures.index(mu), measures.index(nu)
            solves.append(pair)
            return F(table.get(pair, 0)), None

        monkeypatch.setattr(w, "wasserstein_distance", distance)
        report = metric_axiom_suite(measures, TWO_POINT)
        assert sorted(solves) == [(i, j) for i in range(3) for j in range(3)]
        assert report["failures"]["symmetry"] == [{"i": 1, "j": 2, "w_ij": 1, "w_ji": 5}]
        assert report["failures"]["triangle"] == [{"i": 2, "j": 0, "k": 1, "gap": 3}]
        assert list(report["distances"]) == ["0,0", "0,1", "0,2", "1,1", "1,2", "2,2"]

    def test_needs_two(self):
        from finiteot.numerics import DomainError

        with pytest.raises(DomainError):
            metric_axiom_suite([UNIFORM2], TWO_POINT)
