import random
import sys
from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest
from conftest import count_calls, count_python_calls

from finiteot import solver
from finiteot.coupling import TransportPlan, is_coupling, product_coupling
from finiteot.generators import (
    random_cost,
    random_coupling,
    random_positive_rational_measure,
    random_rational_measure,
    random_rational_metric_space,
)
from finiteot.measure import DiscreteMeasure, new_measure
from finiteot.numerics import (
    FLOAT_TOL,
    INF,
    DataError,
    ParameterError,
    ShapeError,
    is_inf,
    pricing_tol,
)
from finiteot.solver import (
    check_lower_bound,
    cost_of_plan,
    oracle_basis_enumeration,
    oracle_permutation,
    solve_kantorovich,
    verify_restriction_optimality,
)
from finiteot.solver import simplex
from finiteot.solver.simplex import transportation_simplex
from finiteot.space import CostMatrix

HALF = F(1, 2)
UNIFORM2 = new_measure([HALF, HALF])
D2 = ((0, 1), (1, 0))  # two-point unit space distance
D3 = ((0, 1, 2), (1, 0, 1), (2, 1, 0))  # three points on a line


def forbidden_instance(seed, n, exact, density=0.75):
    """Seeded n x n problem with about `density` of its cells at +inf."""
    rng = random.Random(seed)
    mu1 = random_positive_rational_measure(rng, n)
    mu2 = random_positive_rational_measure(rng, n)
    cost = tuple(
        tuple(INF if rng.random() < density else F(rng.randint(0, 20)) for _ in range(n))
        for _ in range(n)
    )
    if exact:
        return mu1, mu2, cost
    return (
        DiscreteMeasure(tuple(map(float, mu1.weights))),
        DiscreteMeasure(tuple(map(float, mu2.weights))),
        tuple(tuple(map(float, row)) for row in cost),
    )


def check_hall_cut(cert, mu1, mu2, cost):
    """Check an infeasibility certificate from the cost matrix alone."""
    rows = cert["rows"]
    cols = sorted({j for i in rows for j in range(mu2.n) if not is_inf(cost[i][j])})
    assert cert["reachable_columns"] == cols
    assert cert["row_mass"] == sum(mu1.weights[i] for i in rows)
    assert cert["column_mass"] == sum(mu2.weights[j] for j in cols)
    assert cert["row_mass"] > cert["column_mass"]


#: (seed, n, exact, rows, reachable_columns) of forbidden_instance cuts, as
#: found by the max-flow (Edmonds-Karp) feasibility check the solver ran
#: before it read infeasibility off its own optimal plan
PINNED_CUTS = [
    (1, 12, True, [8, 9, 10], [6, 7, 9, 11]),
    (7, 12, True, [0, 2, 4, 7, 10, 11], [0, 2, 3, 4, 9]),
    (7, 10, False, [0, 1, 2, 5, 9], [1, 2, 4, 8]),
]


class TestCostOfPlan:
    def test_zero_cost(self):
        plan = product_coupling(UNIFORM2, UNIFORM2)
        assert cost_of_plan(plan, ((0, 0), (0, 0))) == 0

    def test_single_cell(self):
        assert cost_of_plan(((0, 1), (0, 0)), D2) == 1

    def test_zero_times_inf_is_zero(self):
        plan = ((HALF, 0), (0, HALF))
        cost = ((0, INF), (0, 0))
        assert cost_of_plan(plan, cost) == 0

    def test_positive_mass_on_inf_cell(self):
        assert is_inf(cost_of_plan(((HALF, HALF), (0, 0)), ((0, INF), (0, 0))))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cost_of_plan(((1,),), D2)

    @pytest.mark.parametrize(
        "cost, error",
        [
            (((-INF, 0.0), (0.0, 0.0)), "-inf cost entry"),  # was +inf
            (((float("nan"), 0.0), (0.0, 0.0)), "NaN cost entry"),  # was nan
            (((0.0, 1.0), (1.0,)), "not rectangular"),  # was numpy's ValueError
        ],
    )
    def test_bad_costs_are_refused_as_every_cost_is(self, cost, error):
        kind = ShapeError if error == "not rectangular" else DataError
        for plan in (((1, 0), (0, 0)), ((1.0, 0.0), (0.0, 0.0))):
            with pytest.raises(kind, match=error):
                cost_of_plan(plan, cost)

    @staticmethod
    def loop_reference(matrix, cost):
        """cost_of_plan as the cell-by-cell loop it used to be."""
        total = 0
        for crow, prow in zip(cost, matrix):
            for cij, pij in zip(crow, prow):
                if pij:
                    term = INF if is_inf(cij) else cij * pij
                    if is_inf(term):
                        return INF
                    total += term
        return total

    #: (plan cell kinds, cost cell kinds) of each family
    FAMILIES = {
        "exact": ("int fraction", "int fraction"),
        "int": ("int", "int"),
        "fraction plan, float costs": ("fraction", "float"),
        "float plan, exact costs": ("float", "int fraction"),
        "float": ("float", "float"),
    }

    @staticmethod
    def number(rng, kinds, low, high):
        kind = rng.choice(kinds.split())
        if kind == "int":
            return rng.randint(low, high)
        if kind == "fraction":
            return F(rng.randint(low * 7, high * 7), rng.choice((1, 3, 7, 10**6)))
        return rng.uniform(low, high)

    def test_every_family_matches_the_loop(self):
        rng = random.Random(43)
        for trial in range(500):
            plan_kinds, cost_kinds = list(self.FAMILIES.values())[trial % len(self.FAMILIES)]
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            zero = {"int": 0, "fraction": F(0), "float": 0.0}[rng.choice(plan_kinds.split())]
            mass = 0 if trial % 11 == 0 else 0.4  # some plans carry no mass
            plan = [
                [self.number(rng, plan_kinds, 0, 9) if rng.random() < mass else zero
                 for _ in range(m)]
                for _ in range(n)
            ]
            cost = [[self.number(rng, cost_kinds, -5, 20) for _ in range(m)] for _ in range(n)]
            for i in range(n):
                for j in range(m):
                    # +inf on cells without mass, and on a cell with mass in a few plans
                    if rng.random() < 0.2 and (not plan[i][j] or trial % 3 == 0):
                        cost[i][j] = INF
            if trial % 2:
                cost = CostMatrix(cost)
            value = cost_of_plan(TransportPlan(plan), cost)
            want = self.loop_reference(plan, cost.cost if trial % 2 else cost)
            assert (type(value), repr(value)) == (type(want), repr(want)), (plan, cost)


class TestLowerBound:
    def test_zero_pair(self):
        cm = CostMatrix(D2, lower_bound=((0, 0), (0, 0)))
        plan = product_coupling(UNIFORM2, UNIFORM2)
        bound, cost, holds = check_lower_bound(cm, UNIFORM2, UNIFORM2, plan)
        assert bound == 0 and cost == HALF and holds

    def test_negative_bound(self):
        cm = CostMatrix(
            ((-1, 0), (0, -1)), lower_bound=((-1, -1), (0, 0))
        )
        plan = product_coupling(UNIFORM2, UNIFORM2)
        bound, cost, holds = check_lower_bound(cm, UNIFORM2, UNIFORM2, plan)
        assert bound == -1 and cost >= bound and holds

    def test_missing_pair(self):
        with pytest.raises(ParameterError):
            check_lower_bound(CostMatrix(D2), UNIFORM2, UNIFORM2, None)

    def test_bound_is_coupling_independent(self):
        # the integral of a1 (+) a2 is the same against every coupling
        rng = random.Random(2)
        a1 = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        a2 = tuple(F(rng.randint(-3, 3)) for _ in range(4))
        mu1 = random_rational_measure(rng, 3)
        mu2 = random_rational_measure(rng, 4)
        sep = tuple(tuple(x + y for y in a2) for x in a1)
        expected = cost_of_plan(product_coupling(mu1, mu2), sep)
        for _ in range(20):
            plan = random_coupling(rng, mu1, mu2)
            assert cost_of_plan(plan, sep) == expected

    def test_tight_float_pair_holds(self):
        # c_ij = a1_i + a2_j: every plan costs the bound, up to rounding,
        # which the float mode's default tolerance absorbs
        rng = random.Random(7)
        for _ in range(300):
            n, m = rng.randint(2, 8), rng.randint(2, 8)
            a1 = tuple(rng.uniform(0, 10) for _ in range(n))
            a2 = tuple(rng.uniform(0, 10) for _ in range(m))
            cm = CostMatrix(tuple(tuple(x + y for y in a2) for x in a1), lower_bound=(a1, a2))
            w1, w2 = ([rng.random() + 0.01 for _ in range(k)] for k in (n, m))
            mu1, mu2 = (new_measure([x / sum(w) for x in w]) for w in (w1, w2))
            plan = solve_kantorovich(mu1, mu2, cm).plan
            bound, cost, holds = check_lower_bound(cm, mu1, mu2, plan)
            assert holds and abs(cost - bound) <= 1e-12 * (1 + bound), (bound, cost)


class TestSolve:
    def test_forced_single_plan(self):
        sol = solve_kantorovich(new_measure([1, 0]), new_measure([0, 1]), D2)
        assert sol.optimal_cost == 1

    def test_identical_measures_cost_zero(self):
        sol = solve_kantorovich(UNIFORM2, UNIFORM2, D2)
        assert sol.optimal_cost == 0

    def test_quarter_shift(self):
        sol = solve_kantorovich(UNIFORM2, new_measure([F(1, 4), F(3, 4)]), D2)
        assert sol.optimal_cost == F(1, 4)

    def test_returned_plan_is_coupling(self):
        rng = random.Random(7)
        for _ in range(50):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            sol = solve_kantorovich(mu1, mu2, random_cost(rng, n, m))
            assert is_coupling(sol.plan, mu1, mu2, tol=0)[0]

    def test_negative_costs_allowed(self):
        cost = ((-2, -1), (-1, -3))
        sol = solve_kantorovich(UNIFORM2, UNIFORM2, cost)
        assert sol.optimal_cost == oracle_basis_enumeration(UNIFORM2, UNIFORM2, cost).optimal_cost

    def test_monotone_in_cost(self):
        rng = random.Random(13)
        for _ in range(30):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            c = random_cost(rng, n, m)
            bump = tuple(
                tuple(F(rng.randint(0, 4)) for _ in range(m)) for _ in range(n)
            )
            c2 = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(c, bump))
            assert (
                solve_kantorovich(mu1, mu2, c2).optimal_cost
                >= solve_kantorovich(mu1, mu2, c).optimal_cost
            )

    def test_forbidden_arcs_feasible(self):
        cost = ((0, INF), (5, 1))
        sol = solve_kantorovich(UNIFORM2, UNIFORM2, cost)
        assert sol.optimal_cost == HALF
        assert sol.plan.matrix[0][1] == 0

    def test_infeasible_gives_certificate(self):
        cost = ((INF, INF), (0, 0))
        sol = solve_kantorovich(UNIFORM2, UNIFORM2, cost)
        assert not sol.feasible
        cert = sol.infeasibility_certificate
        assert cert["rows"] == [0]
        assert cert["row_mass"] > cert["column_mass"]
        for seed, n, exact, rows, cols in PINNED_CUTS:
            mu1, mu2, cost = forbidden_instance(seed, n, exact)
            sol = solve_kantorovich(mu1, mu2, cost)
            assert sol.plan is None and not sol.feasible
            cert = sol.infeasibility_certificate
            assert (cert["rows"], cert["reachable_columns"]) == (rows, cols)
            check_hall_cut(cert, mu1, mu2, cost)
            # iterations counts the simplex pivots that found the cut; every
            # weight is positive, so the engine's input is the whole problem
            assert min(mu1.weights) > 0 and min(mu2.weights) > 0
            rel_tol = FLOAT_TOL if sol.mode == "float" else 0  # as the solve prices
            _, pivots = transportation_simplex(mu1.weights, mu2.weights, cost, 0, rel_tol)
            assert sol.iterations == pivots > 0

    def test_numpy_integer_costs_in_rational_mode(self):
        mu1, mu2 = new_measure([HALF, F(1, 4), F(1, 4)]), new_measure([F(1, 8), F(3, 8), HALF])
        sol = solve_kantorovich(mu1, mu2, D3, mode="rational")
        numpy_ints = [[np.int64(x) for x in row] for row in D3]
        assert solve_kantorovich(mu1, mu2, numpy_ints, mode="rational") == sol
        assert type(sol.optimal_cost) is F

    def test_rational_certificate_masses_are_fractions(self):
        # integer weights included: the masses are Fractions all the same
        cases = [(DiscreteMeasure((1, 0)), DiscreteMeasure((1, 0)), ((INF, 0), (0, 0)))]
        cases += [forbidden_instance(seed, n, True) for seed, n, exact, _, _ in PINNED_CUTS if exact]
        for mu1, mu2, cost in cases:
            sol = solve_kantorovich(mu1, mu2, cost)
            assert sol.mode == "rational" and not sol.feasible
            cert = sol.infeasibility_certificate
            assert type(cert["row_mass"]) is F and type(cert["column_mass"]) is F
            assert cert["reachable_columns"]
            check_hall_cut(cert, mu1, mu2, cost)

    def test_rational_tol_leaves_the_infeasibility_decision_exact(self):
        # tol prices costs; a flow decision that read it as mass raised "no
        # Hall cut" when each row's forbidden mass was under tol and their
        # sum over it, and returned a plan with cost +inf and no cut when
        # the sum was under it too
        thirds = new_measure([F(1, 3)] * 3)
        cases = [
            (thirds, new_measure([1]), ((INF,), (INF,), (INF,)), HALF, [0, 1, 2]),
            (UNIFORM2, UNIFORM2, ((0, INF), (INF, INF)), 1, [1]),
        ]
        for mu1, mu2, cost, tol, rows in cases:
            sol = solve_kantorovich(mu1, mu2, cost, tol=tol)
            assert sol.plan is None and not sol.feasible
            assert sol.infeasibility_certificate["rows"] == rows
            check_hall_cut(sol.infeasibility_certificate, mu1, mu2, cost)

    def test_lower_bound_respected(self):
        rng = random.Random(23)
        for _ in range(30):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            a1 = tuple(F(rng.randint(-3, 0)) for _ in range(n))
            a2 = tuple(F(rng.randint(-3, 0)) for _ in range(m))
            base = random_cost(rng, n, m)
            rows = tuple(
                tuple(base[i][j] + a1[i] + a2[j] for j in range(m)) for i in range(n)
            )
            cm = CostMatrix(rows, lower_bound=(a1, a2))
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            sol = solve_kantorovich(mu1, mu2, cm)
            bound, cost, holds = check_lower_bound(cm, mu1, mu2, sol.plan)
            assert holds and sol.optimal_cost >= bound


def reference_hall_certificate(a, b, forbidden, X, tol, scale=None):
    """_hall_certificate as the walk over lists and sets it used to be."""
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
        row_mass, column_mass = F(row_mass, scale), F(column_mass, scale)
    certificate = {
        "rows": rows,
        "reachable_columns": cols,
        "row_mass": row_mass,
        "column_mass": column_mass,
    }
    if not row_mass > column_mass:
        raise RuntimeError(f"solver found no Hall cut: {certificate}")
    return certificate


class TestHallCertificate:
    """The closure on masks against the walk it replaced."""

    @staticmethod
    def outcome(cut, *args):
        try:
            certificate = cut(*args)
        except RuntimeError as exc:
            return "no cut", str(exc)
        return repr(certificate), [type(value) for value in certificate.values()]

    @staticmethod
    def instance(rng, exact, density):
        """An n x m problem with about density of its cells at +inf, and
        zero weights (the support path) about one time in five."""
        n, m = rng.randint(2, 9), rng.randint(2, 9)
        measures = []
        for size in (n, m):
            raw = [rng.choice((0, 1, 1, 2, 3, 5)) for _ in range(size)]
            raw[rng.randrange(size)] += 1
            weights = [F(x, sum(raw)) for x in raw]
            measures.append(DiscreteMeasure(tuple(weights if exact else map(float, weights))))
        number = F if exact else float
        cost = tuple(
            tuple(INF if rng.random() < density else number(rng.randint(0, 20)) for _ in range(m))
            for _ in range(n)
        )
        return (*measures, cost)

    def test_closure_matches_the_walk(self, monkeypatch):
        cut, compared = solver._hall_certificate, []

        def both(a, b, forbidden, X, tol, scale=None):
            # at the solver's tol, and at tols equal to flows of the plan
            for t in [tol, *sorted(set(X[X > 0].tolist()))[:3]]:
                args = a, b, forbidden, X, t, scale
                assert self.outcome(cut, *args) == self.outcome(reference_hall_certificate, *args)
                compared.append(t)
            return reference_hall_certificate(a, b, forbidden, X, tol, scale)

        rng = random.Random(600)
        infeasible = zero_weights = 0
        for trial in range(600):
            exact, density = trial % 2 == 0, (0.3, 0.6, 0.85)[trial % 3]
            mu1, mu2, cost = self.instance(rng, exact, density)
            sol = solve_kantorovich(mu1, mu2, cost)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_hall_certificate", both)
                ref = solve_kantorovich(mu1, mu2, cost)
            got, want = (
                (repr(s.infeasibility_certificate), s.iterations, repr(s.optimal_cost),
                 type(s.optimal_cost), s.mode)
                for s in (sol, ref)
            )
            assert got == want, (trial, cost)
            infeasible += not sol.feasible
            zero_weights += not (sol.feasible or all(mu1.weights) and all(mu2.weights))
        # with this seed: 448 infeasible, 339 of them with a zero weight, and
        # 1,763 cuts compared
        assert infeasible >= 400 and zero_weights >= 300
        assert len(compared) > 3 * infeasible  # the flows-equal-to-tol cases ran


class TestFeasibilityBattery:
    """The +inf feasibility decision and its Hall cut against basis enumeration."""

    @staticmethod
    def weights(rng, n, exact):
        # sixteenths, so float sums are exact; a repeated cut gives a zero weight
        cuts = sorted(rng.randint(0, 16) for _ in range(n - 1))
        parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, 16])]
        return DiscreteMeasure(tuple(F(p, 16) if exact else p / 16 for p in parts))

    def test_decision_matches_basis_enumeration(self):
        rng = random.Random(67)
        infeasible = 0
        for trial in range(240):
            exact = trial % 2 == 0
            n = rng.randint(1, 6)
            m = rng.randint(1, 8 - n)
            density = rng.uniform(0.2, 0.8)
            mu1, mu2 = self.weights(rng, n, exact), self.weights(rng, m, exact)
            cost = tuple(
                tuple(
                    INF if rng.random() < density else (F if exact else float)(rng.randint(0, 9))
                    for _ in range(m)
                )
                for _ in range(n)
            )
            sol = solve_kantorovich(mu1, mu2, cost)
            oracle = oracle_basis_enumeration(mu1, mu2, cost)
            assert sol.feasible == (not is_inf(oracle.optimal_cost)), (trial, cost)
            if sol.feasible:
                if exact:
                    assert sol.optimal_cost == oracle.optimal_cost
                continue
            infeasible += 1
            check_hall_cut(sol.infeasibility_certificate, mu1, mu2, cost)
        # both answers occur often (187 infeasible, 53 feasible with this seed)
        assert infeasible >= 100 and 240 - infeasible >= 30


class TestOracles:
    def test_permutation_single_point(self):
        mu = new_measure([1])
        assert oracle_permutation(mu, mu, ((3,),)).optimal_cost == 3

    def test_permutation_identity_wins(self):
        sol = oracle_permutation(UNIFORM2, UNIFORM2, ((0, 1), (1, 0)))
        assert sol.optimal_cost == 0

    def test_permutation_shifted_line(self):
        third = F(1, 3)
        mu = new_measure([third] * 3)
        same = tuple(tuple(F(abs(i - j)) for j in range(3)) for i in range(3))
        assert oracle_permutation(mu, mu, same).optimal_cost == 0
        shifted = tuple(tuple(F(abs(i - (j + 1))) for j in range(3)) for i in range(3))
        assert oracle_permutation(mu, mu, shifted).optimal_cost == 1

    def test_permutation_rejects_nonuniform(self):
        with pytest.raises(ParameterError):
            oracle_permutation(new_measure([F(1, 4), F(3, 4)]), UNIFORM2, D2)

    def test_basis_single_cell(self):
        mu = new_measure([1])
        sol = oracle_basis_enumeration(mu, mu, ((7,),))
        assert sol.plan.matrix == ((1,),) and sol.optimal_cost == 7

    def test_basis_segment_polytope(self):
        sol = oracle_basis_enumeration(UNIFORM2, new_measure([F(1, 4), F(3, 4)]), D2)
        assert sol.optimal_cost == F(1, 4)

    def test_basis_zero_cost(self):
        assert oracle_basis_enumeration(UNIFORM2, UNIFORM2, ((0, 0), (0, 0))).optimal_cost == 0

    def test_basis_size_limit(self):
        mu = new_measure([F(1, 6)] * 6)
        with pytest.raises(ParameterError):
            oracle_basis_enumeration(mu, mu, tuple((F(0),) * 6 for _ in range(6)))

    def test_solver_matches_both_oracles(self):
        rng = random.Random(31)
        for _ in range(200):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            c = random_cost(rng, n, m)
            assert (
                solve_kantorovich(mu1, mu2, c).optimal_cost
                == oracle_basis_enumeration(mu1, mu2, c).optimal_cost
            )
        for _ in range(100):
            n = rng.randint(1, 5)
            mu = DiscreteMeasure(tuple(F(1, n) for _ in range(n)))
            c = random_cost(rng, n, n)
            assert (
                solve_kantorovich(mu, mu, c).optimal_cost
                == oracle_permutation(mu, mu, c).optimal_cost
            )


class TestRestrictionOptimality:
    def test_identity_mask(self):
        sol = solve_kantorovich(UNIFORM2, UNIFORM2, D2)
        r, s, holds = verify_restriction_optimality(sol, [[True] * 2] * 2, D2)
        assert holds and r == sol.optimal_cost == s

    def test_single_cell_of_diagonal(self):
        sol = solve_kantorovich(UNIFORM2, UNIFORM2, D2)
        mask = [[sol.plan.matrix[i][j] > 0 and (i, j) == (0, 0) for j in range(2)] for i in range(2)]
        r, s, holds = verify_restriction_optimality(sol, mask, D2)
        assert holds and r == 0 == s

    def test_row_restriction_on_line(self):
        third = F(1, 3)
        mu = new_measure([third] * 3)
        c = tuple(tuple(F(abs(i - j)) for j in range(3)) for i in range(3))
        sol = solve_kantorovich(mu, mu, c)
        mask = [[i in (0, 1) for _ in range(3)] for i in range(3)]
        r, s, holds = verify_restriction_optimality(sol, mask, c)
        assert holds

    def test_random_masks_hold(self):
        rng = random.Random(41)
        checked = 0
        while checked < 100:
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            c = random_cost(rng, n, m)
            sol = solve_kantorovich(mu1, mu2, c)
            mask = [[rng.random() < 0.7 for _ in range(m)] for _ in range(n)]
            if not any(
                mask[i][j] and sol.plan.matrix[i][j] > 0
                for i in range(n)
                for j in range(m)
            ):
                continue
            _, _, holds = verify_restriction_optimality(sol, mask, c)
            assert holds
            checked += 1


class TestFloatMode:
    def test_matches_rational_on_same_instance(self):
        rng = random.Random(53)
        for _ in range(20):
            n, m = rng.randint(3, 10), rng.randint(3, 10)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            c = random_cost(rng, n, m)
            exact = solve_kantorovich(mu1, mu2, c, mode="rational")
            fl = solve_kantorovich(
                DiscreteMeasure(tuple(float(w) for w in mu1.weights)),
                DiscreteMeasure(tuple(float(w) for w in mu2.weights)),
                tuple(tuple(float(x) for x in row) for row in c),
                mode="float",
            )
            assert fl.optimal_cost == pytest.approx(float(exact.optimal_cost), abs=1e-9)


class TestRationalModeOnFloatWeights:
    """Rational mode reads float weights as the exact binary fractions they are."""

    def test_refuses_weights_whose_exact_totals_differ(self):
        # both sum to 1.0 in floats, but not as exact binary fractions
        mu1 = DiscreteMeasure((0.1, 0.2, 0.7))
        mu2 = DiscreteMeasure((0.3, 0.3, 0.4))
        with pytest.raises(ParameterError, match=r"-2\.7755575615628914e-17"):
            solve_kantorovich(mu1, mu2, D3, mode="rational")

    def test_balanced_dyadic_floats_solve_exactly(self):
        mu1 = DiscreteMeasure((0.5, 0.25, 0.25))
        mu2 = DiscreteMeasure((0.125, 0.375, 0.5))
        sol = solve_kantorovich(mu1, mu2, D3, mode="rational")
        exact = solve_kantorovich(
            DiscreteMeasure(tuple(map(F, mu1.weights))),
            DiscreteMeasure(tuple(map(F, mu2.weights))),
            D3,
        )
        assert sol.optimal_cost == exact.optimal_cost == F(5, 8)
        assert sol.plan.matrix == exact.plan.matrix
        assert all(isinstance(x, F) for row in sol.plan.matrix for x in row)
        assert is_coupling(sol.plan, mu1, mu2, tol=0)[0]

    def test_dyadic_float_costs_price_as_their_fractions(self):
        # costs in eighths, with +inf cells, against weights with non-dyadic
        # denominators: a float sum of the terms would round
        rng = random.Random(8)
        for _ in range(20):
            n, m = rng.randint(2, 6), rng.randint(2, 6)
            mu1 = random_positive_rational_measure(rng, n)
            mu2 = random_positive_rational_measure(rng, m)
            cost = [
                [INF if rng.random() < 0.2 else F(rng.randint(-8, 80), 8) for _ in range(m)]
                for _ in range(n)
            ]
            floats = [[float(x) for x in row] for row in cost]
            sol = solve_kantorovich(mu1, mu2, floats, mode="rational")
            exact = solve_kantorovich(mu1, mu2, cost, mode="rational")
            assert sol.feasible == exact.feasible
            assert sol.optimal_cost == exact.optimal_cost
            assert type(sol.optimal_cost) is type(exact.optimal_cost)
            if exact.feasible:
                assert type(sol.optimal_cost) is F
                assert sol.plan.matrix == exact.plan.matrix


class TestArrayChecks:
    """The float64-array paths of cost_of_plan and is_coupling against the
    cell-by-cell loops, which stay the reference."""

    @staticmethod
    def random_plan(rng, n, m):
        X = np.array([[rng.random() if rng.random() < 0.3 else 0.0 for _ in range(m)]
                      for _ in range(n)])
        X[0, 0] += 0.1
        return X / X.sum()

    def test_cost_is_the_loop_sum_bit_for_bit(self):
        rng = random.Random(31)
        for _ in range(200):
            n, m = rng.randint(1, 15), rng.randint(1, 15)
            X = self.random_plan(rng, n, m)
            C = [[rng.uniform(-1e3, 1e6) for _ in range(m)] for _ in range(n)]
            # +inf where the plan puts no mass costs nothing
            for i, j in zip(*np.nonzero(X == 0)):
                if rng.random() < 0.3:
                    C[i][j] = INF
            value = cost_of_plan(X, C)
            assert type(value) is float
            assert value == cost_of_plan(tuple(map(tuple, X.tolist())), C)

    def test_mass_on_inf_cell_costs_inf(self):
        X = np.array([[0.5, 0.5], [0.0, 0.0]])
        assert is_inf(cost_of_plan(X, ((0.0, INF), (0.0, INF))))
        assert cost_of_plan(X, ((1.0, 2.0), (INF, INF))) == 1.5

    def test_coupling_report_matches_the_loops(self):
        rng = random.Random(37)
        for _ in range(200):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            X = self.random_plan(rng, n, m)
            mu1 = DiscreteMeasure(tuple(X.sum(axis=1).tolist()))
            mu2 = DiscreteMeasure(tuple(X.sum(axis=0).tolist()))
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(m)
                X[i, j] -= rng.choice((1e-12, 1e-3, 0.5))
            ok, report = is_coupling(X, mu1, mu2)
            ok_loop, report_loop = is_coupling(tuple(map(tuple, X.tolist())), mu1, mu2)
            assert ok == ok_loop
            assert sorted(r[:2] for r in report) == sorted(r[:2] for r in report_loop)
            assert all(type(r[2]) is float for r in report)

    def test_int_array_plan_cost_is_exact(self):
        # an int64 plan is exact: its cost is the int, not a rounded float
        value = cost_of_plan(np.array([[2**60 + 1]]), [[3]])
        assert type(value) is int and value == 3458764513820540931
        assert cost_of_plan(TransportPlan(np.array([[2**60 + 1]])), CostMatrix([[3]])) == value

    def test_array_plan_shape_checked(self):
        with pytest.raises(ShapeError):
            is_coupling(np.ones((1, 1)), UNIFORM2, UNIFORM2)
        with pytest.raises(ShapeError):
            cost_of_plan(np.ones((1, 1)), D2)


def criterion10_instance(n, exact=False):
    """Criterion-10-style problem: integer weights and costs, seeded by n.

    Float weights (the normalised Fractions, rounded) and float costs, or
    with exact set the Fraction weights and int costs.
    """
    rng = random.Random(n)
    raw1 = [rng.randint(1, 1000) for _ in range(n)]
    raw2 = [rng.randint(1, 1000) for _ in range(n)]
    cost = tuple(tuple(rng.randint(0, 1000) for _ in range(n)) for _ in range(n))
    weights = (lambda x: x) if exact else float
    mu1 = DiscreteMeasure(tuple(weights(F(x, sum(raw1))) for x in raw1))
    mu2 = DiscreteMeasure(tuple(weights(F(x, sum(raw2))) for x in raw2))
    if not exact:
        cost = tuple(tuple(map(float, row)) for row in cost)
    return mu1, mu2, cost


def assignment_instance(n, seed, exact=False):
    """Degenerate assignment: uniform 1/n weights, integer costs 0..999.

    Float weights and costs, or with exact set Fraction weights and int costs.
    """
    rng = random.Random(seed)
    uniform = DiscreteMeasure((F(1, n) if exact else 1.0 / n,) * n)
    cost = tuple(tuple(rng.randint(0, 999) for _ in range(n)) for _ in range(n))
    if not exact:
        cost = tuple(tuple(map(float, row)) for row in cost)
    return uniform, uniform, cost


#: name -> (make, (iterations, optimal_cost)), pinned from the compiled
#: kernel on make(); make(exact=True) gives the instance with Fraction
#: weights and int costs.  The Python simplex takes the same pivots, so one
#: pin holds for both engines.  assignment_300 pins termination under heavy
#: degeneracy: its 3,216 pivots from the row-minimum start are under the
#: 6,620 of a random 300x300 problem, where the north-west corner took 8,166
#: and the switch to Bland's rule before it 38,190
FLOAT_PINS = {
    "criterion10_120": (
        lambda exact=False: criterion10_instance(120, exact), (796, 17.687001057222353)
    ),
    "assignment_90": (
        lambda exact=False: assignment_instance(90, 90, exact), (434, 17.999999999999996)
    ),
    "assignment_300": (lambda exact=False: assignment_instance(300, 0, exact), (3216, 5.25)),
}


class TestPivotIdentity:
    """Pivot counts and optima pinned for the simplex's rules: the
    row-minimum start, the C kernel's block search enters, and the strongly
    feasible rule picks the leaving cell.  They were re-recorded when
    simplex.py took the block search over from its first-negative-cell
    scan, where a degenerate tie moved when the strongly feasible rule
    replaced the least (flow, row, column) tie-break, and when the
    row-minimum start replaced the north-west corner; the exact optima did
    not change any time.  They must repeat exactly: a different start,
    entering or leaving choice shows as another count.
    """

    def test_rational_w1_on_integer_metric(self):
        rng = random.Random(20)
        space = random_rational_metric_space(rng, 20)
        mu1 = random_positive_rational_measure(rng, 20)
        mu2 = random_positive_rational_measure(rng, 20)
        sol = solve_kantorovich(mu1, mu2, space.power_cost(1))
        assert (sol.mode, sol.iterations, sol.optimal_cost) == (
            "rational", 35, F(2061, 2650)
        )

    def test_float_with_forbidden_cells(self, monkeypatch):
        # row 0 closes its cheapest column j0, the one finite cell of row 1,
        # so the start ships row 1 over a forbidden cell and the M part of
        # the reduced costs decides the first pivots
        n = 25
        rng = random.Random(25)
        cost = [
            [INF if rng.random() < 0.1 else float(rng.randint(0, 1000)) for _ in range(n)]
            for _ in range(n)
        ]
        j0 = min(range(n), key=cost[0].__getitem__)
        cost[1] = [INF] * n
        cost[1][j0] = float(rng.randint(0, 1000))
        raw1, raw2 = ([rng.randint(1, 1000) for _ in range(n)] for _ in range(2))
        raw1[0], raw1[1], raw2[j0] = 1000, 1, 500  # a_0 > b_j0 > a_1
        mu1, mu2 = (DiscreteMeasure(tuple(x / sum(raw) for x in raw)) for raw in (raw1, raw2))
        starts = []
        row_minimum_start = simplex.row_minimum_start

        def recorded(*args):
            flow = row_minimum_start(*args)
            starts.append(flow)
            return flow

        monkeypatch.setattr(simplex, "row_minimum_start", recorded)
        # on the selected kernel, then on the Python simplex, as the FLOAT_PINS
        # tests run
        for kernel in (solver._kernel, None):
            monkeypatch.setattr(solver, "_kernel", kernel)
            sol = solve_kantorovich(mu1, mu2, cost, mode="float")
            assert (sol.iterations, sol.optimal_cost) == (78, 76.42411892499369)
        start = starts[-1]  # the Python simplex's, the last run
        assert any(f > 0 and cost[i][j] == INF for (i, j), f in start.items())

    def test_degenerate_rational_assignment(self):
        rng = random.Random(12)
        uniform = DiscreteMeasure(tuple(F(1, 12) for _ in range(12)))
        cost = [[rng.randint(0, 99) for _ in range(12)] for _ in range(12)]
        sol = solve_kantorovich(uniform, uniform, cost)
        assert (sol.mode, sol.iterations, sol.optimal_cost) == (
            "rational", 18, F(113, 12)
        )

    @pytest.mark.parametrize("name", sorted(FLOAT_PINS))
    def test_float_on_the_selected_kernel(self, name):
        make, pin = FLOAT_PINS[name]
        sol = solve_kantorovich(*make(), mode="float")
        assert (sol.iterations, sol.optimal_cost) == pin
        assert type(sol.optimal_cost) is float

    @pytest.mark.parametrize("n, seed", [(90, 90), (300, 0)])
    def test_assignment_pins_are_the_exact_optima(self, n, seed):
        self.check_near_the_exact_optimum(f"assignment_{n}")

    def test_criterion10_pin_is_near_the_exact_optimum(self):
        # the float weights are the exact ones rounded, so the optima agree
        # to far below the bound, whatever the last bits of the float one
        self.check_near_the_exact_optimum("criterion10_120")

    @staticmethod
    def check_near_the_exact_optimum(name):
        make, (_, pinned) = FLOAT_PINS[name]
        exact = solve_kantorovich(*make(exact=True))
        assert exact.mode == "rational"
        assert abs(pinned - exact.optimal_cost) <= 1e-9 * exact.optimal_cost

    @pytest.mark.parametrize("name", sorted(FLOAT_PINS))
    def test_float_on_the_fallback_kernel(self, name, monkeypatch):
        # without the C kernel the Python simplex solves every float problem
        monkeypatch.setattr(solver, "_kernel", None)
        make, pin = FLOAT_PINS[name]
        sol = solve_kantorovich(*make(), mode="float")
        assert (sol.iterations, sol.optimal_cost) == pin
        assert type(sol.optimal_cost) is float


def wide_range_instance(seed, n, inf_share=0.0):
    """The wide-range family: float weights rng.random(n) normalised, costs
    U(0, 1) * 10^U(0, 12), and, with inf_share, about that share of the
    cells +inf, drawn from np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    a, b = rng.random(n), rng.random(n)
    C = rng.uniform(0, 1, (n, n)) * 10 ** rng.uniform(0, 12, (n, n))
    if inf_share:
        C[rng.random((n, n)) < inf_share] = INF
    return new_measure((a / a.sum()).tolist()), new_measure((b / b.sum()).tolist()), C.tolist()


def exact_optimum(mu1, mu2, cost):
    """The optimum, as a Fraction, of the float weights and costs read as
    the binary fractions they are, the weights normalised exactly."""
    exact = []
    for mu in mu1, mu2:
        weights = [F(w) for w in mu.weights]
        exact.append(new_measure([w / sum(weights) for w in weights]))
    cells = [[c if is_inf(c) else F(c) for c in row] for row in cost]
    sol = solve_kantorovich(*exact, cells)
    assert sol.mode == "rational"
    return sol.optimal_cost


class TestWideRangeCosts:
    """A float solve given no tol prices each cell against its own rounding
    error, FLOAT_TOL * (|c| + |u| + |v|): one tolerance scaled by the largest
    cost, about 1e3 on these costs, hid the improving cells of small cost,
    and every solve of this family returned a plan that was not optimal."""

    def test_the_repro_is_pinned_in_both_engines(self, monkeypatch):
        mu1, mu2, cost = wide_range_instance(1, 30)
        # the exact optimum rounds to the float solve's answer
        assert float(exact_optimum(mu1, mu2, cost)) == 5.856765185932088
        for kernel in (solver._kernel, None):
            monkeypatch.setattr(solver, "_kernel", kernel)
            sol = solve_kantorovich(mu1, mu2, cost)
            assert (sol.iterations, sol.optimal_cost) == (96, 5.856765185932088)

    @pytest.mark.parametrize(
        "instance, pin, exact_pivots",
        [((10, 60, 0.0), (425, 1.8990271777968117), 426), ((9, 60, 0.1), (375, 0.9545315906465534), 384)],
    )
    def test_the_rule_declines_cells_within_roundoff(self, monkeypatch, instance, pin, exact_pivots):
        # with tol=0 every negative reduced cost enters, also one that is
        # only the rounding error of c - u - v: the rule declines it, in the
        # value-only scan and in the value part of the (M, value) scan
        mu1, mu2, cost = wide_range_instance(*instance)
        for kernel in (solver._kernel, None):
            monkeypatch.setattr(solver, "_kernel", kernel)
            sol = solve_kantorovich(mu1, mu2, cost)
            assert (sol.iterations, sol.optimal_cost) == pin
            assert solve_kantorovich(mu1, mu2, cost, tol=0).iterations == exact_pivots

    def test_an_explicit_tol_keeps_its_absolute_meaning(self):
        # the old default, passed as tol, finds the old non-optimal plan
        mu1, mu2, cost = wide_range_instance(1, 30)
        tol = pricing_tol("float", max(map(max, cost)))
        sol = solve_kantorovich(mu1, mu2, cost, tol=tol)
        assert (sol.iterations, sol.optimal_cost) == (48, 19.347259069054964)

    @pytest.mark.parametrize(
        "n, seeds, inf_share",
        [(30, range(1, 41), 0.0), (60, range(1, 21), 0.0), (30, range(1, 21), 0.1)],
    )
    def test_the_seeded_battery_meets_the_exact_optima(self, n, seeds, inf_share):
        # with +inf cells the value part decides among cells whose M part is 0
        for seed in seeds:
            mu1, mu2, cost = wide_range_instance(seed, n, inf_share)
            sol = solve_kantorovich(mu1, mu2, cost)
            want = exact_optimum(mu1, mu2, cost)
            if is_inf(want):
                assert not sol.feasible
            else:
                assert abs(sol.optimal_cost - want) <= 1e-12 * want, (n, seed)


class TestFloatValidation:
    """NaN, -inf and ragged input are still refused on the float array path."""

    N = 9

    def problem(self, bad=None):
        rng = random.Random(41)
        cost = [[float(rng.randint(0, 50)) for _ in range(self.N)] for _ in range(self.N)]
        if bad is not None:
            cost[4][7] = bad
        uniform = DiscreteMeasure((1.0 / self.N,) * self.N)
        return uniform, uniform, cost

    @pytest.mark.parametrize("bad, message", [(float("nan"), "NaN cost entry"),
                                              (-INF, "-inf cost entry")])
    def test_bad_cost_entry_refused_by_cost_matrix(self, bad, message):
        mu1, mu2, cost = self.problem(bad)
        with pytest.raises(DataError, match=message):
            solve_kantorovich(mu1, mu2, cost, mode="float")
        with pytest.raises(DataError, match=message):
            CostMatrix(cost)

    def test_bad_cells_found_among_exact_and_infinite_cells(self):
        with pytest.raises(DataError, match="NaN cost entry"):
            CostMatrix(((F(1), 2), (INF, float("nan"))))
        # +inf and -inf screen as NaN; the cell scan then names the -inf
        with pytest.raises(DataError, match="-inf cost entry"):
            CostMatrix(((INF, 0.0), (-INF, 1.0)))

    def test_overflowing_finite_cells_pass(self):
        # their sum overflows to -inf, but no cell is -inf
        assert CostMatrix(((-1e308, -1e308), (-1e308, 0.0))).shape == (2, 2)

    def test_nan_plan_entry_refused(self):
        with pytest.raises(DataError, match="NaN plan entry"):
            TransportPlan(((0.5, 0.0), (0.0, float("nan"))))
        with pytest.raises(DataError, match="-inf plan entry"):
            TransportPlan(((F(1, 2), 0), (0, -INF)))
        # a cell is a mass: +inf is refused too, in an exact plan and a float one
        for plan in (((1, INF), (0, 0)), ((0.5, INF), (0.0, 0.5)), np.array([[0.5, INF]])):
            with pytest.raises(DataError, match=r"\+inf plan entry"):
                TransportPlan(plan)

    def test_ragged_input_refused(self):
        mu1, mu2, cost = self.problem()
        cost[3] = cost[3][:-1]
        with pytest.raises(ShapeError):
            solve_kantorovich(mu1, mu2, cost, mode="float")
        with pytest.raises(ShapeError):
            CostMatrix(cost)
        with pytest.raises(ShapeError):
            TransportPlan(((0.5, 0.0), (0.5,)))


@pytest.mark.parametrize("kernel", ["selected", "python"])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("tol", [-5, -1e-12, F(-1, 3), float("nan")])
def test_a_negative_or_nan_tol_is_refused(monkeypatch, kernel, exact, tol):
    """A negative tol lets the entering rule take cells of positive reduced
    cost, so the engines cycle to their pivot limit; a NaN one takes no
    cell, so the start plan came back as optimal.  Both are refused before
    any engine runs."""
    if kernel == "python":
        monkeypatch.setattr(solver, "_kernel", None)
    run_engine, runs = solver._run_engine, []
    monkeypatch.setattr(solver, "_run_engine", lambda *args: runs.append(args) or run_engine(*args))
    n = 8
    rng = random.Random(3)
    cost = [[float(rng.randint(0, 100)) for _ in range(n)] for _ in range(n)]
    uniform = DiscreteMeasure((F(1, n) if exact else 1 / n,) * n)
    mode = "rational" if exact else "float"
    assert solve_kantorovich(uniform, uniform, cost, mode=mode).optimal_cost == F(129, 8)
    h = DiscreteMeasure((HALF, HALF) if exact else (0.5, 0.5))
    for mu, c in ((h, D2), (uniform, cost)):
        with pytest.raises(ParameterError, match="tol must be a nonnegative number"):
            solve_kantorovich(mu, mu, c, mode=mode, tol=tol)
    assert len(runs) == 1  # the reference solve only


def test_a_float_solve_reads_positivity_off_the_measures(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solve counted the nonzero weights")

    monkeypatch.setattr(np, "count_nonzero", refuse)
    cost = ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))
    for weights in (0.25, 0.25, 0.5), (0.0, 0.5, 0.5):
        mu = new_measure(weights)
        sol = solve_kantorovich(mu, new_measure((0.5, 0.25, 0.25)), cost)
        assert sol.mode == "float" and [sum(row) for row in sol.plan.matrix] == list(weights)


def test_an_exact_weight_that_rounds_to_zero_takes_the_support_path(monkeypatch):
    # Fraction(1, 10**400) is positive, but its float64 copy is 0.0, which
    # the engines refuse: a float solve reads positivity off the float copy
    tiny = F(1, 10**400)
    mu = new_measure((tiny, 1 - tiny))
    assert mu.mode == "rational" and mu.scaled_positive and not mu.float_positive
    inputs, run = [], solver._run_engine
    monkeypatch.setattr(solver, "_run_engine", lambda a, *rest: inputs.append(a.tolist()) or run(a, *rest))
    sol = solve_kantorovich(mu, new_measure((0.5, 0.5)), ((1.0, 2.0), (3.0, 0.5)))
    assert inputs == [[1.0]]
    assert sol.mode == "float" and sol.plan.matrix == ((0.0, 0.0), (0.5, 0.5))
    assert (sol.optimal_cost, sol.iterations) == (1.75, 0)


def test_float_solve_does_no_python_work_per_cell(monkeypatch):
    """Python-level calls during a 150 x 150 float solve, all-finite and with
    about 10% +inf cells, stay far below one per ten cells (the list-based
    float path made about four per cell)."""
    n = 150
    rng = random.Random(150)
    mu1, mu2 = (
        DiscreteMeasure(tuple(x / sum(raw) for x in raw))
        for raw in ([rng.randint(1, 1000) for _ in range(n)] for _ in range(2))
    )
    cost = [[float(rng.randint(0, 1000)) for _ in range(n)] for _ in range(n)]
    forbidden = [[INF if rng.random() < 0.1 else c for c in row] for row in cost]
    solves = (lambda case=case: solve_kantorovich(mu1, mu2, case) for case in (cost, forbidden))
    counts = count_python_calls(monkeypatch, *solves)
    for calls, sol in counts:
        assert sol.feasible
        assert calls < n * n // 10, f"{calls} Python calls for {n * n} cells"


@pytest.mark.parametrize("n, exact", [(150, False), (20, True)])
def test_solve_from_tuples_makes_no_python_call_per_cell(monkeypatch, n, exact):
    """From tuple costs to the returned plan, a solve makes fewer Python
    calls than one per ten cells: the costs become one array, the weights
    come as the arrays the measures keep (their own checks are made when
    they are built, before the count), and the plan keeps the engine's
    array; its matrix, and any Fraction cell, is built only when asked for."""
    rng = random.Random(n)
    raws = [[rng.randint(1, 1000) for _ in range(n)] for _ in range(2)]
    if exact:
        mu1, mu2 = (DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw)) for raw in raws)
        cost = tuple(tuple(rng.randint(0, 1000) for _ in range(n)) for _ in range(n))
    else:
        mu1, mu2 = (DiscreteMeasure(tuple(x / sum(raw) for x in raw)) for raw in raws)
        cost = tuple(tuple(float(rng.randint(0, 1000)) for _ in range(n)) for _ in range(n))
    [(calls, sol)] = count_python_calls(monkeypatch, lambda: solve_kantorovich(mu1, mu2, cost))
    assert sol.mode == ("rational" if exact else "float")
    assert calls < n * n // 10, f"{calls} Python calls for {n * n} cells"
    assert is_coupling(sol.plan, mu1, mu2)[0]
    assert sol.optimal_cost == cost_of_plan(sol.plan.matrix, cost)


def test_rational_solve_builds_few_fractions(monkeypatch):
    """A 30 x 30 rational solve with integer costs and Fraction weights runs
    on scaled ints from input to plan: Fractions are built for the plan's
    nonzero cells and the cost, not per cell (the Fraction-list path built
    about 1.6 per cell).  Counted, not timed, so the bound holds on any host;
    the simplex runs uncounted, as its pivots are its own work."""
    n = 30
    rng = random.Random(30)
    mu1, mu2 = (
        DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw))
        for raw in ([rng.randint(1, 1000) for _ in range(n)] for _ in range(2))
    )
    cost = [[rng.randint(0, 1000) for _ in range(n)] for _ in range(n)]
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
        sol = solve_kantorovich(mu1, mu2, cost)
    finally:
        sys.setprofile(previous)
    assert sol.mode == "rational" and type(sol.optimal_cost) is F
    assert built < 4 * (n + n), f"{built} Fractions built for {n * n} cells"


def test_plan_checks_make_no_python_call_per_cell(monkeypatch):
    """Once a 100 x 100 plan of Fractions exists, is_coupling, cost_of_plan,
    marginals and total_mass each make fewer Python calls than one per ten
    cells: they read the plan's ints, not its cells (the cell-by-cell checks
    made several calls per cell)."""
    from finiteot.coupling import marginals

    n = 100
    rng = random.Random(100)
    mu1, mu2 = (
        DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw))
        for raw in ([rng.randint(1, 1000) for _ in range(n)] for _ in range(2))
    )
    plan = product_coupling(mu1, mu2)
    cost = [[rng.randint(0, 1000) for _ in range(n)] for _ in range(n)]
    checks = (
        lambda: is_coupling(plan, mu1, mu2),
        lambda: cost_of_plan(plan, cost),
        lambda: marginals(plan),
        plan.total_mass,
    )
    (c1, ok), (c2, value), (c3, (m1, m2)), (c4, mass) = count_python_calls(monkeypatch, *checks)
    assert ok == (True, []) and m1 == mu1 and m2 == mu2 and mass == 1
    weights = zip(mu1.weights, cost)
    assert value == sum(a * b * c for a, row in weights for b, c in zip(mu2.weights, row))
    for calls in (c1, c2, c3, c4):
        assert calls < n * n // 10, f"{calls} Python calls for {n * n} cells"


def test_small_solves_make_few_calls(monkeypatch):
    """A small solve's fixed cost is its calls, C calls included
    (count_calls): a 16-point rational W1 solve on a prebuilt space, and a
    20 x 20 float solve with +inf cells from a prebuilt CostMatrix, each
    read the values their built inputs recorded (the measures' scaled ints
    and positivity, the matrix's largest cost and float64 costs) and make
    few numpy calls between them and the plan (101 and 89 calls before)."""
    from finiteot.space import FiniteMetricSpace
    from finiteot.wasserstein import WassersteinParams, wasserstein_distance

    rng = random.Random(16)
    points = sorted(rng.sample(range(1000), 16))
    space = FiniteMetricSpace(tuple(map(str, points)), [[abs(x - y) for y in points] for x in points])
    space.power_cost(1)
    raws = [[rng.randint(1, 1000) for _ in range(16)] for _ in range(2)]
    mu1, mu2 = (DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw)) for raw in raws)
    params = WassersteinParams(p=1, mode="rational")
    raws = [[rng.randint(1, 1000) for _ in range(20)] for _ in range(2)]
    nu1, nu2 = (DiscreteMeasure(tuple(x / sum(raw) for x in raw)) for raw in raws)
    cm = CostMatrix(
        [[INF if rng.random() < 0.1 else float(rng.randint(0, 1000)) for _ in range(20)] for _ in range(20)]
    )
    solves = (
        lambda: wasserstein_distance(mu1, mu2, space, params),
        lambda: solve_kantorovich(nu1, nu2, cm, mode="float"),
    )
    wasserstein_distance(mu1, mu2, space, params)  # warm: nothing left to build
    (w1_calls, (w1, plan)), (float_calls, sol) = count_calls(monkeypatch, *solves)
    assert type(w1) is F and plan.mode == "rational" and sol.feasible and cm.has_inf
    assert w1_calls <= 75, f"{w1_calls} calls for a 16-point W1 solve"
    assert float_calls <= 65, f"{float_calls} calls for a 20 x 20 float solve"


def test_second_float_solve_of_a_fraction_matrix_reads_what_the_first_kept(monkeypatch):
    """The largest |cost| of a CostMatrix of Fractions and its float64
    copy are found by the first float solve and kept: the second solve
    against the same matrix makes under a tenth of the first's Python calls
    (each made about 50,800 when both were found again)."""
    n = 60
    rng = random.Random(60)
    raws = [[rng.randint(1, 1000) for _ in range(n)] for _ in range(2)]
    mu1, mu2 = (DiscreteMeasure(tuple(x / sum(raw) for x in raw)) for raw in raws)
    cm = CostMatrix([[F(rng.randint(0, 1000), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)])
    solve = lambda: solve_kantorovich(mu1, mu2, cm)  # noqa: E731
    (first, s1), (second, s2) = count_python_calls(monkeypatch, solve, solve)
    assert s1.mode == "float" and repr(s1.optimal_cost) == repr(s2.optimal_cost)
    assert second < first / 10, f"{second} calls after {first}"


def test_int64_fit_is_decided_once_on_the_full_problem(monkeypatch):
    """_exact_input alone decides whether a rational solve runs the int64
    build.  On each side of the total supply 2^62, of (n + m) max|c| 2^60
    and of |floor(tol)| 2^60 (scaled, with n + m = 4), sol.engine names the
    engine the bounds pick, and the Python simplex gives the same answer.
    On each side of the price bound, max|c| times the supply 2^63, the
    int64 build runs and the cost is exact: at the bound the int64 price
    would wrap to -2^63.  The costs come as a rational CostMatrix and as a
    float one forced to rational mode, whose recorded largest cost is that
    of its rounded cells: 2^58 - 1 given as an int reads 2^58 in float64.
    A zero-weight problem is decided on its full matrix, whose zero-weight
    line breaks the cost bound, not on its support, which would fit."""
    half = DiscreteMeasure((F(1, 2), F(1, 2)))
    padded = DiscreteMeasure((F(1, 2), F(1, 2), 0))
    top = 2**58  # (n + m) max|c| = 2^60 with n + m = 4

    def thin(d):  # total scaled supply d against half, d even
        return DiscreteMeasure((F(1, d), F(d - 1, d)))

    swap = [[0, 1], [1, 0]]
    cases = [  # (mu1, mu2, cells, tol, engine when the kernel is loaded)
        (thin(2**62 - 2), half, [[3, 1], [1, INF]], None, "compiled"),
        (thin(2**62), half, [[3, 1], [1, INF]], None, "python"),
        (half, half, [[top - 1, 0], [-top + 1, 1]], None, "compiled"),
        (half, half, [[top, 0], [0, 1]], None, "python"),
        (half, half, [[0, -top], [1, 0]], None, "python"),
        (half, half, swap, 2**60 - 1, "compiled"),
        (half, half, swap, F(2**62 - 1, 4), "compiled"),  # floored to 2^60 - 1
        (half, half, swap, 2**60, "python"),
        (thin(62), half, [[2**57] * 2] * 2, None, "compiled"),  # price 62 * 2^57
        (thin(64), half, [[2**57] * 2] * 2, None, "compiled"),  # price 2^63
        (padded, padded, [[0, 1, top], [1, 0, 0], [0, 0, top]], None, "python"),
    ]
    for mu1, mu2, cells, tol, engine in cases:
        # a float matrix: every cell that a float holds exactly as a float
        floats = [[float(c) if float(c) == c else c for c in row] for row in cells]
        for cost in (CostMatrix(cells), CostMatrix(floats)):
            kernel = solver._kernel
            sol = solve_kantorovich(mu1, mu2, cost, mode="rational", tol=tol)
            assert sol.engine == (engine if kernel is not None else "python"), (cells, tol)
            monkeypatch.setattr(solver, "_kernel", None)
            twin = solve_kantorovich(mu1, mu2, cost, mode="rational", tol=tol)
            monkeypatch.setattr(solver, "_kernel", kernel)
            assert (sol.iterations, repr(sol.optimal_cost), sol.infeasibility_certificate) == (
                twin.iterations, repr(twin.optimal_cost), twin.infeasibility_certificate)
            if sol.feasible:
                assert sol.plan.matrix == twin.plan.matrix
            if cells[0][0] == 2**57:
                assert sol.optimal_cost == 2**57
    assert CostMatrix([[top - 1, 0.0], [0.0, 1.0]]).max_abs_finite() == top


def test_a_float_weight_that_rounds_to_zero_is_off_the_float_support():
    """A float measure's exact weight 1/10^400 is positive as given but 0.0
    in its float64 weights: a float solve counts the nonzero float64
    weights, so the engine solves on the support and the line of that weight
    is exact zeros.  Forced to rational mode the weight is exact and
    positive, and the solve runs on every line."""
    mu = DiscreteMeasure((0.5, F(1, 10**400), 0.5))
    assert mu.mode == "float" and mu.float_weights.tolist() == [0.5, 0.0, 0.5]
    cost = [[abs(i - j) for j in range(3)] for i in range(3)]
    sol = solve_kantorovich(mu, mu, cost)
    assert sol.engine == solver.KERNEL and repr(sol.optimal_cost) == "0.0"
    assert sol.plan.matrix == ((0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.5))
    exact = solve_kantorovich(mu, mu, cost, mode="rational")
    assert exact.optimal_cost == 0 and exact.plan.matrix[1][1] == F(1, 10**400)


@pytest.mark.parametrize("cost_size", [10**3, 2**40])
def test_rational_cost_is_exact_on_both_sides_of_the_int64_dot(cost_size):
    """A rational solve prices its int64 plan by an int64 dot product only
    while max|c| times the total supply fits in int64; past that, on the
    cells with mass in Python ints.  Either way the cost is the plan's
    exact cost in Fractions."""
    rng = random.Random(cost_size % 97)
    for n in (5, 12, 20):
        raws = [[rng.randint(1, 10**6) for _ in range(n)] for _ in range(2)]
        mu1, mu2 = (DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw)) for raw in raws)
        cost = [[rng.randint(0, cost_size) for _ in range(n)] for _ in range(n)]
        sol = solve_kantorovich(mu1, mu2, cost)
        exact = sum(c * x for crow, xrow in zip(cost, sol.plan.matrix) for c, x in zip(crow, xrow))
        assert type(sol.optimal_cost) is F and sol.optimal_cost == exact
        assert sol.plan._array.dtype == object
        assert {type(x) for x in sol.plan._array.ravel().tolist()} == {int}


def test_rational_cost_bound_is_the_real_total_supply(monkeypatch):
    """A float measure sums to 1 within WEIGHT_SUM_TOL, so in a forced
    rational solve its scaled total can exceed the weight scale: the int64
    dot product is bounded by the real total supply, and a plan whose
    cost reaches 2^63 in C's units is priced in Python ints, not wrapped."""
    mu = DiscreteMeasure((1.0, F(1, 2**43 - 1)))
    assert mu.mode == "float"
    for kernel in (solver._kernel, None):  # the compiled kernel, the Python simplex
        monkeypatch.setattr(solver, "_kernel", kernel)
        sol = solve_kantorovich(mu, mu, [[2**20] * 2] * 2, mode="rational")
        assert sol.optimal_cost == F(2**63, 2**43 - 1), (kernel, sol.optimal_cost)


@pytest.mark.parametrize("kernel", ["selected", "python"])
@pytest.mark.parametrize("fault", ["row gap", "NaN cell", "NaN in the summary only"])
@pytest.mark.parametrize("exact", [False, True])
def test_a_failing_engine_summary_raises(monkeypatch, kernel, fault, exact):
    """A solve decides validity from its engine's summary: a plan whose
    summary shows a row gap above default_tol, or a NaN, is not returned.
    The RuntimeError carries _is_coupling_array's report of that plan."""
    from finiteot.coupling import _is_coupling_array
    from finiteot.numerics import default_tol

    if kernel == "python":
        monkeypatch.setattr(solver, "_kernel", None)
    run_engine, bad = solver._run_engine, []

    def faulty(*args, **kwargs):
        X, iterations, summary, engine = run_engine(*args, **kwargs)
        a, b, C = (x.tolist() for x in args[0:3])
        if fault == "NaN in the summary only":
            summary[2] = float("nan")
        else:
            X = X.astype(np.float64) if fault == "NaN cell" else X.copy()
            X[0, 0] = np.nan if fault == "NaN cell" else X[0, 0] + 1
            flow = {(i, j): x for i, row in enumerate(X.tolist()) for j, x in enumerate(row)}
            summary = simplex.plan_summary(a, b, C, flow)
        bad.append((X, args[0], args[1]))
        return X, iterations, summary, engine

    monkeypatch.setattr(solver, "_run_engine", faulty)
    n = 6
    rng = random.Random(6)
    raws = [[rng.randint(1, 9) for _ in range(n)] for _ in range(2)]
    mu1, mu2 = (DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw)) for raw in raws)
    if not exact:
        mu1, mu2 = (DiscreteMeasure(tuple(map(float, mu.weights))) for mu in (mu1, mu2))
    cost = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
    with pytest.raises(RuntimeError, match="invalid plan") as raised:
        solve_kantorovich(mu1, mu2, cost)
    X, a, b = bad[-1]
    ok, report = _is_coupling_array(X, a, b, default_tol("rational" if exact else "float"))
    assert ok == (fault == "NaN in the summary only")
    assert str(report[:3]) in str(raised.value)


def tol_battery():
    """3,000 seeded rational problems of 2..4 points a side: weights from
    1..9 normalised as Fractions, costs in tenths from 0 to 3."""
    rng = random.Random(5)
    for _ in range(3000):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        a, b = ([rng.randint(1, 9) for _ in range(k)] for k in (n, m))
        mu1, mu2 = (DiscreteMeasure(tuple(F(x, sum(w)) for x in w)) for w in (a, b))
        cost = tuple(tuple(F(rng.randint(0, 30), 10) for _ in range(m)) for _ in range(n))
        yield mu1, mu2, cost


def test_a_float_tol_meets_the_costs_as_its_exact_value(monkeypatch):
    """A rational solve floors tol on the cost scale exactly, in both
    engines: tol=0.7 is the binary fraction just below 7/10, so on costs in
    tenths it floors to 6, as Fraction(0.7) does; 0.7 * 10 in floats reads
    7.000000000000001, which floored to 7 and changed 162 of these solves."""
    for kernel in (solver._kernel, None):  # the compiled kernel, the Python simplex
        monkeypatch.setattr(solver, "_kernel", kernel)
        for mu1, mu2, cost in tol_battery():
            s, t = (solve_kantorovich(mu1, mu2, cost, tol=tol) for tol in (0.7, F(0.7)))
            assert (s.optimal_cost, s.iterations, s.engine) == (t.optimal_cost, t.iterations, t.engine)


def test_an_infinite_tol_runs_the_python_simplex_from_its_start():
    """No cell enters under an infinite tol, which fits no int64 bound: the
    Python simplex returns its row-minimum start after 0 pivots."""
    for mu1, mu2, cost in islice(tol_battery(), 200):
        sol = solve_kantorovich(mu1, mu2, cost, tol=INF)
        flow, pivots = transportation_simplex(list(mu1.weights), list(mu2.weights), cost, tol=INF)
        start = [[flow.get((i, j), 0) for j in range(mu2.n)] for i in range(mu1.n)]
        assert (sol.engine, sol.iterations, pivots) == ("python", 0, 0)
        assert sol.plan.matrix == tuple(map(tuple, start))


def test_the_tol_floor_is_exact_on_numpy_integers():
    """numerics._floor reads a numpy integer tol as the Python int it
    equals, so tol * scale is not taken in int64, where it would wrap."""
    from finiteot.numerics import _floor

    assert _floor(np.int64(2**40), 2**40) == 2**80
    assert _floor(np.uint64(2**63), 3) == 3 * 2**63
    assert _floor(np.float32(0.7), 10) == 6 and _floor(0.7, 10) == 6 and _floor(F(7, 10), 10) == 7
    assert type(_floor(np.int64(3), 2)) is int and _floor(INF, 5) == INF
