import ast
import random
from fractions import Fraction as F
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import finiteot
from finiteot.analysis import liminf_cost_check
from finiteot.coupling import (
    TransportPlan,
    _is_coupling_array,
    _line_sums,
    _sum_cells,
    _worst_first,
    all_indicator_pairs,
    is_coupling,
    marginals,
    product_coupling,
    restrict_and_normalize,
    tail_mass_bound_check,
    verify_coupling_via_test_functions,
)
from finiteot.generators import (
    random_coupling,
    random_positive_rational_measure,
    random_rational_measure,
    random_rational_metric_space,
    random_vertex_coupling,
)
from finiteot.measure import DiscreteMeasure, integrate, new_measure
from finiteot.numerics import (
    INF,
    DomainError,
    EmptyRestrictionError,
    ShapeError,
    default_tol,
    infer_mode,
)
from finiteot.solver import cost_of_plan, solve_kantorovich
from finiteot.space import CostMatrix
from finiteot.wasserstein import glue, glued_marginal_13, wasserstein_distance

HALF = F(1, 2)
UNIFORM2 = new_measure([HALF, HALF])


class TestProductCoupling:
    def test_uniform_product(self):
        plan = product_coupling(UNIFORM2, UNIFORM2)
        assert plan.matrix == ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))

    def test_dirac_times_dirac(self):
        plan = product_coupling(new_measure([1, 0]), new_measure([0, 1]))
        assert plan.matrix == ((0, 1), (0, 0))

    def test_general_product_has_right_marginals(self):
        mu1 = new_measure([F(1, 4), F(3, 4)])
        mu2 = new_measure([F(1, 3), F(2, 3)])
        plan = product_coupling(mu1, mu2)
        assert plan.matrix == (
            (F(1, 12), F(2, 12)),
            (F(3, 12), F(6, 12)),
        )
        assert is_coupling(plan, mu1, mu2)[0]

    def test_always_a_coupling(self):
        rng = random.Random(5)
        for _ in range(100):
            mu1 = random_rational_measure(rng, rng.randint(1, 5))
            mu2 = random_rational_measure(rng, rng.randint(1, 5))
            assert is_coupling(product_coupling(mu1, mu2), mu1, mu2)[0]


class TestMarginals:
    def test_product_marginals(self):
        m1, m2 = marginals(TransportPlan(((F(1, 4),) * 2,) * 2))
        assert m1.weights == (HALF, HALF) and m2.weights == (HALF, HALF)

    def test_antidiagonal(self):
        m1, m2 = marginals(TransportPlan(((0, 1), (0, 0))))
        assert m1.weights == (1, 0) and m2.weights == (0, 1)

    def test_diagonal_thirds(self):
        t = F(1, 3)
        m1, m2 = marginals(TransportPlan(((t, 0, 0), (0, t, 0), (0, 0, t))))
        assert m1.weights == (t, t, t) == m2.weights


class TestIsCoupling:
    def test_mass_deficit_detected(self):
        ok, report = is_coupling(((HALF, 0), (0, F(1, 4))), UNIFORM2, UNIFORM2)
        assert not ok
        assert any(kind == "row" and idx == 1 for kind, idx, _ in report)

    def test_diagonal_half(self):
        assert is_coupling(((HALF, 0), (0, HALF)), UNIFORM2, UNIFORM2)[0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            is_coupling(((1,),), UNIFORM2, UNIFORM2)

    @pytest.mark.parametrize("as_array", [True, False])
    def test_nan_cell_is_a_violation(self, as_array):
        """NaN compares False both ways, so a test written x < -tol passes it."""
        nan = float("nan")
        plan = ((0.5, nan), (0.0, 0.5))
        mu = new_measure((0.5, 0.5))
        ok, report = is_coupling(np.array(plan) if as_array else plan, mu, mu)
        assert not ok
        assert report[0][2] != report[0][2]  # NaN sorts first
        assert {(kind, idx) for kind, idx, _ in report} == {
            ("nonnegativity", (0, 1)), ("row", 0), ("column", 1)
        }
        ok, report = _is_coupling_array(np.array(plan), mu.float_weights, mu.float_weights, 1e-9)
        assert not ok and len(report) == 3
        # the test-function check: its tests are written so that NaN fails them
        plan = [[nan, 0.5], [0, 0.5]]
        assert not verify_coupling_via_test_functions(np.array(plan) if as_array else plan, mu, mu)

    def test_solver_plans_are_checked_on_their_arrays(self):
        mu = new_measure((0.25, 0.75))
        sol = solve_kantorovich(mu, mu, ((0.0, 1.0), (1.0, 0.0)))
        assert "matrix" not in vars(sol.plan)
        assert is_coupling(sol.plan, mu, mu) == (True, [])
        assert "matrix" not in vars(sol.plan)  # read off the array, not built
        other = new_measure((0.5, 0.5))
        ok, report = is_coupling(sol.plan, other, other)
        assert not ok and {kind for kind, _, _ in report} == {"row", "column"}

    def test_exact_solver_plans_are_checked_on_their_ints(self):
        # the same (ok, report) as the cell-by-cell check of the plan's
        # matrix: on solver plans, on copies with one unit of mass moved
        # (from a cell that may hold none, so that it turns negative), and
        # against measures of other scales, for tolerances of both kinds
        rng = random.Random(31)
        checks = bad = 0
        for _ in range(60):
            n, m = rng.randint(1, 9), rng.randint(1, 9)
            mu1 = random_positive_rational_measure(rng, n)
            mu2 = random_positive_rational_measure(rng, m)
            cost = [[rng.choice((rng.randint(0, 9), F(rng.randint(0, 90), 7))) for _ in range(m)]
                    for _ in range(n)]
            plan = solve_kantorovich(mu1, mu2, cost).plan
            X = plan._array.copy()
            X[rng.randrange(n), rng.randrange(m)] -= 1
            X[rng.randrange(n), rng.randrange(m)] += 1
            moved = TransportPlan._of_array(X, mu1, mu2, plan._scale, F(0))
            others = random_positive_rational_measure(rng, n), random_positive_rational_measure(rng, m)
            cases = [(nu1, nu2, tol) for nu1, nu2 in ((mu1, mu2), others)
                     for tol in (None, 0, F(1, plan._scale), 1e-3)]
            for p in (plan, moved):
                got = [is_coupling(p, *case) for case in cases]
                assert "matrix" not in vars(p)  # read off the ints
                assert typed(got) == typed([reference_is_coupling(p.matrix, *case) for case in cases])
                checks += len(got)
                bad += sum(not ok for ok, _ in got)
        assert 0 < bad < checks


def full_report(X, a, b, tol):
    """The (ok, report) of _is_coupling_array built cell by cell for every
    plan, as it was before a passing plan stopped at the reductions."""
    i, j = np.logical_not(X >= -tol).nonzero()
    report = [("nonnegativity", (r, c), -X.item(r, c)) for r, c in zip(i.tolist(), j.tolist())]
    for kind, axis, weights in (("row", 1, a), ("column", 0, b)):
        gaps = np.abs(np.add.reduce(X, axis=axis) - weights)
        (bad,) = np.logical_not(gaps <= tol).nonzero()
        report += [(kind, k, gaps.item(k)) for k in bad.tolist()]
    return _worst_first(report)


def coupling_check_cases():
    """(kind, X, a, b, tol): seeded plans of integer masses and their
    marginals, as float64 (the masses over their total), int64 (also with a
    total just below 2^62) and object arrays (Fractions), as they are or
    with a NaN cell (the float kinds), a negative cell, a cell one unit up
    (its row and column one unit off) or a unit moved along a row."""
    rng = random.Random(37)
    kinds = ("float64", "int64", "int64 near 2^62", "object")
    cases = []
    for trial in range(400):
        kind, change = kinds[trial % 4], trial // 4 % 5
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        P = np.array([[rng.choice((0, rng.randint(1, 9))) for _ in range(m)] for _ in range(n)])
        P[rng.randrange(n), rng.randrange(m)] += 1
        total = int(P.sum())
        if kind == "int64 near 2^62":
            P = P * ((2**62 - 1) // total)
        if kind == "float64":
            X, unit, tol = P / total, rng.choice((1e-12, 1e-6)), 1e-9
        elif kind == "object":
            X = np.array([[F(int(x), total) for x in row] for row in P], dtype=object)
            unit, tol = F(1, total * rng.choice((1, 1000))), rng.choice((0, F(1, 10**4)))
        else:
            X, unit, tol = P.astype(np.int64), 1, rng.choice((0, 0, 1))
        a, b = np.add.reduce(X, axis=1), np.add.reduce(X, axis=0)
        X = X.copy()
        i, j = rng.randrange(n), rng.randrange(m)
        if change == 1 and kind in ("float64", "object"):
            X[i, j] = float("nan")
        elif change == 2:
            X[i, j] = -unit
        elif change == 3:
            X[i, j] += unit
        elif change == 4:
            X[i, j] += unit
            X[i, rng.randrange(m)] -= unit
        cases.append((kind, X, a, b, tol))
    return cases


def same_report(checked):
    """(ok, report) with NaN magnitudes comparable: NaN != NaN."""
    ok, report = checked
    return ok, [(kind, at, repr(size)) for kind, at, size in report]


class TestOnePassCouplingCheck:
    def test_same_report_as_the_cell_by_cell_check(self):
        outcomes = set()
        for kind, X, a, b, tol in coupling_check_cases():
            got = _is_coupling_array(X, a, b, tol)
            with np.errstate(invalid="ignore"):  # the reference warns on NaN object cells
                want = full_report(X, a, b, tol)
            assert same_report(got) == same_report(want), (kind, X, tol)
            outcomes.add((kind, got[0]))
        # every kind both passes and fails
        assert len(outcomes) == 8

    def test_int64_gaps_near_2_62_are_exact(self):
        big = 2**61
        X = np.array([[big, 0], [1, big - 3]], dtype=np.int64)
        a, b = np.add.reduce(X, axis=1), np.add.reduce(X, axis=0)
        assert int(a.sum()) == 2**62 - 2
        assert _is_coupling_array(X, a, b, 0) == (True, [])
        X[1, 0] += 1
        assert _is_coupling_array(X, a, b, 0) == (False, [("row", 1, 1), ("column", 0, 1)])
        assert _is_coupling_array(X, a, b, 1) == (True, [])


def reference_is_coupling_array(X, a, b, tol):
    """_is_coupling_array as it was before its one-minimum, one-maximum
    test: the row and column gaps as two arrays, passed or reported by the
    reductions and entry tests of _violations, written out here."""
    lines = [
        (kind, np.abs(np.add.reduce(X, axis=axis) - weights), tol)
        for kind, axis, weights in (("row", 1, a), ("column", 0, b))
    ]
    if X.dtype == object or any(g.dtype == object for _, g, _ in lines):
        passing = np.all(X >= -tol) and all(np.all(g <= t) for _, g, t in lines)
    else:
        passing = X.min() >= -tol and all(g.max() <= t for _, g, t in lines)
    if passing:
        return _worst_first([])
    i, j = np.logical_not(X >= -tol).nonzero()
    report = [("nonnegativity", (r, c), -X.item(r, c)) for r, c in zip(i.tolist(), j.tolist())]
    for kind, g, t in lines:
        (bad,) = np.logical_not(g <= t).nonzero()
        report += [(kind, k, g.item(k)) for k in bad.tolist()]
    return _worst_first(report)


def as_kind(kind, P, total):
    """The integer masses P over total as an array of the kind: float64,
    int64 (total 1 only) or object (Python ints over 1, else Fractions)."""
    if kind == "float64":
        return P / total
    if kind == "int64":
        return P.astype(np.int64)
    cells = [[int(x) if total == 1 else F(int(x), total) for x in row] for row in P.tolist()]
    return np.array(cells, dtype=object).reshape(P.shape)


def coupling_array_battery():
    """(X, a, b, tol): seeded plans of integer masses, over 1 or over their
    total, as float64, int64 (some near 2^62) or object arrays, against
    their line sums as float64, int64 or object arrays of the same numbers,
    as they are or with a NaN cell, a negative cell, a cell one unit up, a
    unit moved along a row, a weight one unit up, or mass moved around a
    2 x 2 cycle that keeps every line sum and leaves a cell one unit below
    zero; tol is 0, 1e-9, 1 or 1/1000."""
    rng = random.Random(4242)
    cases = []
    for trial in range(1200):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        P = np.array([[rng.choice((0, rng.randint(1, 50))) for _ in range(m)] for _ in range(n)])
        P[rng.randrange(n), rng.randrange(m)] += 1
        if rng.random() < 0.2:
            P = P * ((2**62 - 1) // int(P.sum()))
        total = 1 if trial % 2 else int(P.sum())
        kinds = ("float64", "int64", "object") if total == 1 else ("float64", "object")
        X = as_kind(kinds[trial // 2 % len(kinds)], P, total).copy()
        a = np.add.reduce(as_kind(rng.choice(kinds), P, total), axis=1)
        b = np.add.reduce(as_kind(rng.choice(kinds), P, total), axis=0)
        unit = 1 / total if X.dtype == np.float64 else F(1, total)
        i, j, change = rng.randrange(n), rng.randrange(m), trial // 6 % 7
        if change == 1 and X.dtype != np.int64:
            X[i, j] = float("nan")
        elif change == 2:
            X[i, j] = -unit
        elif change == 3:
            X[i, j] += unit
        elif change == 4:
            X[i, j] += unit
            X[i, rng.randrange(m)] -= unit
        elif change == 5:
            a = a.copy()
            a[i] += 1 if a.dtype == np.int64 else F(1, total) if a.dtype == object else 1 / total
        elif change == 6 and n > 1 and m > 1:
            k, r = rng.choice([c for c in range(m) if c != j]), rng.choice([r for r in range(n) if r != i])
            moved = X[i, j] + unit
            X[i, j] -= moved
            X[i, k] += moved
            X[r, k] -= moved
            X[r, j] += moved
        cases.append((X, a, b, rng.choice((0, 1e-9, 1, F(1, 1000)))))
    return cases


def reported(checked):
    """(ok, report) with each magnitude as its type and repr: NaN != NaN."""
    ok, report = checked
    return ok, [(kind, at, type(size).__name__, repr(size)) for kind, at, size in report]


class TestCouplingArrayReference:
    def test_same_ok_and_report_as_the_reference(self):
        outcomes = set()
        for X, a, b, tol in coupling_array_battery():
            got = _is_coupling_array(X, a, b, tol)
            with np.errstate(invalid="ignore"):  # the reference warns on NaN object cells
                want = reference_is_coupling_array(X, a, b, tol)
            assert reported(got) == reported(want), (X, a, b, tol)
            outcomes.add((X.dtype.name, a.dtype.name, got[0]))
        # every plan kind against every weight kind both passes and fails
        assert len(outcomes) == 18, sorted(outcomes)

    def test_gaps_of_two_dtypes_are_not_compared_as_one(self):
        # float64 row gaps and int64 column gaps: one maximum over both would
        # round the column gap 2^53 + 1 down to the tol 2^53 and pass it
        X = np.array([[2**53 + 1, 0], [0, 0]], dtype=np.int64)
        a, b = np.array([2.0**53, 0.0]), np.zeros(2, dtype=np.int64)
        want = reference_is_coupling_array(X, a, b, 2**53)
        assert want == (False, [("column", 0, 2**53 + 1)])
        assert _is_coupling_array(X, a, b, 2**53) == want


class TestTestFunctionCharacterization:
    def test_zero_functions_always_pass(self):
        plan = product_coupling(UNIFORM2, UNIFORM2)
        zero = (0, 0)
        assert verify_coupling_via_test_functions(plan, UNIFORM2, UNIFORM2, [(zero, zero)])

    def test_indicator_on_valid_coupling(self):
        plan = product_coupling(UNIFORM2, UNIFORM2)
        assert verify_coupling_via_test_functions(
            plan, UNIFORM2, UNIFORM2, [((1, 0), (0, 0))]
        )

    def test_indicator_catches_wrong_marginal(self):
        # all mass at (0,0): integral of 1_{x=0} is 1, but mu1 gives 1/2
        bad = ((1, 0), (0, 0))
        assert not verify_coupling_via_test_functions(
            bad, UNIFORM2, UNIFORM2, [((1, 0), (0, 0))]
        )

    def test_agrees_with_direct_check_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(200):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            plan = random_coupling(rng, mu1, mu2)
            mat = [list(row) for row in plan.matrix]
            if rng.random() < 0.5:  # corrupt half of them
                mat[rng.randrange(n)][rng.randrange(m)] += F(
                    rng.choice([-1, 1]), rng.randint(3, 9)
                )
            direct, _ = is_coupling(mat, mu1, mu2)
            assert direct == verify_coupling_via_test_functions(mat, mu1, mu2)


class TestTailBound:
    def test_full_sets_zero_tail(self):
        plan = product_coupling(UNIFORM2, UNIFORM2)
        lhs, rhs, holds = tail_mass_bound_check(plan, {0, 1}, {0, 1})
        assert lhs == 0 and rhs == 0 and holds

    def test_product_corner(self):
        plan = product_coupling(UNIFORM2, UNIFORM2)
        lhs, rhs, holds = tail_mass_bound_check(plan, {0}, {0})
        assert lhs == F(3, 4) and rhs == 1 and holds

    def test_diagonal_corner(self):
        plan = TransportPlan(((HALF, 0), (0, HALF)))
        lhs, rhs, holds = tail_mass_bound_check(plan, {0}, {0})
        assert lhs == HALF and rhs == 1 and holds

    def test_holds_on_random_couplings_and_subsets(self):
        rng = random.Random(3)
        for _ in range(300):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            plan = random_coupling(rng, mu1, mu2)
            K1 = {i for i in range(n) if rng.random() < 0.5}
            K2 = {j for j in range(m) if rng.random() < 0.5}
            assert tail_mass_bound_check(plan, K1, K2, mu1, mu2)[2]

    def test_float_couplings_hold_under_the_default_tol(self):
        # float roundoff in the plan's sums broke the bound on 27 of these
        # 300 seeds while the default tol was 0 in float mode too
        for seed in range(300):
            rng = random.Random(seed)
            n, m = rng.randint(2, 6), rng.randint(2, 6)
            mu1, mu2 = (
                new_measure(map(float, random_rational_measure(rng, k).weights))
                for k in (n, m)
            )
            plan = random_coupling(rng, mu1, mu2)
            K2 = set(rng.sample(range(m), rng.randint(0, m)))
            assert tail_mass_bound_check(plan, range(n), K2, mu1, mu2)[2], seed

    def test_bad_index(self):
        with pytest.raises(IndexError):
            tail_mass_bound_check(product_coupling(UNIFORM2, UNIFORM2), {5}, set())


class TestRestriction:
    def test_identity_mask(self):
        plan = product_coupling(UNIFORM2, UNIFORM2)
        restricted, Z, m1, m2 = restrict_and_normalize(plan, [[True] * 2] * 2)
        assert restricted.matrix == plan.matrix
        assert Z == 1
        assert m1.weights == UNIFORM2.weights and m2.weights == UNIFORM2.weights

    def test_single_cell(self):
        plan = TransportPlan(((HALF, 0), (0, HALF)))
        restricted, Z, m1, m2 = restrict_and_normalize(
            plan, [[True, False], [False, False]]
        )
        assert restricted.matrix == ((1, 0), (0, 0))
        assert Z == HALF
        assert m1.weights == (1, 0) and m2.weights == (1, 0)

    def test_empty_mask_rejected(self):
        plan = TransportPlan(((HALF, 0), (0, HALF)))
        with pytest.raises(EmptyRestrictionError):
            restrict_and_normalize(plan, [[False, True], [True, False]])

    def test_unnormalizing_recovers_minorant(self):
        rng = random.Random(19)
        for _ in range(100):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            mu1 = random_rational_measure(rng, n)
            mu2 = random_rational_measure(rng, m)
            plan = random_coupling(rng, mu1, mu2)
            mask = [[rng.random() < 0.6 for _ in range(m)] for _ in range(n)]
            try:
                restricted, Z, m1, m2 = restrict_and_normalize(plan, mask)
            except EmptyRestrictionError:
                continue
            assert restricted.total_mass() == 1
            assert is_coupling(restricted, m1, m2)[0]
            for i in range(n):
                for j in range(m):
                    assert restricted.matrix[i][j] * Z <= plan.matrix[i][j]


def reference_restrict(plan, mask):
    """The cell loop restrict_and_normalize replaced, on the cells as the
    plan holds them, with an exact plan divided as Fractions (the loop
    divided an int plan's ints into floats)."""
    cells = as_read(plan)
    kept = [[x if keep else 0 for x, keep in zip(*rows)] for rows in zip(cells, mask)]
    Z = sum(sum(row) for row in kept)
    if Z <= 0:
        raise EmptyRestrictionError("restriction keeps zero mass")
    divide = (lambda x: F(x) / Z) if plan.mode == "rational" else (lambda x: x / Z)
    normalized = tuple(tuple(map(divide, row)) for row in kept)
    mu1p, mu2p = (DiscreteMeasure(tuple(map(sum, sums))) for sums in (normalized, zip(*normalized)))
    return TransportPlan(normalized, mu1p, mu2p), Z, mu1p, mu2p


class TestRestrictOnThePlanFormat:
    def test_int_plan_divides_exactly(self):
        # it returned ((1.0, 0.0), (0.0, 0.0)) with float marginals
        plan = TransportPlan(((1, 0), (0, 0)))
        restricted, Z, m1, m2 = restrict_and_normalize(plan, [[True, False], [False, False]])
        assert typed(restricted.matrix) == typed(((F(1), F(0)), (F(0), F(0))))
        assert typed(Z) == typed(1)
        assert typed((m1, m2)) == typed((new_measure((F(1), F(0))),) * 2)

    def test_every_restriction_matches_its_reference(self):
        rng = random.Random(1822)
        for trial in range(40):
            for _, given, _, _ in battery_plans(rng, trial) + battery_solved(rng, trial):
                plan = given if isinstance(given, TransportPlan) else TransportPlan(given)
                n, m = plan.shape
                mask = [[rng.random() < 0.6 for _ in range(m)] for _ in range(n)]
                for keep in (mask, np.array(mask), [[True] * m] * n):
                    assert outcome(restrict_and_normalize, plan, keep) == outcome(
                        reference_restrict, plan, keep
                    )


def test_int_array_plan_is_exact():
    """An int64 plan is an exact plan of Python ints, as a tuple of ints is."""
    plan = TransportPlan(np.array([[1, 0], [0, 0]]))
    assert plan.mode == "rational"
    assert typed(plan.matrix) == typed(((1, 0), (0, 0)))
    assert typed(marginals(plan)) == typed((new_measure((1, 0)), new_measure((1, 0))))
    value = cost_of_plan(plan, [[3, 1], [1, 0]])
    assert type(value) is int and value == 3


def test_plan_format_is_read_in_coupling_only():
    """No module but coupling.py reads a TransportPlan's private fields, so
    that the plan's number format is decided, and read, in one place."""
    half = new_measure((F(1, 2), F(1, 2)))
    plans = [TransportPlan(((F(1, 2), 0), (0, F(1, 2)))), TransportPlan(((0.5, 0.0), (0.0, 0.5)))]
    for mu in (half, new_measure((0.5, 0.5))):
        plans.append(solve_kantorovich(mu, mu, ((0, 1), (1, 0))).plan)
    for plan in plans:
        plan.total_mass()  # builds what a plan builds on first use
    fields = {name for plan in plans for name in vars(plan) if name.startswith("_")}
    assert {"_array", "_scale"} <= fields
    package = Path(finiteot.__file__).parent
    readers = [
        f"{path.relative_to(package)}:{node.lineno} reads .{node.attr}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "coupling.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
    assert not readers, readers


def typed(x):
    """x with every number as (type, repr): types compare too, NaN equals NaN."""
    if isinstance(x, (tuple, list)):
        return tuple(map(typed, x))
    if isinstance(x, DiscreteMeasure):
        return DiscreteMeasure, typed(x.weights)
    if isinstance(x, dict):
        return tuple((key, typed(value)) for key, value in x.items())
    return type(x), repr(x)


# The cell-by-cell paths that the plan's format replaced, kept as the
# references of the battery below.  They run on the cells as the plan holds
# them (as_read), in Python's own arithmetic.


def as_read(plan):
    """The plan's cells as its format holds them: in a float plan every cell
    with mass is a float, exact ones rounded; zero cells keep their types."""
    if plan.mode == "rational":
        return plan.matrix
    return tuple(tuple(float(x) if x else x for x in row) for row in plan.matrix)


def reference_marginals(cells):
    rows = tuple(sum(row) for row in cells)
    return DiscreteMeasure(rows), DiscreteMeasure(tuple(sum(column) for column in zip(*cells)))


def reference_is_coupling(cells, mu1, mu2, tol=None):
    if tol is None:
        tol = default_tol(infer_mode(chain(mu1.weights, mu2.weights, *cells)))
    report = [
        ("nonnegativity", (i, j), -x)
        for i, row in enumerate(cells)
        for j, x in enumerate(row)
        if x and not x >= -tol
    ]
    for kind, lines, weights in (("row", cells, mu1.weights), ("column", zip(*cells), mu2.weights)):
        for k, (line, w) in enumerate(zip(lines, weights)):
            gap = abs(sum(filter(None, line)) - w)
            if not gap <= tol:
                report.append((kind, k, gap))
    return _worst_first(report)


def reference_cost(cells, cost):
    rows = cost.cost if isinstance(cost, CostMatrix) else cost
    pairs = [(x, c) for xs, cs in zip(cells, rows) for x, c in zip(xs, cs) if x != 0]
    cost_mode = cost.mode if isinstance(cost, CostMatrix) else infer_mode(chain(*rows))
    if infer_mode(chain(*cells)) == cost_mode == "rational":
        return INF if any(c == INF for _, c in pairs) else sum(x * c for x, c in pairs)
    terms = [float(c) * float(x) for x, c in pairs]
    if any(abs(t) == INF for t in terms):
        return INF
    total = 0
    for t in terms:
        total += t
    return total


def reference_tail(cells, K1, K2, mu1, mu2):
    tol = default_tol(infer_mode(chain(mu1.weights, mu2.weights, *cells)))
    outside = ((i, j) for i in range(len(cells)) for j in range(len(cells[0])))
    lhs = sum(cells[i][j] for i, j in outside if i not in K1 or j not in K2)
    rhs = sum(w for i, w in enumerate(mu1.weights) if i not in K1)
    rhs = rhs + sum(w for j, w in enumerate(mu2.weights) if j not in K2)
    return lhs, rhs, lhs <= rhs + tol


def reference_verify(cells, mu1, mu2, tol=None):
    n, m = len(cells), len(cells[0])
    if tol is None:
        tol = default_tol(infer_mode(chain(mu1.weights, mu2.weights, *cells)))
    if any(not x >= -tol for row in cells for x in row):
        return False
    for phi1, phi2 in all_indicator_pairs(n, m):
        v1, v2 = phi1.values, phi2.values
        lhs = sum(
            (v1[i] + v2[j]) * x for i, row in enumerate(cells) for j, x in enumerate(row) if x != 0
        )
        if not abs(lhs - integrate(mu1, v1) - integrate(mu2, v2)) <= tol:
            return False
    return True


def reference_liminf(plans, limit, cost):
    """liminf_cost_check's report, or its message, from the cells (tol=None)."""
    cells = [as_read(p) for p in plans]
    rows = cost.cost if isinstance(cost, CostMatrix) else cost
    tol = default_tol(infer_mode(chain(*as_read(limit), *chain(*cells), *rows)))
    gaps = []
    for c in cells:
        worst = (0, (0, 0))
        for i, (row, lrow) in enumerate(zip(c, as_read(limit))):
            for j, (x, y) in enumerate(zip(row, lrow)):
                if abs(x - y) > worst[0]:
                    worst = (abs(x - y), (i, j))
        gaps.append(worst)
    tail = max(1, -(-len(plans) // 4))
    for t in range(len(plans) - tail, len(plans) - 1):
        if gaps[t + 1][0] > gaps[t][0] + tol:
            return (f"sequence does not converge to the limit: entry "
                    f"{gaps[t + 1][1]} gap grows to {gaps[t + 1][0]} at step {t + 1}")
    liminf = min(reference_cost(c, cost) for c in cells[-tail:])
    value = reference_cost(as_read(limit), cost)
    holds = liminf == INF or value != INF and value <= liminf + tol
    return {"liminf_value": liminf, "limit_value": value, "tail_length": tail, "holds": holds}


def outcome(check, *args):
    """typed(check(*args)), or the type and message of the error it raises."""
    try:
        return typed(check(*args))
    except (DomainError, ShapeError) as exc:
        return type(exc), str(exc)


def battery_plans(rng, trial):
    """(name, plan as given, mu1, mu2) cases of n x m plans, n, m < 8."""
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    mu1, mu2 = random_rational_measure(rng, n), random_rational_measure(rng, m)
    make = random_vertex_coupling if trial % 2 else random_coupling
    frac = [list(row) for row in make(rng, mu1, mu2).matrix]
    if trial % 3 == 0:  # off a coupling by one cell, which may turn negative
        frac[rng.randrange(n)][rng.randrange(m)] += F(rng.choice((-1, 1)), rng.randint(2, 9))
    floats = [[float(x) for x in row] for row in frac]
    ints = [[rng.choice((0, 0, rng.randint(1, 5))) for _ in range(m)] for _ in range(n)]
    mixed = [[float(x) if rng.random() < 0.5 else x for x in row] for row in frac]
    int_zeros = [[x if x else 0 for x in row] for row in frac]
    fmu1, fmu2 = (new_measure(map(float, mu.weights)) for mu in (mu1, mu2))
    dirac1, dirac2 = new_measure([1] + [0] * (n - 1)), new_measure([0] * (m - 1) + [1])
    return [
        ("Fraction", frac, mu1, mu2), ("Fraction, float weights", frac, fmu1, fmu2),
        ("Fraction, int weights", frac, dirac1, dirac2), ("int zeros", int_zeros, mu1, mu2),
        ("int", ints, dirac1, dirac2), ("int, Fraction weights", ints, mu1, mu2),
        ("float", floats, fmu1, fmu2), ("float, Fraction weights", floats, mu1, mu2),
        ("mixed", mixed, mu1, mu2), ("float64 array", np.array(floats), fmu1, fmu2),
        ("int64 array", np.array(ints), dirac1, dirac2),
        ("object array", np.array(frac, dtype=object), mu1, mu2),
    ]


def battery_solved(rng, trial):
    """Solver plans in both modes and glued 1-3 plans, with their measures."""
    n = rng.randint(1, 6)
    space = random_rational_metric_space(rng, n)
    mus = [random_rational_measure(rng, n) for _ in range(3)]
    if trial % 2:
        mus = [new_measure(map(float, mu.weights)) for mu in mus]
    plans = [wasserstein_distance(mus[k], mus[k + 1], space)[1] for k in (0, 1)]
    tuples = [random_coupling(rng, mus[k], mus[k + 1]) for k in (0, 1)]
    return [
        ("solver plan", plans[0], mus[0], mus[1]),
        ("glued solver plans", glued_marginal_13(glue(*plans)), mus[0], mus[2]),
        ("glued couplings", glued_marginal_13(glue(*tuples)), mus[0], mus[2]),
    ]


class TestOnePlanFormat:
    """Every plan consumer against its cell-by-cell reference, in value and
    type, on int, Fraction, float and mixed tuples, on float64, int64 and
    object arrays, on solver plans of both modes and on glued 1-3 plans.
    The plans are below 8 cells a side, where np.add.reduce adds a float
    row in order, as sum() does."""

    @staticmethod
    def costs(rng, n, m):
        ints = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        fractions = [[F(rng.randint(0, 90), 7) for _ in range(m)] for _ in range(n)]
        floats = [[float(x) for x in row] for row in fractions]
        forbidden = [[INF if rng.random() < 0.2 else x for x in row] for row in ints]
        return [ints, fractions, floats, forbidden, CostMatrix(ints), CostMatrix(floats),
                CostMatrix(forbidden), np.array(floats)]

    def check(self, rng, given, mu1, mu2):
        plan = given if isinstance(given, TransportPlan) else TransportPlan(given)
        cells = as_read(plan)
        n, m = plan.shape
        assert outcome(marginals, plan) == outcome(reference_marginals, cells)
        assert typed(plan.total_mass()) == typed(sum(sum(row) for row in cells))
        for raw in {id(given): given, id(plan): plan}.values():
            for tol in (None, 0, F(1, 1000), 1e-3):
                assert typed(is_coupling(raw, mu1, mu2, tol)) == typed(
                    reference_is_coupling(cells, mu1, mu2, tol)
                )
            for tol in (None, 0):
                got = verify_coupling_via_test_functions(raw, mu1, mu2, None, tol)
                assert got is reference_verify(cells, mu1, mu2, tol)
            for cost in self.costs(rng, n, m):
                assert typed(cost_of_plan(raw, cost)) == typed(reference_cost(cells, cost))
        K1, K2 = ({k for k in range(size) if rng.random() < 0.5} for size in (n, m))
        assert typed(tail_mass_bound_check(plan, K1, K2, mu1, mu2)) == typed(
            reference_tail(cells, K1, K2, mu1, mu2)
        )
        try:
            got = tail_mass_bound_check(plan, K1, K2)
        except DomainError:  # the plan's marginals are not probability measures
            return
        assert typed(got) == typed(reference_tail(cells, K1, K2, *reference_marginals(cells)))
        other = TransportPlan(plan.matrix[::-1])
        cost = self.costs(rng, n, m)[rng.randrange(8)]
        for sequence in ([other] * 7 + [plan], [plan] * 7 + [other]):
            try:
                got = typed(liminf_cost_check(sequence, plan, cost))
            except DomainError as exc:
                got = str(exc)
            want = reference_liminf(sequence, plan, cost)
            assert got == (want if isinstance(want, str) else typed(want))

    def test_every_consumer_matches_its_reference(self):
        rng = random.Random(1717)
        for trial in range(40):
            for _, given, mu1, mu2 in battery_plans(rng, trial) + battery_solved(rng, trial):
                self.check(rng, given, mu1, mu2)

    def test_off_diagonal_mass_is_the_cell_sum(self):
        # the sum metric_axiom_suite reads off its plans, in row-major order
        rng = random.Random(1719)
        for trial in range(40):
            for _, plan, _, _ in battery_solved(rng, trial):
                n = plan.shape[0]
                cells = enumerate(as_read(plan))
                off = [x for i, row in cells for j, x in enumerate(row) if i != j]
                assert typed(_sum_cells(plan, ~np.eye(n, dtype=bool))) == typed(sum(off))

    def test_float_sums_add_in_order(self):
        # rows of 20 cells, which np.add.reduce would add pairwise
        rng = random.Random(1721)
        for _ in range(20):
            plan = TransportPlan([[rng.random() for _ in range(20)] for _ in range(3)])
            cells = as_read(plan)
            rows = tuple(sum(row) for row in cells), tuple(sum(column) for column in zip(*cells))
            assert typed(_line_sums(plan)) == typed(rows)
            assert typed(plan.total_mass()) == typed(sum(rows[0]))
            K2 = {j for j in range(20) if rng.random() < 0.5}
            lhs = tail_mass_bound_check(plan, {0, 1, 2}, K2, new_measure((1,)), new_measure((1,)))[0]
            assert typed(lhs) == typed(sum(x for row in cells for j, x in enumerate(row) if j not in K2))
