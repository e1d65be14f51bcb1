import ast
import random
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import finiteot
from finiteot.analysis import check_moreau_yosida_properties, liminf_cost_check
from finiteot.coupling import (
    TransportPlan,
    is_coupling,
    tail_mass_bound_check,
    verify_coupling_via_test_functions,
)
from finiteot.measure import DiscreteMeasure, measures_equal
from finiteot.numerics import FLOAT, INF, RATIONAL, GlueError, infer_mode
from finiteot.solver import solve_kantorovich
from finiteot.space import FiniteMetricSpace
from finiteot.wasserstein import GluedPlan, glue, glued_plan_is_valid


class TestInferMode:
    @pytest.mark.parametrize(
        "values, mode",
        [
            ([F(1), INF], RATIONAL),
            ([1, 0.5], FLOAT),
            ([np.float64("inf"), 2], RATIONAL),
            ([np.int64(1)], FLOAT),
            ([True], RATIONAL),
        ],
    )
    def test_cases(self, values, mode):
        assert infer_mode(values) == mode

    def test_only_plus_inf_decides_nothing(self):
        assert infer_mode([F(1, 2), INF, 3]) == RATIONAL
        assert infer_mode([F(1, 2), -INF]) == FLOAT
        assert infer_mode([F(1, 2), float("nan")]) == FLOAT
        assert infer_mode(iter([INF, 0])) == RATIONAL

    def test_no_python_call_per_value(self):
        """A 100 x 100 matrix of Fractions and +inf is told apart by type:
        counting Python calls, unlike timing them, holds on any host."""
        rng = random.Random(100)
        matrix = [
            [INF if rng.random() < 0.2 else F(rng.randint(0, 99), 7) for _ in range(100)]
            for _ in range(100)
        ]
        values = [x for row in matrix for x in row]
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            mode = infer_mode(values)
        finally:
            sys.setprofile(previous)
        assert mode == RATIONAL
        assert calls < 50, f"{calls} Python calls for 10,000 values"


def test_modes_combine_in_numerics_only():
    """No module but numerics.py compares two .modes or writes
    `RATIONAL if ... else FLOAT`: modes combine in mode_of only."""
    package = Path(finiteot.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Compare, ast.BoolOp)) and 2 <= sum(
                isinstance(n, ast.Attribute) and n.attr == "mode" for n in ast.walk(node)
            ):
                found.append(f"{path.relative_to(package)}:{node.lineno} compares two .modes")
            if isinstance(node, ast.IfExp) and (
                getattr(node.body, "id", None), getattr(node.orelse, "id", None)
            ) == ("RATIONAL", "FLOAT"):
                found.append(f"{path.relative_to(package)}:{node.lineno} picks a mode")
    assert not found, found


E = F(1, 10**12)  # the perturbation that a default tol of 1e-9 absorbs and 0 does not
NUMBER = {"int": int, "Fraction": F, "float": float}


def as_kind(kind, x):
    """The number x (an int or Fraction) as a number of the kind."""
    return NUMBER[kind](x)


def exact(*kinds):
    """The rule each check wrote inline: the default tol is 0 iff no input
    is float.  "+inf" is a cost or function with int cells and +inf ones,
    which decide nothing; "int+inf" a non-strict plan of int cells and
    +inf, which reads as float."""
    return all(kind in ("int", "Fraction", "+inf") for kind in kinds)


class TestModeRuleTable:
    """Each check's default tol against the rule each check wrote inline
    before mode_of, over every mix of input kinds, observed through an
    input 1e-12 away from passing: it passes iff the default tol is 1e-9."""

    CARRIERS = ("Fraction", "float")  # the kinds that can carry the perturbation

    def test_coupling_checks(self):
        for carrier, rest, k1, k2 in product(self.CARRIERS, [*NUMBER, "int+inf"], NUMBER, NUMBER):
            zero = as_kind(rest.split("+")[0], 0)
            # a non-strict plan with a +inf cell reads as float
            matrix = ((as_kind(carrier, 1 + E), zero), (zero, INF if "inf" in rest else zero))
            mu1, mu2 = (DiscreteMeasure((as_kind(k, 1), as_kind(k, 0))) for k in (k1, k2))
            floats = not exact(carrier, rest, k1, k2)
            ok, report = is_coupling(matrix, mu1, mu2)
            assert (("row", 0) not in [r[:2] for r in report]) == floats, (matrix, k1, k2)
            if "inf" in rest:
                continue
            plan = TransportPlan(matrix)
            assert verify_coupling_via_test_functions(plan, mu1, mu2) == floats
            assert tail_mass_bound_check(plan, [1], [0, 1], mu1, mu2)[2] == floats

    def test_glue_checks(self):
        for carrier, other, carrier_first in product(self.CARRIERS, NUMBER, (True, False)):
            plans = TransportPlan(((as_kind(carrier, 1 + E),),)), TransportPlan(((as_kind(other, 1),),))
            pi12, pi23 = plans if carrier_first else plans[::-1]
            floats = not exact(carrier, other)
            assert glued_plan_is_valid(GluedPlan(pi12, pi23), pi12, pi23)[0] == floats
            try:
                glue(pi12, pi23)
            except GlueError:
                assert not floats
            else:
                assert floats

    def test_measures_equal(self):
        for carrier, other in product(self.CARRIERS, NUMBER):
            mu1 = DiscreteMeasure((as_kind(carrier, 1 - E), as_kind(carrier, E)))
            mu2 = DiscreteMeasure((as_kind(other, 1), as_kind(other, 0)))
            floats = not exact(carrier, other)
            assert measures_equal(mu1, mu2) == measures_equal(mu2, mu1) == floats

    def test_moreau_yosida_ladder(self):
        # d(0, 2) breaks the triangle inequality by E, so the envelopes break
        # the Lipschitz bound by n E
        for carrier, kind in product(self.CARRIERS, [*NUMBER, "+inf"]):
            d = [[as_kind(carrier, x) for x in row] for row in ((0, 1, 2 + E), (1, 0, 1), (2 + E, 1, 0))]
            space = FiniteMetricSpace(("0", "1", "2"), d, tol=F(1, 10**11))
            big = INF if kind == "+inf" else as_kind(kind, 100)
            f = (as_kind("int" if kind == "+inf" else kind, 0), big, big)
            report = check_moreau_yosida_properties(f, space, 2)
            assert report["passed"] == (not exact(carrier, kind)), (carrier, kind, report)

    def test_liminf(self):
        for carrier, kind, cost_kind in product(self.CARRIERS, NUMBER, [*NUMBER, "+inf"]):
            plan = tuple(as_kind(kind, x) for x in (1, 0, 0))
            limit = (as_kind(carrier, 1 - E), as_kind(carrier, E), as_kind(carrier, 0))
            number = as_kind("int" if cost_kind == "+inf" else cost_kind, 1)
            cost = ((0 * number, number, INF if cost_kind == "+inf" else 5 * number),)
            out = liminf_cost_check([(plan,)] * 4, (limit,), cost)
            assert out["holds"] == (not exact(carrier, kind, cost_kind)), (plan, limit, cost)

    def test_solver_mode(self):
        for cost_kind, k1, k2 in product([*NUMBER, "+inf"], NUMBER, NUMBER):
            number = as_kind("int" if cost_kind == "+inf" else cost_kind, 1)
            cost = ((0 * number, INF if cost_kind == "+inf" else number), (number, 0 * number))
            mu1, mu2 = (DiscreteMeasure((as_kind(k, 1), as_kind(k, 0))) for k in (k1, k2))
            mode = solve_kantorovich(mu1, mu2, cost).mode
            assert mode == ("rational" if exact(cost_kind, k1, k2) else "float")
