import ast
import random
import re
import sys
from fractions import Fraction as F
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest

import finiteot
from finiteot.analysis import (
    ExtendedFunction,
    check_moreau_yosida_properties,
    exact_recovery_threshold,
    liminf_cost_check,
    moreau_yosida,
    narrow_limit_check,
)
from finiteot.coupling import (
    TransportPlan,
    is_coupling,
    tail_mass_bound_check,
    verify_coupling_via_test_functions,
)
from finiteot.measure import DiscreteMeasure, measures_equal, new_measure
from finiteot.numerics import (
    FLOAT,
    INF,
    RATIONAL,
    DataError,
    GlueError,
    ParameterError,
    _check_floats,
    check_tol,
    default_tol,
    extended_array,
    infer_mode,
    mode_of,
)
from finiteot.solver import cost_of_plan, solve_kantorovich, verify_restriction_optimality
from finiteot.space import CostMatrix, FiniteMetricSpace, from_point_cloud, validate_metric
from finiteot.wasserstein import (
    GluedPlan,
    WassersteinParams,
    glue,
    glued_plan_is_valid,
    metric_axiom_suite,
    triangle_witness,
)


class TestInferMode:
    @pytest.mark.parametrize(
        "values, mode",
        [
            ([F(1), INF], RATIONAL),
            ([1, 0.5], FLOAT),
            ([np.float64("inf"), 2], RATIONAL),
            ([np.int64(1)], RATIONAL),
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


#: number-kind tests outside numerics.py that check a parameter, not a
#: number: power_cost's p, from_point_cloud's norm order, io.encode's counters
PARAMETER_CHECKS = {
    ("space.py", "_build_power_cost"),
    ("space.py", "from_point_cloud"),
    ("io.py", "encode"),
}


def test_number_kinds_and_the_tolerance_floor_live_in_numerics():
    """No module but numerics.py calls issubclass, tests a value against
    float, int or Fraction (isinstance, directly or mapped, or type(x) is
    ...), or calls math.floor: what a number is, and how a tolerance meets
    integers (numerics._floor), are decided in numerics only.  The
    parameter checks named in PARAMETER_CHECKS are allowed."""
    package = Path(finiteot.__file__).parent
    classes = {"float", "int", "Fraction"}

    def names(nodes):
        return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}

    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "numerics.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {}  # node -> name of the innermost function holding it
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(function), function.name))
        for node in ast.walk(tree):
            where = f"{path.relative_to(package)}:{getattr(node, 'lineno', 0)} in {owner.get(node)}"
            if isinstance(node, ast.Name) and node.id == "issubclass":
                found.append(f"{where}: issubclass")
            elif (isinstance(node, ast.Attribute) and node.attr == "floor" and names([node.value]) == {"math"}) or (
                isinstance(node, ast.ImportFrom) and node.module == "math"
                and "floor" in {alias.name for alias in node.names}
            ):
                found.append(f"{where}: math.floor")
            elif (path.name, owner.get(node)) in PARAMETER_CHECKS:
                continue
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                if names(node.args[1:]) & classes:
                    found.append(f"{where}: {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and "isinstance" in names(
                arg for arg in node.args if isinstance(arg, ast.Name)
            ):
                if names(node.args) & classes:
                    found.append(f"{where}: {ast.unparse(node)}")
            elif isinstance(node, ast.Compare) and "type" in names(
                [getattr(node.left, "func", node.left)]
            ) and names(node.comparators) & classes:
                found.append(f"{where}: {ast.unparse(node)}")
    assert not found, found


def test_int64_fit_is_decided_in_one_function():
    """The int64 bounds 2^60, 2^62 and 2^63 and the name FORBIDDEN_INT64
    appear in solver/__init__.py only inside _exact_input, the one function
    that decides which numbers a rational solve's engine gets."""
    path = Path(finiteot.__file__).parent / "solver" / "__init__.py"
    module = ast.parse(path.read_text())
    bounds = {2**60, 2**62, 2**63}

    def marks(root):
        found = {}
        for node in ast.walk(root):
            value = getattr(node, "value", None)
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.LShift)):
                left, right = (getattr(side, "value", None) for side in (node.left, node.right))
                if isinstance(left, int) and isinstance(right, int) and 0 <= right < 100:
                    value = left**right if isinstance(node.op, ast.Pow) else left << right
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):  # an import of the name
                name = node.name
            if (isinstance(node, (ast.BinOp, ast.Constant)) and value in bounds) or (
                name == "FORBIDDEN_INT64"
            ):
                found[node] = f"{path.name}:{node.lineno} {ast.unparse(node)}"
        return found

    fit = next(
        node for node in module.body
        if isinstance(node, ast.FunctionDef) and node.name == "_exact_input"
    )
    inside = marks(fit)
    outside = [where for node, where in marks(module).items() if node not in inside]
    assert not outside, outside
    assert {ast.unparse(node) for node in inside} >= {"2 ** 60", "2 ** 62", "2 ** 63"}
    assert any("FORBIDDEN_INT64" in where for where in inside.values())


def package_functions():
    """(module path, function node) of every function in the package."""
    root = Path(finiteot.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                yield path.relative_to(root), function


def test_a_solve_reads_no_cost_scaled_tolerance():
    """solve_kantorovich calls no max_abs_finite: tol prices costs, and
    every mass is decided on default_tol of the mode."""
    callers = {}
    for _, function in package_functions():
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                callers.setdefault(name, []).append(function.name)
    assert "solve_kantorovich" not in callers.get("max_abs_finite", [])


def test_one_module_decides_the_check_tolerance():
    """Every check resolves its tol through numerics.check_tol: outside
    numerics only solve_kantorovich, whose tol prices costs, holds an
    "if tol is None", no other module scales FLOAT_TOL (the solver passes
    it on as rel_tol), pricing_tol, the second rule, is gone, and every
    tolerance constant lives in numerics."""
    defaults, scaled = [], []
    for path, function in package_functions():
        if path.name == "numerics.py":
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.If) and ast.unparse(node.test) == "tol is None":
                defaults.append(function.name)
            if isinstance(node, ast.BinOp) and "FLOAT_TOL" in ast.unparse(node):
                scaled.append(f"{path}:{node.lineno} {ast.unparse(node)}")
    assert defaults == ["solve_kantorovich"]
    assert not scaled, scaled
    root = Path(finiteot.__file__).parent
    assert not hasattr(finiteot.numerics, "pricing_tol")
    assert not [path for path in root.rglob("*.py") if "pricing_tol" in path.read_text()]
    # every tolerance constant lives in numerics
    constants = {
        f"{path.relative_to(root)} {target.id}"
        for path in root.rglob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if getattr(target, "id", "").endswith("_TOL")
    }
    assert constants == {"numerics.py FLOAT_TOL", "numerics.py WEIGHT_SUM_TOL"}
    assert finiteot.numerics.WEIGHT_SUM_TOL == 1e-12


def test_package_holds_no_assert():
    """python -O drops an assert, so library code checks with a raise and
    leaves cross-checks to the tests."""
    package = Path(finiteot.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
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


class TestNumpyScalarsTable:
    """Each kind of number (numerics.INTEGERS, EXACT, FLOATS), numpy scalars
    included, gives the mode and the answers of the Python numbers it
    equals: as weights, as costs with and without +inf, as plan cells, as
    function values and as bare numbers.  The answers are compared by
    repr, which tells a Python number from a numpy one, wherever the
    library computes them from the numbers it read."""

    #: kind -> the kind of the Python numbers it equals
    TWINS = {
        int: int, bool: bool, np.int64: int, np.uint64: int, np.bool_: bool,
        F: F, float: float, np.float32: float, np.float64: float,
    }
    SPACE = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
    HALF = DiscreteMeasure((F(1, 2), F(1, 2)))

    @staticmethod
    def solved(mu1, mu2, cost):
        sol = solve_kantorovich(mu1, mu2, cost)
        plan = None if sol.plan is None else sol.plan.matrix
        return sol.mode, repr(sol.optimal_cost), sol.iterations, repr(plan), sol.infeasibility_certificate

    def outcome(self, kind, infinite):
        """What the library gives for numbers 0 and 1 of the kind."""
        zero, one = kind(0), kind(1)
        cost = ((zero, one), (INF if infinite else one, zero))
        mu, cm = DiscreteMeasure((one, zero)), CostMatrix(cost)
        plan = TransportPlan(((zero, one), (zero, zero)))
        f = ExtendedFunction((zero, INF if infinite else one))
        return [
            infer_mode([one, INF]), mode_of((zero,), (one,)),
            mu.mode, repr(mu.weights), cm.mode, repr(cm.max_abs_finite()),
            self.solved(mu, self.HALF, ((0, 1), (1, 0))),
            self.solved(self.HALF, self.HALF, cost),
            self.solved(mu, self.HALF, cost),
            plan.mode, repr(cost_of_plan(plan, cost)),
            repr(is_coupling(plan, mu, DiscreteMeasure((0, 1)))),
            f.mode, moreau_yosida(f, self.SPACE, 2), repr(exact_recovery_threshold(f, self.SPACE)),
            measures_equal(mu, DiscreteMeasure((1, 0))),
        ]

    def test_each_kind_reads_as_its_python_twin(self):
        for (kind, twin), infinite in product(self.TWINS.items(), (False, True)):
            assert self.outcome(kind, infinite) == self.outcome(twin, infinite), (kind, infinite)

    def test_exact_cells_reach_the_engines_as_python_ints(self):
        for cells in (
            [[np.int64(2), INF], [F(1, 3), 0]],
            [[np.uint64(2**63), 1], [1, 0]],
            [[np.True_, np.False_], [np.int8(-3), np.uint8(4)]],
        ):
            cm = CostMatrix(cells)
            C, scale = cm._scaled_costs
            assert cm.mode == RATIONAL and cm.array.dtype == object
            assert {type(x) for x in cm.array.ravel().tolist()} <= {int, bool, F, float}
            assert {type(x) for x in C.ravel().tolist()} <= {int, float}
            assert type(cm.max_abs_finite()) is type(CostMatrix(np.array(cells, dtype=object)).max_abs_finite())

    @pytest.mark.parametrize(
        "cells, twin, optimum",
        [
            ([[np.True_, np.False_], [np.False_, np.True_]], [[True, False], [False, True]], 0),
            ([[np.uint64(2**63), 1], [1, 0]], [[2**63, 1], [1, 0]], 1),
            ([[np.int64(1), INF], [np.int64(0), np.int64(0)]], [[1, INF], [0, 0]], F(1, 2)),
        ],
    )
    def test_numpy_integer_costs_solve_exactly(self, cells, twin, optimum):
        half = DiscreteMeasure((np.int64(1), np.int64(0)))
        for mu in (self.HALF, half):
            assert self.solved(mu, self.HALF, cells) == self.solved(mu, self.HALF, twin)
        sol = solve_kantorovich(self.HALF, self.HALF, cells)
        assert sol.mode == RATIONAL and sol.optimal_cost == optimum


#: the size from which a float64 cell may be an int that numpy read as a float
_INT64_SIZE = 2.0**63


def reference_extended_array(rows, what):
    """extended_array as it was when only a finite float in cell (0, 0)
    took the one-pass float64 read: any other list of rows went through
    numpy's dtype discovery.  Its modes are infer_mode's, and its object
    arrays hold numpy scalars as the Python numbers they equal, as the
    number rule reads them."""
    if isinstance(rows, np.ndarray):
        A = np.array(rows)
    elif rows and rows[0] and type(rows[0][0]) is float and abs(rows[0][0]) < INF:
        n, m = len(rows), len(rows[0])
        A = np.fromiter(chain.from_iterable(rows), np.float64, n * m).reshape(n, m)
        bounds = _check_floats(A, what)
        A.flags.writeable = False
        return A, FLOAT, bounds
    else:
        A = np.array(rows).reshape(len(rows), -1 if rows and rows[0] else 0)
    kind = A.dtype.kind
    bounds = None
    if A.size == 0:
        mode = infer_mode(())
    elif kind == "b" or kind in "iu" and np.can_cast(A.dtype, np.int64):
        mode = RATIONAL
        A = A if kind == "b" else A.astype(np.int64, copy=False)
        bounds = A.min().item(), A.max().item()
    elif kind == "f":
        A = A.astype(np.float64, copy=False)
        bounds = lo, hi = _check_floats(A, what)
        mode = FLOAT
        if lo <= -_INT64_SIZE or hi >= _INT64_SIZE:
            cells = rows.tolist() if isinstance(rows, np.ndarray) else rows
            mode = infer_mode(chain.from_iterable(cells))
            if mode == RATIONAL:
                A = np.array(cells, dtype=object)
                bounds = None
    else:
        A = A.astype(object, copy=False)
        mode = infer_mode(A.ravel().tolist())
        if mode == FLOAT:
            A = A.astype(np.float64)
            bounds = _check_floats(A, what)
    if A.dtype == object:  # numpy scalars read as the Python numbers they equal
        cells = [x.item() if isinstance(x, np.generic) else x for x in A.ravel().tolist()]
        A = np.array(cells, dtype=object).reshape(A.shape)
    A.flags.writeable = False
    return A, mode, bounds


def read_outcome(read, rows):
    """What a read of rows gives: the array's dtype code (which tells
    int64's two C types apart) and bytes (object arrays: their cells' types
    and reprs), the mode and the bounds' reprs; or the error's type and
    message."""
    try:
        A, mode, bounds = read(rows, "cost")
    except Exception as exc:  # compared, not hidden
        return type(exc).__name__, str(exc)
    cells = [(type(x).__name__, repr(x)) for x in A.ravel().tolist()] if A.dtype == object else A.tobytes()
    return A.dtype.char, A.shape, cells, mode, repr(bounds), A.flags.writeable


class TestFloatReadPastLeadingInf:
    """A list of rows whose first cell other than +inf is a finite float, or
    an int, is packed row by row into one float64 or int64 buffer: with the
    same array, mode and bounds as numpy's dtype discovery gives (or, for a
    finite float in cell (0, 0), the one-pass float64 read that preceded
    it), and the same errors."""

    @staticmethod
    def matrices(rng, decider):
        """Random matrices whose deciding cell is a finite float or an int."""
        common = [
            lambda: rng.randint(-1000, 1000),
            lambda: float(rng.randint(0, 1000)),
            lambda: F(rng.randint(0, 1000), rng.randint(1, 9)),
            lambda: INF,
            lambda: float(2**70 + rng.randint(0, 2**20)),
            lambda: 2**70 + rng.randint(0, 2**20),
        ]
        if decider == "float":
            first = lambda: float(rng.randint(0, 1000))  # noqa: E731
            own = [
                lambda: rng.random() * 10 ** rng.randint(-300, 300),
                lambda: -0.0,
                lambda: 5e-324 * rng.randint(1, 2**52),  # subnormal
                lambda: 2**53 + 1,
                lambda: np.float32(rng.random()),
            ]
        else:
            first = lambda: rng.randint(-1000, 1000)  # noqa: E731
            own = [
                lambda: rng.choice([2**63 - 1, -(2**63)]),
                lambda: rng.random() < 0.5,
                lambda: np.int64(rng.randint(-(2**40), 2**40)),
            ]
            common.append(lambda: rng.choice([2**63, -(2**63) - 1]))  # past int64
        for trial in range(200):
            n, m = rng.randint(1, 20), rng.randint(1, 20)
            # +inf cells that start row 0 (beside ints, they leave int64)
            lead = rng.randint(0, m) if decider == "float" or trial % 5 == 0 else 0
            pool = own + common if trial % 3 == 0 else own  # any cells, or cells that pack
            kinds = [first] + rng.sample(pool, rng.randint(0, min(3, len(pool))))
            rows = [[rng.choice(kinds)() for _ in range(m)] for _ in range(n)]
            rows[0][:lead] = [INF] * lead
            if lead < m:
                rows[0][lead] = first()  # the cell that decides
            yield rows

    def test_same_read_as_dtype_discovery(self, monkeypatch):
        packs = []

        def packed(rows, code):
            A = numerics_packed(rows, code)
            packs.append((code, A is not None))
            return A

        numerics_packed = finiteot.numerics._packed
        monkeypatch.setattr(finiteot.numerics, "_packed", packed)
        rng = random.Random(77)
        for decider in ("float", "int"):
            for rows in self.matrices(rng, decider):
                got = read_outcome(extended_array, rows)
                assert got == read_outcome(reference_extended_array, rows), rows
        # the cases each packed read takes
        assert packs.count(("d", True)) > 100 and packs.count(("q", True)) > 100

    @pytest.mark.parametrize(
        "rows",
        [
            [[INF, 1.0], [float("nan"), 2.0]],
            [[INF, 1.0], [-INF, 2.0]],
            [[INF, 1], [2**63, 2]],
            [[1, INF], [2, 2.5]],
            [[INF, 1.0], [None, 2.0]],
            [[INF, 1.0], [2.0, 10**400]],
            [[INF, float("nan")], [1.0, 2.0]],
            [[INF, -INF], [1.0, 2.0]],
            [[INF, INF], [2.0, 1.0]],
            [[INF, INF], [2, F(1, 3)]],
            [[INF, 2], [3, INF]],
            [[INF, 2**70], [3, 1]],
            [[INF, True], [1.0, 2.0]],
            [[INF, INF], [INF, INF]],
            [[INF, F(1, 2)], [2.0, 1.0]],
            [[INF], [2.0]],
        ],
    )
    def test_same_outcome_on_bad_and_edge_rows(self, rows):
        with np.errstate(all="ignore"):
            assert read_outcome(extended_array, rows) == read_outcome(reference_extended_array, rows)

    @pytest.mark.parametrize(
        "rows, cell",
        [
            ([[INF, 1.0], [2.0, "x"]], "[1][1] is text, not a number: 'x'"),
            ([[INF, 1.0], [2.0, "2"]], "[1][1] is text, not a number: '2'"),
            ([["1.5", 2.0], [3.0, 4.0]], "[0][0] is text, not a number: '1.5'"),
            ([[1, "2"], [3, 4]], "[0][1] is text, not a number: '2'"),
            ([[1, 2], [b"3", 4]], "[1][0] is text, not a number: b'3'"),
            ([[None, 2], [3, "4"]], "[1][1] is text, not a number: '4'"),
            (np.array([["1", "2"], ["3", "4"]]), "[0][0] is text, not a number: '1'"),
            (np.array([[1.0, 2.0], [3.0, "4"]], dtype=object), "[1][1] is text, not a number: '4'"),
        ],
    )
    def test_text_cells_are_refused(self, rows, cell):
        with pytest.raises(DataError, match=re.escape(f"cost entry {cell}")):
            extended_array(rows, "cost")

    def test_text_costs_are_refused_by_the_matrix_and_the_solver(self):
        with pytest.raises(DataError, match=r"cost entry \[0\]\[0\] is text"):
            CostMatrix((("1.5", 2.0), (3.0, 4.0)))
        h = DiscreteMeasure((F(1, 2), F(1, 2)))
        with pytest.raises(DataError, match=r"cost entry \[0\]\[1\] is text"):
            solve_kantorovich(h, h, ((1, "2"), (3, 4)))
        with pytest.raises(DataError, match=r"plan entry \[1\]\[0\] is text"):
            TransportPlan(((0.5, 0.0), ("0", 0.5)))

    def test_ragged_rows_are_refused_before_the_read(self):
        for rows in ([[INF, 1.0], [2.0]], [[INF, 1.0, 2.0], [3.0, 4.0]]):
            with pytest.raises(ValueError, match="not rectangular"):
                CostMatrix(rows)
            with pytest.raises(ValueError, match="not rectangular"):
                TransportPlan(rows)


# One tolerance rule for every check (numerics.check_tol): a given tol is a
# nonnegative number, and a float default scales with what the check compares.


def cloud(seed, n, scale, line=False):
    """n points drawn uniformly from [0, scale)^2, or from [0, scale) x {0}."""
    rng = random.Random(seed)
    return [[rng.random() * scale, 0.0 if line else rng.random() * scale] for _ in range(n)]


def float_measures(rng, n, k):
    """k float measures of n positive weights, each normalised by its sum."""
    out = []
    for _ in range(k):
        w = [rng.random() for _ in range(n)]
        out.append(new_measure([x / sum(w) for x in w]))
    return out


class TestTolerancesScaleWithTheData:
    """Float sums err in proportion to their terms, so a float default
    compares within FLOAT_TOL * (1 + the largest magnitude compared); an
    absolute 1e-9 refused valid data above about 1e7."""

    def test_the_rule(self):
        assert default_tol(RATIONAL, 1e9) == check_tol(None, RATIONAL, lambda: 1 / 0) == 0
        assert default_tol(FLOAT) == check_tol(None, FLOAT) == 1e-9
        assert check_tol(None, FLOAT, lambda: 1e9) == default_tol(FLOAT, 1e9) == 1e-9 * (1 + 1e9)
        for tol in (0, 0.5, F(1, 3), INF, np.float64(0.25)):
            assert check_tol(tol, FLOAT, lambda: 1e9) is tol

    @pytest.mark.parametrize("scale", [1e8, 1e9, 1e12])
    def test_collinear_clouds_are_metrics(self, scale):
        for seed in range(10):
            space = from_point_cloud(cloud(seed, 8, scale, line=True))
            assert validate_metric(space.dist) == []

    @pytest.mark.parametrize("scale", [1e8, 1e9])
    def test_a_real_violation_at_scale_is_still_reported(self, scale):
        for seed in range(5):
            points = cloud(seed, 8, scale, line=True)
            d = [list(row) for row in from_point_cloud(points).dist]
            order = sorted(range(8), key=lambda k: points[k][0])
            i, j = order[0], order[-1]  # the two ends: every other point lies between
            d[i][j] = d[j][i] = 3 * d[i][j]
            want = sorted(
                ("triangle", (a, m, b)) for a, b in ((i, j), (j, i)) for m in range(8) if m not in (i, j)
            )
            assert sorted(r[:2] for r in validate_metric(d)) == want
            with pytest.raises(DataError, match="triangle"):
                FiniteMetricSpace(tuple(map(str, range(8))), d)

    @pytest.mark.parametrize("p, scale", [(1, 1e8), (2, 1e8), (1, 1e9), (2, 1e12)])
    def test_the_metric_suite_reports_no_roundoff_asymmetry(self, p, scale):
        for seed in range(6):
            rng = random.Random(seed)
            space = from_point_cloud(cloud(seed, 10, scale))
            report = metric_axiom_suite(float_measures(rng, 10, 4), space, WassersteinParams(p=p))
            assert report["passed"], (seed, report["failures"])

    @pytest.mark.parametrize("scale", [1e8, 1e9, 1e12])
    def test_the_ladder_reports_no_roundoff_lipschitz_failure(self, scale):
        for seed in range(6):
            rng = random.Random(seed)
            space = from_point_cloud(cloud(seed, 12, scale))
            f = [INF if rng.random() < 0.2 else rng.random() * 3 * scale for _ in range(12)]
            f[0] = min(f[0], scale)  # one finite value at least
            report = check_moreau_yosida_properties(f, space, 12)
            assert report["passed"], (seed, report["failures"])

    def test_a_rational_check_reads_no_largest_cost(self, monkeypatch):
        read = CostMatrix.max_abs_finite

        def guarded(self):  # a rational solve reads it for its int64 fit only
            caller = sys._getframe(1).f_code.co_name
            assert caller == "_exact_input", f"max_abs_finite read by {caller} in rational mode"
            return read(self)

        monkeypatch.setattr(CostMatrix, "max_abs_finite", guarded)
        d = ((0, 1, 2), (1, 0, 1), (2, 1, 0))
        space = FiniteMetricSpace(("a", "b", "c"), d)
        assert validate_metric(d) == [] and space.power_cost(2).lower_bound
        mus = [new_measure(w) for w in ((F(1, 2), F(1, 2), 0), (0, F(1, 3), F(2, 3)), (1, 0, 0))]
        assert triangle_witness(*mus, space)["holds"]
        assert metric_axiom_suite(mus, space)["passed"]
        assert check_moreau_yosida_properties((0, 3, INF), space, 4)["passed"]


def tolerance_checks():
    """(name, call of tol) for every check that takes a tol."""
    half = F(1, 2)
    space = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
    mu = new_measure((half, half))
    plan = TransportPlan(((half, 0), (0, half)))
    cost = ((0, 1), (1, 0))
    solution = solve_kantorovich(mu, mu, cost)
    return {
        "validate_metric": lambda tol: validate_metric(cost, tol),
        "FiniteMetricSpace": lambda tol: FiniteMetricSpace(("a", "b"), cost, tol),
        "CostMatrix": lambda tol: CostMatrix(cost, ((0, 0), (0, 0)), tol),
        "metric_axiom_suite": lambda tol: metric_axiom_suite([mu, mu], space, WassersteinParams(tol=tol)),
        "triangle_witness": lambda tol: triangle_witness(mu, mu, mu, space, WassersteinParams(tol=tol)),
        "check_moreau_yosida_properties": lambda tol: check_moreau_yosida_properties((0, 1), space, 2, tol),
        "verify_restriction_optimality": lambda tol: verify_restriction_optimality(
            solution, ((1, 1), (1, 1)), cost, tol
        ),
        "liminf_cost_check": lambda tol: liminf_cost_check([plan], plan, cost, tol),
        "is_coupling": lambda tol: is_coupling(plan, mu, mu, tol),
        "verify_coupling_via_test_functions": lambda tol: verify_coupling_via_test_functions(
            plan, mu, mu, tol=tol
        ),
        "tail_mass_bound_check": lambda tol: tail_mass_bound_check(plan, [0], [0], tol=tol),
        "measures_equal": lambda tol: measures_equal(mu, mu, tol=tol),
        "glue": lambda tol: glue(plan, plan, tol),
        "glued_plan_is_valid": lambda tol: glued_plan_is_valid(GluedPlan(plan, plan), plan, plan, tol),
        "narrow_limit_check": lambda tol: narrow_limit_check([mu], mu, tol),
        "solve_kantorovich": lambda tol: solve_kantorovich(mu, mu, cost, tol=tol),
    }


class TestAGivenToleranceIsChecked:
    """A tol given to a check must be a nonnegative number: a NaN one made
    every comparison pass, and a negative one failed valid data."""

    @pytest.mark.parametrize("name", sorted(tolerance_checks()))
    @pytest.mark.parametrize("tol", [float("nan"), -1, F(-1, 3), "1e-9"], ids=repr)
    def test_a_bad_tol_is_refused(self, name, tol):
        check = tolerance_checks()[name]
        check(0)  # the check runs on its data with a valid tol
        with pytest.raises(ParameterError, match="tol must be a nonnegative number"):
            check(tol)

    def test_the_nan_repros(self):
        nan = float("nan")
        with pytest.raises(ParameterError):
            validate_metric(((0, -5), (7, 0)), tol=nan)
        with pytest.raises(ParameterError):
            FiniteMetricSpace(("a", "b"), ((0, -5), (7, 0)), nan)
        pi12, pi23 = TransportPlan(((0.5, 0), (0, 0.5))), TransportPlan(((0.9, 0), (0, 0.1)))
        with pytest.raises(GlueError, match="middle marginals differ at index 0 by 0.4"):
            glue(pi12, pi23)
        with pytest.raises(ParameterError):
            glue(pi12, pi23, nan)
        with pytest.raises(ParameterError):
            narrow_limit_check([new_measure((0.9, 0.1))], new_measure((0.1, 0.9)), nan)
