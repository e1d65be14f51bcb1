"""Input validation on arrays: every error and every mode of the type-by-type checks.

CostMatrix reads its numeric mode off the dtype of one array, and
DiscreteMeasure checks float weights as one float64 array.  This table pins
what the cell-by-cell checks they replace gave: the exception class, its
message (the first bad cell in row-major order decides it), and the mode a
solve infers.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from finiteot import new_measure, solve_kantorovich
from finiteot.analysis import ExtendedFunction, moreau_yosida
from finiteot.measure import TestFunction
from finiteot.numerics import DataError, DomainError, NormalizationError, ShapeError
from finiteot.space import CostMatrix, FiniteMetricSpace

INF, NAN = float("inf"), float("nan")
HALF = F(1, 2)


@pytest.mark.parametrize(
    "cost, error, message",
    [
        (((0.0, NAN), (1.0, 0.0)), DataError, "NaN cost entry"),
        (((0.0, 1.0), (-INF, 0.0)), DataError, "-inf cost entry"),
        (((0.0, -INF), (NAN, 0.0)), DataError, "-inf cost entry"),
        (((NAN, -INF), (1.0, 0.0)), DataError, "NaN cost entry"),
        (((INF, 1.0), (NAN, 0.0)), DataError, "NaN cost entry"),
        (((HALF, NAN), (1, 0)), DataError, "NaN cost entry"),
        (((0, 1), (-INF, 0)), DataError, "-inf cost entry"),
        (((0.0, 1.0), (1.0,)), ShapeError, "cost matrix is not rectangular"),
        (((0, 1), (1, 0, 2)), ShapeError, "cost matrix is not rectangular"),
    ],
)
def test_cost_errors(cost, error, message):
    with pytest.raises(error) as info:
        CostMatrix(cost)
    assert type(info.value) is error and str(info.value) == message
    with pytest.raises(error) as info:
        solve_kantorovich(new_measure((HALF, HALF)), new_measure((HALF, HALF)), cost)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cost, mode",
    [
        (((0, INF), (1, 0)), "rational"),  # ints and +inf read as float64
        (((F(1, 3), INF), (1, 0)), "rational"),
        (((INF, INF), (INF, INF)), "rational"),
        (((True, False), (False, True)), "rational"),
        (((2**63, 1), (1, 0)), "rational"),  # numpy reads these ints as float64
        (((2**64, 1), (1, 0)), "rational"),
        (((HALF, 0.25), (1, 0.0)), "float"),  # Fractions and floats
        (((0, 2.5), (1, 0)), "float"),
        (((0.5, INF), (1.0, 0.0)), "float"),
        (((2**63, 0.5), (1, 0)), "float"),
    ],
)
def test_cost_modes(cost, mode):
    cm = CostMatrix(cost)
    assert cm.mode == mode
    assert cm.cost == cost and [list(map(type, row)) for row in cm.cost] == [
        list(map(type, row)) for row in cost
    ]
    exact = new_measure((HALF, HALF))
    assert solve_kantorovich(exact, exact, cost).mode == mode
    assert solve_kantorovich(new_measure((0.5, 0.5)), exact, cost).mode == "float"
    # an ndarray of the same cells gives the same matrix and mode
    assert CostMatrix(np.array(cost, dtype=object)) == cm
    assert CostMatrix(np.array(cost, dtype=object)).mode == mode


def test_cost_array_is_in_the_modes_arithmetic():
    assert CostMatrix(((0, INF), (1, 0))).array.dtype == object
    assert CostMatrix(((0, 2), (1, 0))).array.dtype == np.int64
    for cost in (((0.5, 1.0), (1.0, 0.0)), ((HALF, 0.25), (1, 0.0))):
        cm = CostMatrix(cost)
        assert cm.array.dtype == np.float64 and not cm.array.flags.writeable
    # an ndarray's cost is built on first use, as Python numbers
    cm = CostMatrix(np.array([[0.0, 1.5], [2.0, INF]]))
    assert "cost" not in vars(cm)
    assert cm.cost == ((0.0, 1.5), (2.0, INF)) and type(cm.cost[0][0]) is float
    assert cm.max_abs_finite() == 2.0


def test_max_abs_finite_reads_exact_cells_at_their_value():
    # an object array's largest |cost| comes from the exact format's ints
    for cost, top in (
        (((F(-7, 3), INF), (2, F(1, 6))), F(7, 3)),
        (((0, INF), (-5, 3)), 5),
        (((F(1, 2), INF), (3, 0)), 3),
        (((INF, INF), (INF, INF)), 0),
    ):
        cm = CostMatrix(cost)
        assert cm.array.dtype == object and cm.max_abs_finite() == top


@pytest.mark.parametrize(
    "weights, error, message",
    [
        ((0.5, NAN, 0.5), DataError, "NaN weight"),
        ((0.5, INF), DomainError, "infinite weight"),
        ((0.5, -INF), DataError, "-inf weight"),
        ((-0.25, 1.25), DomainError, "negative weight -0.25"),
        ((NAN, -0.25, 1.25), DataError, "NaN weight"),
        ((0.5, -0.25, NAN), DomainError, "negative weight -0.25"),
        ((INF, -1.0), DomainError, "infinite weight"),
        ((0.5, 0.5 + 2e-12), NormalizationError, "weights sum to 1.000000000002, not 1"),
        ((0.25, 0.25, 0.25), NormalizationError, "weights sum to 0.75, not 1"),
        # rounds to -0.0 as a float, but is negative
        ((F(-1, 10**400), 0.5, 0.5), DomainError, f"negative weight {F(-1, 10**400)}"),
        # numpy floats are floats, checked at the door as Python floats are
        ((np.float32(NAN), 1.0), DataError, "NaN weight"),
        ((0.5, np.float32(INF)), DomainError, "infinite weight"),
        ((0.5, np.float32(-INF)), DataError, "-inf weight"),
        ((np.float64(NAN), 1.0), DataError, "NaN weight"),
        ((np.float32(-0.25), 1.25), DomainError, "negative weight -0.25"),
    ],
)
def test_float_weight_errors(weights, error, message):
    with pytest.raises(error) as info:
        new_measure(weights)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("weights", [(1.0, NAN), (NAN, 0.5, 0.5), (0.5, NAN, -0.25)])
def test_a_nan_that_min_and_max_pass_over_is_refused(weights):
    # min and max of Python floats may skip a NaN; their sum is NaN, and the
    # weights are then judged one by one, in order
    with pytest.raises(DataError) as info:
        new_measure(weights)
    assert type(info.value) is DataError and str(info.value) == "NaN weight"


@pytest.mark.parametrize(
    "weights, positive, plan",
    [((5e-324, 1.0), True, ((5e-324, 0.0), (0.0, 1.0))), ((-0.0, 1.0), False, ((0.0, 0.0), (0.0, 1.0)))],
)
def test_float_weights_at_the_screens_edges(weights, positive, plan):
    # the least subnormal is positive and solved as it is; -0.0 passes the
    # screen as a zero weight, and the solve runs on the support
    mu = new_measure(weights)
    assert mu.mode == "float" and repr(mu.weights) == repr(weights)
    assert repr(mu.float_weights.tolist()) == repr(list(weights))
    assert mu.float_positive is positive
    sol = solve_kantorovich(mu, mu, ((1.0, 2.0), (3.0, 0.5)))
    assert (sol.plan.matrix, sol.optimal_cost, sol.iterations) == (plan, 0.5, 0)


def test_a_measure_of_python_floats_takes_one_type_scan(monkeypatch):
    from finiteot import measure

    def refuse(*args, **kwargs):
        raise AssertionError("a float measure scanned its weights again")

    monkeypatch.setattr(measure, "python_numbers", refuse)
    monkeypatch.setattr(measure, "scaled_ints", refuse)
    for weights, positive in ((0.25, 0.75), True), ((0.0, 0.5, 0.5), False):
        mu = new_measure(weights)
        assert (mu.mode, mu.float_positive, mu.float_weights.tolist()) == ("float", positive, list(weights))
    with pytest.raises(DomainError, match="negative weight -0.25"):
        new_measure((1.25, -0.25))


def test_a_measure_of_python_numbers_takes_one_type_scan(monkeypatch):
    # exact weights are read on the one scan of their types: no second
    # scan to convert numpy scalars, nor a third to scale them
    from finiteot import measure

    def refuse(*args, **kwargs):
        raise AssertionError("an exact measure scanned its weights again")

    monkeypatch.setattr(measure, "python_numbers", refuse)
    monkeypatch.setattr(measure, "scaled_ints", refuse)
    mu = new_measure((F(1, 6), F(0), F(1, 2), 0, F(1, 3)))
    assert (mu.mode, mu.scaled_weights, mu.scaled_positive) == ("rational", ([1, 0, 3, 0, 2], 6), False)
    ints, scale = new_measure((1, 0)).scaled_weights
    assert (list(ints), scale) == ([1, 0], 1)
    with pytest.raises(DomainError, match="negative weight -1/4"):
        new_measure((F(5, 4), F(-1, 4)))


@pytest.mark.parametrize("kind", [float, np.float32, np.float64])
@pytest.mark.parametrize(
    "read, value, error, message",
    [
        ("test function", NAN, DataError, "NaN test-function value"),
        ("test function", -INF, DataError, "-inf test-function value"),
        ("test function", INF, DomainError, "test functions must be finite"),
        ("extended function", NAN, DataError, "NaN function value"),
        ("extended function", -INF, DataError, "-inf function value"),
        ("moreau-yosida", -INF, DataError, "-inf function value"),
    ],
)
def test_function_value_errors(kind, read, value, error, message):
    """A NaN or infinite value of any float kind is refused as a Python float is."""
    values = (kind(value), 1.0)
    space = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
    reads = {
        "test function": TestFunction,
        "extended function": ExtendedFunction,
        "moreau-yosida": lambda values: moreau_yosida(values, space, 1),
    }
    with pytest.raises(error) as info:
        reads[read](values)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("weights", [(0.1, 0.2, 0.7), (-0.0, 1.0), (0, 1.0), (HALF, 0.5)])
def test_float_weights_within_tolerance(weights):
    mu = new_measure(weights)
    assert mu.mode == "float"
    assert mu.float_weights.tolist() == [float(w) for w in weights]
    assert not mu.float_weights.flags.writeable
