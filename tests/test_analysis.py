import math
import random
from fractions import Fraction as F
from itertools import chain

import numpy as np
import pytest
from conftest import count_python_calls
from test_space import battery_distances, reference_min_positive, typed

from finiteot.analysis import (
    ExtendedFunction,
    MeasureSequence,
    check_moreau_yosida_properties,
    exact_recovery_threshold,
    liminf_cost_check,
    moreau_yosida,
    narrow_limit_check,
)
from finiteot.coupling import TransportPlan
from finiteot.generators import random_rational_metric_space
from finiteot.measure import dirac, indicator, integrate, new_measure
from finiteot.numerics import INF, DataError, DomainError, ParameterError, ShapeError, is_inf
from finiteot.space import CostMatrix, FiniteMetricSpace, from_point_cloud, validate_metric

HALF = F(1, 2)
TWO_POINT = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
LINE3 = FiniteMetricSpace(
    ("0", "1/2", "1"),
    ((0, HALF, 1), (HALF, 0, HALF), (1, HALF, 0)),
)


class TestMoreauYosida:
    def test_indicator_complement_scales_linearly(self):
        # f = [0, +inf] gives f_n = [0, n]: the only finite anchor is z = 0
        f = ExtendedFunction((0, INF))
        for n in (1, 2, 5):
            assert moreau_yosida(f, TWO_POINT, n) == (0, n)

    def test_finite_function_recovered_past_threshold(self):
        f = ExtendedFunction((0, 3))
        thr = exact_recovery_threshold(f, TWO_POINT)
        assert thr == 3
        assert moreau_yosida(f, TWO_POINT, 3) == (0, 3)
        assert moreau_yosida(f, TWO_POINT, 2) == (0, 2)

    def test_constant_function_fixed(self):
        f = ExtendedFunction((4, 4, 4))
        assert moreau_yosida(f, LINE3, 1) == (4, 4, 4)
        assert exact_recovery_threshold(f, LINE3) == 1

    def test_envelope_on_line(self):
        f = ExtendedFunction((0, INF, 1))
        # from x=1 the best anchors are z=0 at n/2 and z=2 at 1 + n/2
        assert moreau_yosida(f, LINE3, 2) == (0, 1, 1)
        assert moreau_yosida(f, LINE3, 4) == (0, 2, 1)

    def test_numpy_distances_give_envelopes_in_python_arithmetic(self):
        # float32 distances are read as the Python floats they equal, so
        # f(z) + n d(x, z) is not rounded to float32
        d = np.float32(0.1)
        space = FiniteMetricSpace(("a", "b"), ((np.float32(0), d), (d, np.float32(0))))
        assert typed(moreau_yosida((0.3, 5.0), space, 1)) == typed((0.3, 0.4000000014901161))

    def test_rejects_nonpositive_index(self):
        with pytest.raises(DomainError):
            moreau_yosida(ExtendedFunction((0, 1)), TWO_POINT, 0)

    @pytest.mark.parametrize("n", [float("nan"), INF, -INF, -F(1, 2)], ids=repr)
    def test_rejects_an_index_that_is_not_finite_and_positive(self, n):
        # a NaN index gave (nan, nan), and +inf gave (nan, inf)
        with pytest.raises(DomainError, match="finite positive number"):
            moreau_yosida((0, 5), TWO_POINT, n)

    @pytest.mark.parametrize("N", [0, -1, 2.0, 1.5, F(3), float("nan"), "3"], ids=repr)
    def test_the_ladder_rejects_an_N_that_is_not_an_integer_from_1(self, N):
        # N = 0 reported passed: True after checking nothing
        with pytest.raises(ParameterError, match="N must be an integer >= 1"):
            check_moreau_yosida_properties((0, 5), TWO_POINT, N)

    def test_rejects_all_infinite(self):
        with pytest.raises(DomainError):
            ExtendedFunction((INF, INF))

    def test_property_report_simple(self):
        report = check_moreau_yosida_properties(
            ExtendedFunction((0, INF)), TWO_POINT, N=5, tol=0
        )
        assert report["passed"], report["failures"]

    def test_property_report_random(self):
        rng = random.Random(83)
        for _ in range(30):
            n = rng.randint(2, 5)
            space = random_rational_metric_space(rng, n)
            vals = tuple(
                INF if rng.random() < 0.25 else F(rng.randint(0, 10))
                for _ in range(n)
            )
            if all(is_inf(v) for v in vals):
                continue
            report = check_moreau_yosida_properties(
                ExtendedFunction(vals), space, N=6, tol=0
            )
            assert report["passed"], (vals, report["failures"])

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_values_on_float_space(self, seed):
        # the tolerance follows the space's float distances, not f's Fractions
        rng = random.Random(seed)
        pts = [[rng.random() * 10, rng.random() * 10] for _ in range(6)]
        f = [F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(6)]
        report = check_moreau_yosida_properties(f, from_point_cloud(pts), 12)
        assert report["passed"], (f, report["failures"])


class TestNarrowLimit:
    def test_constant_sequence(self):
        mu = new_measure([HALF, HALF])
        assert narrow_limit_check([mu] * 4, mu, tol=0)

    def test_converging_sequence(self):
        seq = [
            new_measure([F(1, 2) + F(1, 2 * k), F(1, 2) - F(1, 2 * k)])
            for k in range(2, 10)
        ]
        assert narrow_limit_check(seq, new_measure([HALF, HALF]), tol=F(1, 8))

    def test_float_sequence_fraction_limit(self):
        # float weights against an exact limit: the deviations are floats,
        # computed the same way by the weight and the indicator comparison
        seq = [new_measure([1 / 3 + 2.0**-k, 1 / 3 - 2.0**-k, 1 / 3]) for k in range(3, 12)]
        limit = new_measure([F(1, 3)] * 3)
        assert narrow_limit_check(seq, limit, tol=2.0**-10)
        assert not narrow_limit_check(seq, limit, tol=2.0**-12)

    def test_wrong_limit_rejected(self):
        mu = new_measure([HALF, HALF])
        assert not narrow_limit_check([mu] * 4, dirac(0, 2), tol=F(1, 100))

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            narrow_limit_check([dirac(0, 2)], dirac(0, 3), tol=0)

    def test_weights_are_indicator_integrals(self):
        # narrow_limit_check compares weights directly: integrating a point's
        # indicator only adds zeros to its weight, so the two agree exactly
        rng = random.Random(31)
        for trial in range(200):
            n = rng.randint(1, 12)
            raw = [rng.randint(0 if k else 1, 1000) for k in range(n)]
            total = sum(raw)
            weights = [F(x, total) for x in raw] if trial % 2 else [x / total for x in raw]
            mu = new_measure(weights)
            for i in range(n):
                assert integrate(mu, indicator(i, n)) == mu.weights[i], (weights, i)


class TestLiminf:
    def test_constant_sequence_equality(self):
        plan = TransportPlan(((HALF, 0), (0, HALF)))
        cost = ((0, 1), (1, 0))
        out = liminf_cost_check([plan] * 8, plan, cost, tol=0)
        assert out["holds"]
        assert out["liminf_value"] == out["limit_value"] == 0
        assert out["tail_length"] == 2

    def test_converging_sequence_finite_cost(self):
        # mass 1/k sits on the antidiagonal and drains to the diagonal
        plans = [
            (
                (HALF - F(1, 2 * k), F(1, 2 * k)),
                (F(1, 2 * k), HALF - F(1, 2 * k)),
            )
            for k in range(1, 13)
        ]
        limit = ((HALF, 0), (0, HALF))
        out = liminf_cost_check(plans, limit, ((0, 1), (1, 0)), tol=0)
        assert out["holds"]
        assert out["limit_value"] == 0 and out["liminf_value"] == F(1, 12)

    def test_strict_inequality_with_infinite_cost(self):
        # every term carries mass on the +inf cell, the limit does not:
        # liminf is +inf while the limit cost is finite, strictly lsc
        plans = [
            (
                (HALF - F(1, 2 * k), F(1, 2 * k)),
                (F(1, 2 * k), HALF - F(1, 2 * k)),
            )
            for k in range(1, 13)
        ]
        limit = ((HALF, 0), (0, HALF))
        out = liminf_cost_check(plans, limit, ((0, INF), (1, 0)), tol=0)
        assert out["holds"]
        assert is_inf(out["liminf_value"])
        assert out["limit_value"] == 0

    def test_violation_detected(self):
        # an infinite-cost limit over finite-cost terms breaks the inequality
        plans = [((HALF, 0), (0, HALF))] * 8
        limit = ((0, HALF), (HALF, 0))
        out = liminf_cost_check(plans, limit, ((0, INF), (1, 0)), tol=0)
        assert not out["holds"]

    def test_nonconverging_sequence_rejected(self):
        a = ((HALF, 0), (0, HALF))
        b = ((0, HALF), (HALF, 0))
        with pytest.raises(DomainError):
            liminf_cost_check([a, b] * 8, a, ((0, 1), (1, 0)), tol=0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            liminf_cost_check([], ((1,),), ((0,),))


class TestMeasureSequence:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(DomainError):
            MeasureSequence((dirac(0, 2), dirac(0, 3)))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            MeasureSequence(())


class TestInt64Distances:
    """A space given as an int64 array holds Python ints, so its envelopes
    do not wrap around (they were np.int64(-2**63), with a RuntimeWarning,
    and the ladder failed where the same tuples passed)."""

    D = np.array([[0, 2**62, 2**62], [2**62, 0, 2**62], [2**62, 2**62, 0]])

    def test_envelope_does_not_overflow(self):
        S = FiniteMetricSpace(("a", "b", "c"), self.D)
        assert typed(moreau_yosida((0, 0, 0), S, 2)) == typed((0, 0, 0))

    def test_ladder_as_from_tuples(self):
        S = FiniteMetricSpace(("a", "b", "c"), self.D)
        T = FiniteMetricSpace(("a", "b", "c"), tuple(map(tuple, self.D.tolist())))
        assert check_moreau_yosida_properties((0, 10, 10), S, 4)["passed"]
        assert check_moreau_yosida_properties((0, 10, 10), S, 4) == (
            check_moreau_yosida_properties((0, 10, 10), T, 4)
        )


# The cell-by-cell envelope and ladder that the min-plus product on the
# space's array replaced, kept as the references of the battery below.


def reference_moreau_yosida(values, dist, n):
    out = []
    for x in range(len(values)):
        best = None
        for z in range(len(values)):
            if is_inf(values[z]):
                continue
            cand = values[z] + n * dist[x][z]
            if best is None or cand < best:
                best = cand
        out.append(best)
    return tuple(out)


def reference_ladder(values, dist, N, tol):
    if tol is None:  # in float mode scaled by max |finite f| + N max |d|
        exact = all(isinstance(v, (int, F)) or is_inf(v) for v in chain(values, *dist))
        top = max(abs(v) for v in values if not is_inf(v)) + N * max(abs(d) for d in chain(*dist))
        tol = 0 if exact else 1e-9 * (1 + float(top))
    tables = {n: reference_moreau_yosida(values, dist, n) for n in range(1, N + 1)}
    failures = {"monotone": [], "dominated": [], "lipschitz": [], "convergence": []}
    size = len(values)
    for n in range(1, N + 1):
        tab = tables[n]
        if n < N:
            for x in range(size):
                if tab[x] > tables[n + 1][x] + tol:
                    failures["monotone"].append({"n": n, "x": x})
        for x in range(size):
            if not is_inf(values[x]) and tab[x] > values[x] + tol:
                failures["dominated"].append({"n": n, "x": x})
        for x in range(size):
            for y in range(size):
                if abs(tab[x] - tab[y]) > n * dist[x][y] + tol:
                    failures["lipschitz"].append({"n": n, "x": x, "y": y})
    finite = [v for v in values if not is_inf(v)]
    spread = max(finite) - min(finite)
    threshold = 1 if spread == 0 else spread / reference_min_positive(dist)
    n_star = max(1, math.ceil(float(threshold)))
    if n_star <= N:
        for x in range(size):
            if not is_inf(values[x]) and abs(tables[n_star][x] - values[x]) > tol:
                failures["convergence"].append({"n": n_star, "x": x})
    for x in range(size):
        if is_inf(values[x]) and N >= 2 and not tables[N][x] > tables[1][x] - tol:
            if any(dist[x][z] > 0 and not is_inf(values[z]) for z in range(size)):
                failures["convergence"].append({"x": x, "divergence": False})
    passed = all(not v for v in failures.values())
    return {"N": N, "threshold": threshold, "passed": passed, "failures": failures}


class TestEnvelopesOnTheArray:
    """moreau_yosida, exact_recovery_threshold and the ladder check against
    the cell-by-cell loops, in value, type and order, on the metrics of the
    distance battery: f of int, Fraction, float and mixed values with +inf,
    n exact and float, N from 1 to 12, and tol None, 0, float and exact."""

    @staticmethod
    def values(rng, n, kind):
        def value():
            x = rng.randint(0, 30)
            if kind == "Fraction":
                return F(x, rng.randint(1, 5))
            if kind == "float":
                return x / rng.choice((1, 3, 7))
            return rng.choice((x, F(x, 3), x / 7)) if kind == "mixed" else x

        vals = [INF if rng.random() < 0.25 else value() for _ in range(n)]
        return tuple(vals) if not all(map(is_inf, vals)) else (value(), *vals[1:])

    def test_every_envelope_matches_its_reference(self):
        rng = random.Random(1820)
        for trial in range(96):
            for cells, given in battery_distances(rng, trial):
                if validate_metric(cells):
                    continue
                space = FiniteMetricSpace(tuple(map(str, range(len(cells)))), given)
                for kind in ("int", "Fraction", "float", "mixed"):
                    f = self.values(rng, len(cells), kind)
                    for n in (1, 2, 3, F(5, 2), 0.5):
                        assert typed(moreau_yosida(f, space, n)) == typed(
                            reference_moreau_yosida(f, cells, n)
                        )
                    want = reference_ladder(f, cells, 1, 0)["threshold"]
                    assert typed(exact_recovery_threshold(f, space)) == typed(want)
                    N = rng.randint(1, 12)
                    for tol in (None, 0, 0.5, F(1, 7)):
                        assert typed(check_moreau_yosida_properties(f, space, N, tol)) == typed(
                            reference_ladder(f, cells, N, tol)
                        )


def line_space(n, exact):
    """n points of a line drawn from 0..99,999 (over 1..9 when exact), with
    f of n values from 0..100 (over 1..5 when exact)."""
    rng = random.Random(n)
    points = sorted(rng.sample(range(100_000), n))
    if exact:
        points = sorted(F(p, rng.randint(1, 9)) for p in points)
    dist = tuple(tuple(abs(a - b) for b in points) for a in points)
    f = tuple(F(rng.randint(0, 100), rng.randint(1, 5)) if exact else rng.randint(0, 100)
              for _ in range(n))
    return tuple(map(str, range(n))), dist, f


@pytest.mark.parametrize("n, exact", [(100, False), (60, True)])
def test_distance_checks_make_no_python_call_per_cell(monkeypatch, n, exact):
    """Building a space, min_positive_distance, one envelope and the N=12
    ladder decide on the distance array.  On the 100-point integer space
    each makes fewer Python calls than one per ten cells (the cell loops
    made 10,003 to 131,650).  On the 60-point Fraction space, reading the
    Fractions once takes about one call per cell, and each envelope's
    values (computed from the given Fractions) about 16 per point: the
    bounds are 2 calls per cell to build, one per ten cells for the least
    distance, and 30 per point and envelope (the loops made 32,098 to
    3,725,527)."""
    labels, dist, f = line_space(n, exact)
    (build, space), = count_python_calls(monkeypatch, lambda: FiniteMetricSpace(labels, dist))
    counts = count_python_calls(
        monkeypatch,
        space.min_positive_distance,
        lambda: moreau_yosida(f, space, 3),
        lambda: check_moreau_yosida_properties(f, space, 12),
    )
    (least, _), (envelope, _), (ladder, report) = counts
    assert report["passed"]
    if exact:
        bounds = 2 * n * n, n * n // 10, 30 * n, 30 * n * 12
    else:
        bounds = (n * n // 10,) * 4
    for calls, bound in zip((build, least, envelope, ladder), bounds):
        assert calls < bound, f"{calls} Python calls, bound {bound}"


def test_extended_function_makes_no_python_call_per_value(monkeypatch):
    """ExtendedFunction decides its finite mask and its mode from the types
    of its values: 10,000 values take fewer than 100 Python calls (a
    check_extended and an is_inf call per value took at least 20,000)."""
    rng = random.Random(10_000)
    for kinds, mode in (((0, 7, INF), "rational"), ((1, 2.5, F(1, 3), INF), "float")):
        values = tuple(rng.choice(kinds) for _ in range(10_000))
        [(calls, fn)] = count_python_calls(monkeypatch, lambda: ExtendedFunction(values))
        assert calls < 100, f"{calls} Python calls for 10,000 values"
        assert fn.mode == mode
        assert fn._finite.tolist() == [not is_inf(v) for v in values]


def test_first_bad_function_value_is_refused():
    """NaN and -inf are refused at the first such value, as the check of
    one value at a time refused them."""
    nan = float("nan")
    for values, error in [((0, INF, -INF, nan), "-inf"), ((F(1, 2), nan, -INF), "NaN")]:
        with pytest.raises(DataError, match=f"^{error} function value$"):
            ExtendedFunction(values)


def test_liminf_reads_its_cost_once(monkeypatch):
    """40 plans against a raw tuple cost build one CostMatrix, which prices
    every plan on its cached scaled costs."""
    built = []
    post_init = CostMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CostMatrix, "__post_init__", counted)
    plans = [
        ((HALF - F(1, 2 * k), F(1, 2 * k)), (F(1, 2 * k), HALF - F(1, 2 * k)))
        for k in range(1, 41)
    ]
    out = liminf_cost_check(plans, ((HALF, 0), (0, HALF)), ((0, F(1, 3)), (1, 0)))
    assert out["holds"] and out["liminf_value"] == F(4, 3 * 80)
    assert len(built) == 1


@pytest.mark.parametrize(
    "cost, error",
    [
        (((-INF, 0.0), (0.0, 0.0)), "-inf cost entry"),  # liminf_value was +inf
        (((float("nan"), 0.0), (0.0, 0.0)), "NaN cost entry"),  # was nan
        (((0.0, 1.0), (1.0,)), "not rectangular"),  # was numpy's ValueError
    ],
)
def test_liminf_refuses_bad_costs(cost, error):
    kind = ShapeError if error == "not rectangular" else DataError
    for plan in (((1, 0), (0, 0)), ((1.0, 0.0), (0.0, 0.0))):
        with pytest.raises(kind, match=error):
            liminf_cost_check([plan] * 4, plan, cost)
