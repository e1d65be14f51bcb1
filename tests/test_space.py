import math
import random
from fractions import Fraction as F
from itertools import chain

import numpy as np
import pytest

from finiteot.measure import new_measure
from finiteot.numerics import INF, DataError, ParameterError, ShapeError, infer_mode, is_inf
from finiteot.space import CostMatrix, FiniteMetricSpace, from_point_cloud, validate_metric
from finiteot.wasserstein import metric_axiom_suite


class TestValidateMetric:
    def test_two_point_metric_is_clean(self):
        assert validate_metric([[0, 1], [1, 0]], tol=0) == []

    def test_asymmetric_matrix_reports_symmetry(self):
        report = validate_metric([[0, 1], [2, 0]], tol=0)
        assert any(axiom == "symmetry" and idx == (0, 1) for axiom, idx, _ in report)

    def test_triangle_violation_with_witness(self):
        report = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], tol=0)
        triangles = [r for r in report if r[0] == "triangle"]
        assert triangles
        assert (0, 1, 2) in [r[1] for r in triangles]

    def test_nonzero_diagonal(self):
        report = validate_metric([[1, 1], [1, 0]], tol=0)
        assert any(axiom == "identity" for axiom, _, _ in report)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            validate_metric([[0, 1, 2], [1, 0, 2]])

    def test_nan_raises(self):
        with pytest.raises(DataError):
            validate_metric([[0.0, float("nan")], [1.0, 0.0]])


class TestDefaultTolerance:
    """A tol left as None is default_tol of the mode: 1e-9 for float
    distances or costs, 0 for exact ones."""

    E = F(1, 10**12)

    def test_validate_metric(self):
        d = [[0, 1, 2 + self.E], [1, 0, 1], [2 + self.E, 1, 0]]
        floats = [[float(x) for x in row] for row in d]
        assert validate_metric(floats) == []
        assert [r[:2] for r in validate_metric(d)] == [("triangle", (0, 1, 2)), ("triangle", (2, 1, 0))]
        assert len(validate_metric(floats, tol=0)) == 2

    def test_space(self):
        d = [[0.0, 1.0, 2.0 + 1e-12], [1.0, 0.0, 1.0], [2.0 + 1e-12, 1.0, 0.0]]
        assert FiniteMetricSpace(("a", "b", "c"), d).tol is None
        with pytest.raises(DataError, match="triangle"):
            FiniteMetricSpace(("a", "b", "c"), d, tol=0)

    def test_lower_bound(self):
        exact = ((1 - self.E, 1), (1, 1))
        floats = tuple(tuple(map(float, row)) for row in exact)
        bound = ((1, 0), (0, 0))
        assert CostMatrix(floats, lower_bound=bound).lower_bound == bound
        # the bound's mode counts: float bound numbers make the tol 1e-9
        assert CostMatrix(exact, lower_bound=((1.0, 0), (0, 0))).lower_bound
        with pytest.raises(DataError, match="below lower bound"):
            CostMatrix(exact, lower_bound=bound)
        with pytest.raises(DataError, match="below lower bound"):
            CostMatrix(floats, lower_bound=bound, tol=0)

    def test_point_cloud_distances_are_scanned_once(self, monkeypatch):
        from finiteot import numerics

        mode, sizes = numerics._mode, []
        monkeypatch.setattr(numerics, "_mode", lambda values, kinds: sizes.append(len(values)) or mode(values, kinds))
        space = from_point_cloud([[0.0, 0.5 * k] for k in range(12)])
        assert space.tol is None and space._matrix.mode == "float"
        assert sizes.count(144) == 0  # the diagonal is 0.0: the rows pack as doubles


class TestFromPointCloud:
    def test_unit_interval_endpoints(self):
        s = from_point_cloud([[0], [1]], norm_order=2)
        assert s.dist[0][1] == pytest.approx(1.0)

    def test_3_4_5_triangle(self):
        s = from_point_cloud([[0, 0], [3, 4]], norm_order=2)
        assert s.dist[0][1] == pytest.approx(5.0)

    def test_l1_line(self):
        s = from_point_cloud([[0], [1], [3]], norm_order=1)
        assert s.dist == ((0, 1, 3), (1, 0, 2), (3, 2, 0))

    def test_mismatched_dims(self):
        with pytest.raises(ShapeError):
            from_point_cloud([[0, 0], [1]])

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_a_float_cloud_packs_as_doubles(self, p, monkeypatch):
        # the diagonal is d(x, x) = 0.0, so the rows take the float64 pack
        # and no type scan; the report is the one of the int-0 diagonal,
        # with roundoff violations at tol 0 on collinear clouds
        from finiteot import numerics

        rng = random.Random(5)
        clouds = [[[rng.random() * 1e9, 0.0] for _ in range(8)] for _ in range(6)]
        clouds += [[[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(9)] for _ in range(4)]
        scan = numerics._scanned
        reports = []
        for points in clouds:
            monkeypatch.setattr(numerics, "_scanned", lambda *args: pytest.fail("type scan"))
            dist = from_point_cloud(points, norm_order=p).dist
            monkeypatch.setattr(numerics, "_scanned", scan)
            assert all(type(x) is float for row in dist for x in row)
            old = tuple(tuple(0 if i == j else x for j, x in enumerate(r)) for i, r in enumerate(dist))
            for tol in (None, 0):
                reports.append(validate_metric(dist, tol))
                assert reports[-1] == validate_metric(old, tol)
        assert any(reports)

    def test_an_integer_l1_cloud_keeps_integer_distances(self):
        s = from_point_cloud([[0, 2], [1, -3], [4, 4]], norm_order=1)
        assert typed(s.dist) == typed(((0, 6, 6), (6, 0, 10), (6, 10, 0)))
        assert s._matrix.mode == "rational" and s._matrix.array.dtype == np.int64

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_lp_norms_are_metrics(self, p):
        pts = [[0.0, 0.0], [1.5, -2.0], [3.0, 0.25], [-1.0, 4.0], [2.0, 2.0]]
        s = from_point_cloud(pts, norm_order=p)
        assert validate_metric(s.dist, tol=1e-9) == []


class TestPowerCost:
    def test_p1_is_distance(self):
        s = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        assert s.power_cost(1).cost == s.dist

    def test_p2_two_point(self):
        s = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        assert s.power_cost(2).cost == ((0, 1), (1, 0))

    def test_p2_three_point_line(self):
        h = F(1, 2)
        s = FiniteMetricSpace(
            ("0", "1/2", "1"), ((0, h, 1), (h, 0, h), (1, h, 0))
        )
        assert s.power_cost(2).cost == (
            (0, F(1, 4), 1),
            (F(1, 4), 0, F(1, 4)),
            (1, F(1, 4), 0),
        )

    def test_symmetric_zero_diagonal(self):
        s = from_point_cloud([[0.0], [0.7], [2.2]], norm_order=2)
        c = s.power_cost(2).cost
        n = len(c)
        for i in range(n):
            assert c[i][i] == 0
            for j in range(n):
                assert c[i][j] == c[j][i]

    def test_rejects_p_below_one(self):
        s = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        with pytest.raises(ParameterError):
            s.power_cost(0.5)

    def test_rejects_p_inf(self):
        s = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        with pytest.raises(ParameterError):
            s.power_cost(INF)

    def test_built_once_per_p_and_type(self):
        s = FiniteMetricSpace(("a", "b", "c"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
        assert s.power_cost(2) is s.power_cost(2)
        # 2 == 2.0 and they hash alike, but 2.0 stays a float power
        assert infer_mode(chain(*s.power_cost(2).cost)) == "rational"
        assert infer_mode(chain(*s.power_cost(2.0).cost)) == "float"
        assert s.power_cost(2.0).cost == ((0.0, 1.0, 4.0), (1.0, 0.0, 1.0), (4.0, 1.0, 0.0))
        assert infer_mode(chain(*s.power_cost(F(2)).cost)) == "rational"
        # the cache is not part of the space's value
        t = FiniteMetricSpace(s.labels, s.dist)
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)

    def test_lower_bound_pair_is_zero(self):
        s = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        a1, a2 = s.power_cost(2).lower_bound
        assert set(a1) == {0} and set(a2) == {0}


class TestCostMatrix:
    def test_rejects_negative_inf(self):
        with pytest.raises(DataError):
            CostMatrix(((0.0, -INF),))

    def test_rejects_entry_below_lower_bound(self):
        with pytest.raises(DataError):
            CostMatrix(((0, 1), (1, 0)), lower_bound=((1, 1), (0, 0)))

    def test_inf_entries_satisfy_bound_vacuously(self):
        cm = CostMatrix(((INF, 5), (5, INF)), lower_bound=((2, 2), (3, 3)))
        assert cm.cost == ((INF, 5), (5, INF))


class TestMinPositiveDistance:
    def test_first_least_positive_cell(self):
        # 1 and 1.0 tie: the first in row-major order is returned, as min() did
        s = FiniteMetricSpace(("a", "b", "c"), ((0, 2, 1.0), (2, 0, 1), (1.0, 1, 0)))
        got = s.min_positive_distance()
        assert got == 1 and type(got) is float

    def test_one_point_space_is_infinite(self):
        # the infimum of the empty set; it raised ValueError from min()
        assert s1().min_positive_distance() == INF

    def test_axiom_suite_on_one_point(self):
        mus = [new_measure((1.0,)), new_measure((1.0,))]
        assert metric_axiom_suite(mus, s1())["passed"]


def s1():
    return FiniteMetricSpace(("a",), ((0.0,),))


# The cell-by-cell scans that the space's array replaced, kept as the
# references of the battery below.  They run on the cells as the space
# holds them, in Python's own arithmetic.


def reference_validate(dist, tol=0):
    n = len(dist)
    for row in dist:
        if len(row) != n:
            raise ShapeError(f"distance matrix is not square: {len(row)} != {n}")
        for x in row:
            if isinstance(x, float) and math.isnan(x):
                raise DataError("NaN entry in distance matrix")
            if is_inf(x):
                raise DataError("infinite entry in distance matrix")
    report = []
    for i in range(n):
        if abs(dist[i][i]) > tol:
            report.append(("identity", (i, i), abs(dist[i][i])))
        for j in range(n):
            if i != j:
                if dist[i][j] < -tol:
                    report.append(("nonnegativity", (i, j), dist[i][j]))
                elif abs(dist[i][j]) <= tol:
                    report.append(("identity", (i, j), dist[i][j]))
            if j > i and abs(dist[i][j] - dist[j][i]) > tol:
                report.append(("symmetry", (i, j), abs(dist[i][j] - dist[j][i])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gap = dist[i][k] - dist[i][j] - dist[j][k]
                if gap > tol:
                    report.append(("triangle", (i, j, k), gap))
    return report


def reference_min_positive(dist):
    n = len(dist)
    return min((dist[i][j] for i in range(n) for j in range(n) if dist[i][j] > 0), default=INF)


def typed(x):
    """x with every number paired with its type, to compare repr and type."""
    if isinstance(x, (tuple, list)):
        return type(x), tuple(map(typed, x))
    if isinstance(x, dict):
        return tuple((key, typed(value)) for key, value in x.items())
    return type(x), repr(x)


def outcome(check, *args):
    """typed(check(*args)), or the type and message of the error it raises."""
    try:
        return typed(check(*args))
    except (DataError, ShapeError) as exc:
        return type(exc), str(exc)


def battery_distances(rng, trial):
    """(cells, given) pairs: distance matrices of int, Fraction, float and
    mixed cells, metrics and non-metrics (a negative, asymmetric, zero,
    triangle-breaking or diagonal cell), given as tuples and as int64,
    float64 and object arrays; cells holds them as Python numbers."""
    n = rng.randint(1, 7)
    kind = ("int", "Fraction", "float", "mixed")[trial % 4]
    points = sorted(rng.sample(range(1, 60), n))

    def cell(x):
        if kind == "Fraction":
            return F(x, rng.choice((1, 2, 3, 6)))
        if kind == "float":
            return x / rng.choice((1, 2, 3, 7))
        return rng.choice((x, F(x, 2), x / 3)) if kind == "mixed" else x

    D = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            D[i][j] = D[j][i] = cell(abs(points[i] - points[j]))
    if n > 1:
        i, j = rng.sample(range(n), 2)
        spoil = trial // 4 % 6
        if spoil == 1:
            D[i][j] = D[j][i] = -D[i][j]
        elif spoil == 2:
            D[i][j] += 1
        elif spoil == 3:
            D[i][j] = D[j][i] = 0 * D[i][j]
        elif spoil == 4:
            D[i][j] = D[j][i] = 5 * D[i][j]
        elif spoil == 5:
            D[i][i] = 1
    if kind == "int" and trial % 8 == 0:  # the int64 sums of these overflow
        top = max(abs(x) for row in D for x in row) or 1
        D = [[x * (2**62 // top) for x in row] for row in D]
    cases = [(tuple(map(tuple, D)), tuple(map(tuple, D)))]
    dtypes = [object] + {"int": [np.int64, np.float64], "float": [np.float64]}.get(kind, [])
    for dtype in dtypes:
        A = np.array(D, dtype=dtype)
        cases.append((CostMatrix(A).cost, A))  # the cells a CostMatrix reads
    return cases


class TestOneReadOfTheDistances:
    """validate_metric, the space's acceptance and min_positive_distance
    against the cell-by-cell scans, in value, type and order."""

    def test_every_check_matches_its_reference(self):
        rng = random.Random(1818)
        for trial in range(96):
            for cells, given in battery_distances(rng, trial):
                labels = tuple(map(str, range(len(cells))))
                for tol in (0, 0.5, 1e-9, F(1, 3)):
                    assert outcome(validate_metric, given, tol) == outcome(
                        reference_validate, cells, tol
                    )
                    report = reference_validate(cells, tol)
                    if report:
                        (axiom, idx, mag), total = report[0], len(report)
                        message = (f"not a metric: {axiom} violated at {idx} (magnitude {mag}); "
                                   f"{total} violation(s) total")
                        with pytest.raises(DataError) as exc:
                            FiniteMetricSpace(labels, given, tol)
                        assert str(exc.value) == message
                        continue
                    space = FiniteMetricSpace(labels, given, tol)
                    assert typed(space.dist) == typed(cells)
                    assert typed(space.min_positive_distance()) == typed(
                        reference_min_positive(cells)
                    )

    def test_malformed_matrices(self):
        for dist in ([[0, 1, 2], [1, 0, 2]], [[0.0, float("nan")], [1.0, 0.0]],
                     [[0, INF], [INF, 0]], [[0.0, -INF], [1.0, 0.0]]):
            assert outcome(validate_metric, dist) == outcome(reference_validate, dist)

    def test_the_space_reads_its_distances_once(self):
        # dist is the matrix's cost, and power_cost(1) is that matrix
        A = np.array([[0, 3], [3, 0]])
        s = FiniteMetricSpace(("a", "b"), A)
        assert typed(s.dist) == typed(((0, 3), (3, 0)))
        assert s.power_cost(1) is s.power_cost(1.0) and s.power_cost(1).cost is s.dist
        assert s.power_cost(1).lower_bound == ((0, 0), (0, 0))

    def test_numpy_scalar_distances_are_read_as_python_numbers(self):
        f32 = np.float32
        given = ((f32(0), f32(-0.1)), (f32(0.2), f32(0)))
        assert typed(validate_metric(given)) == typed(
            [("nonnegativity", (0, 1), -0.10000000149011612), ("symmetry", (0, 1), 0.30000000447034836)]
        )
        s = FiniteMetricSpace(("a", "b"), ((np.int64(0), np.int64(3)), (np.int64(3), np.int64(0))))
        assert typed(s.dist) == typed(((0, 3), (3, 0)))
        assert s.power_cost(1).cost is s.dist

    def test_negative_cell_within_tol_refuses_p1_only(self):
        # accepted by its tolerance, the cell is below the zero lower bound
        s = FiniteMetricSpace(("a", "b"), ((-F(1, 10), 1), (1, 0)), tol=F(1, 5))
        with pytest.raises(DataError, match="below lower bound"):
            s.power_cost(1)
        assert s.power_cost(2).cost == ((F(1, 100), 1), (1, 0))
