from fractions import Fraction as F
from itertools import chain

import pytest

from finiteot.numerics import INF, DataError, ParameterError, ShapeError, infer_mode
from finiteot.space import CostMatrix, FiniteMetricSpace, from_point_cloud, validate_metric


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
