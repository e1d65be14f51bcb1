import random
from fractions import Fraction as F

import pytest

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
from finiteot.measure import dirac, new_measure
from finiteot.numerics import INF, DomainError, is_inf
from finiteot.space import FiniteMetricSpace, from_point_cloud

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

    def test_rejects_nonpositive_index(self):
        with pytest.raises(DomainError):
            moreau_yosida(ExtendedFunction((0, 1)), TWO_POINT, 0)

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
