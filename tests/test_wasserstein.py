import random
from fractions import Fraction as F

import pytest

from finiteot.coupling import TransportPlan, is_coupling, product_coupling
from finiteot.generators import (
    random_coupling,
    random_point_cloud_space,
    random_rational_measure,
    random_rational_metric_space,
    random_vertex_coupling,
)
from finiteot.measure import DiscreteMeasure, dirac, new_measure
from finiteot.numerics import GlueError, ParameterError, infer_mode
from finiteot.space import FiniteMetricSpace
from finiteot.wasserstein import (
    GluedPlan,
    WassersteinParams,
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
            mu2 = [sum(pi12[i][j] for i in range(n1)) for j in range(n2)]
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
            g = glue(TransportPlan(pi12), TransportPlan(pi23))
            assert [[list(r) for r in sl] for sl in g.tensor] == want
            flat = [x for sl in g.tensor for r in sl for x in r]
            assert infer_mode(flat) == infer_mode(x for sl in want for r in sl for x in r)
            pi13 = glued_marginal_13(g)
            assert [list(r) for r in pi13.matrix] == want13
            assert pi13.mode == TransportPlan(want13).mode == ("rational" if exact else "float")


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

    def test_needs_two(self):
        from finiteot.numerics import DomainError

        with pytest.raises(DomainError):
            metric_axiom_suite([UNIFORM2], TWO_POINT)
