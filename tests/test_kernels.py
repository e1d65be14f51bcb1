"""The compiled kernel and its Python twin, simplex.transportation_simplex.

The compiled kernel's solve_dense(a, b, C, tol) returns (flow_matrix,
iterations); the twin, which is the fallback when the kernel cannot load,
must return the same pivot count and the same plan, bit for bit, also on
+inf cells and on problems that they leave without a finite-cost plan.  The
compiled kernel is built by its loader with the system C compiler, so the
cross-checks are skipped only where no C compiler is found; a failed build
with a compiler present fails them.
"""

import os
import random

import numpy as np
import pytest

from finiteot.solver import KERNEL, KERNEL_INFO, _compiled
from finiteot.solver.simplex import transportation_simplex

needs_compiler = pytest.mark.skipif(
    _compiled.find_compiler() is None, reason="no C compiler found"
)


@pytest.fixture(scope="module")
def compiled():
    return _compiled.load()


def random_instance(rng, n, m):
    a = np.array([rng.random() + 0.05 for _ in range(n)])
    a /= a.sum()
    b = np.array([rng.random() + 0.05 for _ in range(m)])
    b /= b.sum()
    C = np.array([[rng.uniform(0, 20) for _ in range(m)] for _ in range(n)])
    return a, b, C


def integer_instance(n):
    """Criterion-10-style instance: integer weights and costs, seeded by n."""
    rng = random.Random(n)
    a = np.array([rng.randint(1, 1000) for _ in range(n)], dtype=float)
    b = np.array([rng.randint(1, 1000) for _ in range(n)], dtype=float)
    C = np.array([[rng.randint(0, 1000) for _ in range(n)] for _ in range(n)], dtype=float)
    return a / a.sum(), b / b.sum(), C


def identity_instances(family):
    """(a, b, C, tol) of one family on which the twin must repeat the kernel."""
    rng = random.Random(family)
    instances = []
    if family == "tied":  # costs 0..3
        for _ in range(30):
            a, b, C = random_instance(rng, rng.randint(1, 20), rng.randint(1, 20))
            instances.append((a, b, np.floor(C / 5)))
    elif family == "assignment":  # degenerate: uniform weights, integer costs
        for n in range(2, 41, 2):
            uniform = np.full(n, 1.0 / n)
            C = np.array([[float(rng.randint(0, 99)) for _ in range(n)] for _ in range(n)])
            instances.append((uniform, uniform, C))
    elif family == "edge":  # 2x2 swap, one row or column, zero weights
        half = np.array([0.5, 0.5])
        instances.append((half, half, np.array([[0.0, 1.0], [1.0, 0.0]])))
        for n, m in ((1, 1), (1, 7), (7, 1), (1, 70), (70, 1)):
            instances.append(random_instance(rng, n, m))
        for n, m in ((2, 2), (5, 9), (12, 4)):
            a, b, C = random_instance(rng, n, m)
            a[0] = b[-1] = 0.0
            instances.append((a / a.sum(), b / b.sum(), C))
    elif family == "bland":
        # tol 1 is above every flow, so every pivot counts as degenerate and
        # both engines switch to Bland's rule after 3 (n + m) of them
        for n in (40, 60):
            a, b, _ = random_instance(rng, n, n)
            C = np.array([[float(rng.randint(0, 10**6)) for _ in range(n)] for _ in range(n)])
            instances.append((a, b, C, 1.0))
        return instances
    elif family == "forbidden":  # +inf cells at densities 0.1..0.9
        for k in range(90):
            a, b, C = random_instance(rng, rng.randint(1, 30), rng.randint(1, 30))
            if k % 3 == 1:  # tied costs 0..3
                C = np.floor(C / 5)
            if k % 4 == 2 and len(a) > 1 and len(b) > 1:  # a zero weight a side
                a[0] = b[-1] = 0.0
                a, b = a / a.sum(), b / b.sum()
            density = rng.uniform(0.1, 0.9)
            C[np.array([[rng.random() < density for _ in row] for row in C])] = np.inf
            instances.append((a, b, C))
    return [(a, b, C, 1e-9 * (1 + C[np.isfinite(C)].max(initial=0))) for a, b, C in instances]


def twin(a, b, C, tol):
    """transportation_simplex on the kernel's input, as (plan, iterations)."""
    flow, iterations = transportation_simplex(a.tolist(), b.tolist(), C.tolist(), tol=tol)
    X = np.zeros(C.shape)
    for (i, j), f in flow.items():
        X[i, j] = f
    return X, iterations


def check_feasible(a, b, flow, tol=1e-9):
    assert flow.min() >= -tol
    np.testing.assert_allclose(flow.sum(axis=1), a, atol=tol)
    np.testing.assert_allclose(flow.sum(axis=0), b, atol=tol)


def check_same_pivots(compiled, a, b, C, tol):
    X, iterations = compiled.solve_dense(a, b, C, tol)
    check_feasible(a, b, X)
    X_twin, iterations_twin = twin(a, b, C, tol)
    assert iterations_twin == iterations
    assert np.array_equal(X_twin, X)
    return X


class TestFallback:
    def test_random_instances_feasible(self):
        rng = random.Random(89)
        for _ in range(20):
            n, m = rng.randint(2, 12), rng.randint(2, 12)
            a, b, C = random_instance(rng, n, m)
            flow, _ = twin(a, b, C, 1e-9)
            check_feasible(a, b, flow)


@needs_compiler
class TestCompiled:
    @pytest.mark.skipif(
        bool(os.environ.get("FINITEOT_FORCE_PURE")),
        reason="FINITEOT_FORCE_PURE selects the fallback",
    )
    def test_kernel_is_selected(self):
        assert KERNEL == "compiled", KERNEL_INFO.reason

    def test_random_instances_feasible(self, compiled):
        rng = random.Random(97)
        for _ in range(20):
            n, m = rng.randint(2, 12), rng.randint(2, 12)
            a, b, C = random_instance(rng, n, m)
            flow, _ = compiled.solve_dense(a, b, C, 1e-9)
            check_feasible(a, b, flow)

    def test_costs_agree_with_fallback(self, compiled):
        rng = random.Random(101)
        for _ in range(30):
            n, m = rng.randint(1, 20), rng.randint(1, 20)
            a, b, C = random_instance(rng, n, m)
            check_same_pivots(compiled, a, b, C, 1e-9 * (1 + C.max()))

    def test_costs_agree_midsize(self, compiled):
        rng = random.Random(103)
        a, b, C = random_instance(rng, 60, 60)
        check_same_pivots(compiled, a, b, C, 1e-9 * (1 + C.max()))

    @pytest.mark.parametrize("family", ["tied", "assignment", "edge", "bland", "forbidden"])
    def test_twin_takes_the_same_pivots(self, compiled, family):
        instances = identity_instances(family)
        infeasible = 0
        for a, b, C, tol in instances:
            X = check_same_pivots(compiled, a, b, C, tol)
            infeasible += X[np.isinf(C)].sum() > tol  # mass on +inf cells
        if family == "forbidden":  # problems with and without a finite plan
            assert 0 < infeasible < len(instances)

    def test_pivots_match_cython_kernel(self, compiled):
        # pivot counts of the Cython kernel that _dense.c ports, whose block
        # size fell one short of sqrt(n m) at these perfect squares; the
        # twin repeats them
        for n, pivots in ((120, 1723), (200, 3715)):
            a, b, C = integer_instance(n)
            flow, iterations = compiled.solve_dense(a, b, C, 1e-6)
            check_feasible(a, b, flow)
            assert iterations == pivots
            flow_twin, iterations_twin = twin(a, b, C, 1e-6)
            assert iterations_twin == pivots
            assert np.array_equal(flow_twin, flow)
