"""The compiled kernel and its Python twin, simplex.transportation_simplex.

The compiled kernel's solve_dense(a, b, C, tol) returns (flow_matrix,
iterations, summary), from its float build on float arrays and from its
int64 build on the scaled ints of rational problems; the twin, which is the
fallback when the kernel cannot load and for rational data that do not fit
in int64, must return the same pivot count, the same plan and the same
summary (simplex.plan_summary), bit for bit, also on +inf cells and on
problems that they leave without a finite-cost plan.
Both engines need positive weights, so a problem with zero weights is fed
to them as solve_kantorovich feeds it, on its support.  The compiled kernel
is built by its loader with the system C compiler, so the cross-checks are
skipped only where no C compiler is found; a failed build with a compiler
present fails them.
"""

import itertools
import operator
import os
import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest

import finiteot.solver as solver
from finiteot.coupling import _is_coupling_array, _sum_in_order
from finiteot.measure import DiscreteMeasure
from finiteot.numerics import FLOAT, FLOAT_TOL, INF, default_tol
from finiteot.space import CostMatrix
from finiteot.solver import KERNEL, KERNEL_INFO, _compiled, oracle_basis_enumeration, simplex
from finiteot.solver.simplex import transportation_simplex

from test_solver import check_hall_cut, criterion10_instance, wide_range_instance

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


def support(a, b, C):
    """The problem on its rows and columns of positive weight, as the engines get it."""
    rows, cols = a > 0, b > 0
    return a[rows], b[cols], C[np.ix_(rows, cols)]


#: the families of identity_instances
TWIN_FAMILIES = (
    "tied", "assignment", "edge", "large_tol", "forbidden", "rational", "lone_forbidden",
    "wide_range", "forbidden_basis", "deep",
)


def identity_instances(family):
    """(a, b, C, tol) of one family on which the twin must repeat the kernel,
    with rel_tol after tol where the family prices cells by it."""
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
    elif family == "edge":  # 2x2 swap, one row or column, zero-weight problems' supports
        half = np.array([0.5, 0.5])
        instances.append((half, half, np.array([[0.0, 1.0], [1.0, 0.0]])))
        for n, m in ((1, 1), (1, 7), (7, 1), (1, 70), (70, 1)):
            instances.append(random_instance(rng, n, m))
        for n, m in ((2, 2), (5, 9), (12, 4)):
            a, b, C = random_instance(rng, n, m)
            a[0] = b[-1] = 0.0
            instances.append(support(a / a.sum(), b / b.sum(), C))
    elif family == "large_tol":
        # tol 1 is above every flow: no pivot rule may read tol, a cost
        # tolerance, as a flow (the deleted switch to Bland's rule did)
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
            instances.append(support(a, b, C))
    elif family == "rational":  # as the int64 build gets them from the solver
        return [int64_input(*problem) for problem in rational_problems(1000)]
    elif family == "lone_forbidden":
        return lone_forbidden_instances(rng)
    elif family == "forbidden_basis":
        return forbidden_basis_instances(rng)
    elif family == "deep":
        # line costs |i - j| make the start a staircase, a tree about n
        # nodes deep, whose pivots re-hang long stems; and criterion 10's
        # problems at n = 100 and 150, priced as a float solve with no tol
        for n in range(60, 121, 10):
            a, b, _ = random_instance(rng, n, n)
            line = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
            instances.append((a, b, line, 1e-9 * (1 + line.max())))
        for n in (100, 150):
            mu1, mu2, cost = criterion10_instance(n)
            instances.append((mu1.float_weights, mu2.float_weights, np.array(cost), 0.0, FLOAT_TOL))
        return instances
    elif family == "wide_range":
        # costs U(0, 1) * 10^U(0, 12), some with +inf cells, priced as a
        # float solve with no tol prices them: tol 0 and the per-cell factor
        instances = []
        for seed, inf_share in itertools.product(range(1, 11), (0.0, 0.1)):
            mu1, mu2, cost = wide_range_instance(seed, 60, inf_share)
            instances.append((mu1.float_weights, mu2.float_weights, np.array(cost), 0.0, FLOAT_TOL))
        return instances
    return [(a, b, C, 1e-9 * (1 + C[np.isfinite(C)].max(initial=0))) for a, b, C in instances]


def lone_forbidden_instances(rng):
    """(a, b, C, tol) with +inf on one cell: where the kernel's scan for a
    forbidden cell starts or ends, or on a zero-weight row.

    The cell is the first one, the last one (n m - 1), or one on a row of
    weight 0, which the support drops, so that the value-only pricing runs.
    Each comes as a float problem, with spread or tied costs, and as a
    rational one through the int64 build, at shapes from 1 x 1 and n x 1
    up to 30 x 30.
    """
    instances = []
    shapes = ((1, 1), (2, 1), (7, 1), (1, 7), (2, 2), (3, 5), (9, 4), (16, 16), (30, 30))
    for (n, m), where, k in itertools.product(shapes, ("first", "last", "zero row"), range(4)):
        if where == "zero row" and n == 1:
            continue
        a, b, C = random_instance(rng, n, m)
        if k % 2:
            C = np.floor(C / 5)  # tied costs 0..3
        raw = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        i, j = (0, 0) if where == "first" else (n - 1, m - 1)
        if where == "zero row":
            i, j = rng.choice((0, n - 1)), rng.randrange(m)
            a[i] = 0.0
            a /= a.sum()
        C[i, j] = raw[i][j] = INF
        tol = 1e-9 * (1 + C[np.isfinite(C)].max(initial=0))
        instances.append((*support(a, b, C), tol))
        wa = [0 if where == "zero row" and r == i else rng.randint(1, 30) for r in range(n)]
        wb = [rng.randint(1, 30) for _ in range(m)]
        mu1, mu2 = (DiscreteMeasure(tuple(F(x, sum(w)) for x in w)) for w in (wa, wb))
        instances.append(int64_input(mu1, mu2, raw, None))
    return instances


def forbidden_basis_instances(rng):
    """(a, b, C, tol) whose start puts forbidden cells in the basis, which
    pivots then take out, or keep there when no finite plan exists.

    The last row, which ships every open column's remaining demand, is
    mostly forbidden, and the other rows a little; one problem in three
    has a block of rows whose finite cells reach too few columns.  Each
    comes as a float problem, priced with a tol or with tol 0 and the
    per-cell factor, and as a rational one through the int64 build.
    """
    instances = []
    for k in range(60):
        n, m = rng.randint(2, 24), rng.randint(2, 24)
        a, b, C = random_instance(rng, n, m)
        if k % 2:
            C = np.floor(C / 5)  # tied costs 0..3
        forbidden = np.array([[rng.random() < 0.15 for _ in range(m)] for _ in range(n)])
        forbidden[-1] = [rng.random() < 0.8 for _ in range(m)]
        if k % 3 == 2:  # a Hall block: these rows reach columns cols only
            cols = rng.sample(range(m), max(1, m // 4))
            for i in rng.sample(range(n), max(1, n // 3)):
                forbidden[i] = True
                forbidden[i, cols] = False
        C[forbidden] = np.inf
        instances.append((a, b, C, 0.0, FLOAT_TOL) if k % 4 else (a, b, C, 1e-9))
        raw = [[INF if f else int(c * 7) for c, f in zip(*rows)] for rows in zip(C, forbidden)]
        mu1, mu2 = (
            DiscreteMeasure(tuple(F(x, sum(w)) for x in w))
            for w in ([rng.randint(1, 30) for _ in range(size)] for size in (n, m))
        )
        instances.append(int64_input(mu1, mu2, raw, None))
    return instances


def rational_problems(count):
    """(mu1, mu2, cost, tol): seeded rational problems whose scaled data fit.

    Up to 16 points a side, with +inf cells at densities 0..0.7 (enough to
    leave some problems without a finite plan), zero weights, tied integer
    costs 0..3 or Fraction costs, and tol None, 0 or a Fraction.  At tol
    7/10 and integer costs the floor 0 and the nearest integer 1 of
    tol * cost scale pick different entering cells.
    """
    rng = random.Random(11)
    problems = []
    for _ in range(count):
        n, m = rng.randint(1, 16), rng.randint(1, 16)
        mu1, mu2 = (
            DiscreteMeasure(tuple(F(w, sum(raw)) for w in raw))
            for raw in (
                [rng.choice((0, rng.randint(1, 30))) for _ in range(k - 1)] + [rng.randint(1, 30)]
                for k in (n, m)
            )
        )
        tied = rng.random() < 0.5
        density = rng.uniform(0, 0.7)
        cost = [
            [
                INF if rng.random() < density
                else rng.randint(0, 3) if tied
                else F(rng.randint(-40, 90), rng.randint(1, 9))
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        problems.append((mu1, mu2, cost, rng.choice((None, 0, F(1, 100), F(7, 10)))))
    return problems


def zero_weight_problems(count):
    """(mu1, mu2, cost): seeded float problems with zero weights and +inf cells.

    Up to 20 points a side, every weight but the last zero with probability
    1/3, tied costs 0..3 or spread ones, and +inf cells at densities 0..0.8
    (enough to leave some problems without a finite plan).
    """
    rng = random.Random(13)
    problems = []
    for _ in range(count):
        n, m = rng.randint(1, 20), rng.randint(1, 20)
        mu1, mu2 = (
            DiscreteMeasure(tuple(x / sum(raw) for x in raw))
            for raw in (
                [rng.choice((0, rng.randint(1, 30), rng.randint(1, 30))) for _ in range(k - 1)]
                + [rng.randint(1, 30)]
                for k in (n, m)
            )
        )
        tied = rng.random() < 0.5
        density = rng.uniform(0, 0.8)
        cost = [
            [
                INF if rng.random() < density
                else float(rng.randint(0, 3)) if tied
                else rng.uniform(0, 20)
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        problems.append((mu1, mu2, cost))
    return problems


def sixtyfourths(rng, k):
    """k weights in 64ths, some zero: float sums of them are exact."""
    cuts = sorted(rng.randint(0, 64) for _ in range(k - 1))
    return DiscreteMeasure(tuple((hi - lo) / 64 for lo, hi in zip([0, *cuts], [*cuts, 64])))


def strong_feasibility_battery():
    """(mu1, mu2, cost, tol): tied, degenerate, +inf and zero-weight problems.

    300 of rational_problems' problems, degenerate rational assignments,
    and float problems with weights in 64ths, tied costs and +inf cells, so
    that every flow and every subtree's net supply is exact.
    """
    rng = random.Random(17)

    def assignment(n):
        mu = DiscreteMeasure(tuple(F(1, n) for _ in range(n)))
        return mu, mu, [[rng.randint(0, 99) for _ in range(n)] for _ in range(n)], None

    problems = rational_problems(300) + [assignment(n) for n in range(2, 31, 4)]
    for _ in range(150):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.uniform(0, 0.6)
        cost = [
            [INF if rng.random() < density else float(rng.randint(0, 3)) for _ in range(m)]
            for _ in range(n)
        ]
        problems.append((sixtyfourths(rng, n), sixtyfourths(rng, m), cost, None))
    # the larger assignments draw last, so the float problems do not depend on them
    problems += [assignment(n) for n in range(34, 63, 4)]
    return problems


def rational_instance(n):
    """Seeded n x n rational problem with a finite plan and about 10% +inf cells."""
    rng = random.Random(n)
    mu1, mu2 = (
        DiscreteMeasure(tuple(F(x, sum(raw)) for x in raw))
        for raw in ([rng.randint(1, 1000) for _ in range(n)] for _ in range(2))
    )
    cost = [
        [INF if i != j and rng.random() < 0.1 else F(rng.randint(0, 1000), 7) for j in range(n)]
        for i in range(n)
    ]
    return mu1, mu2, cost


def int64_input(mu1, mu2, cost, tol):
    """The int64 build's input for a rational problem, as solve_kantorovich
    makes it with the kernel loaded."""
    with mock.patch.object(solver, "_kernel", _compiled.load()):
        a, b, C, tol, *_ = solver._exact_input(mu1, mu2, CostMatrix(cost), tol or 0)
    assert a.dtype == b.dtype == C.dtype == np.int64
    return (*support(a, b, C), tol)


def forbidden_cells(C):
    return C == _compiled.FORBIDDEN_INT64 if C.dtype == np.int64 else np.isinf(C)


def twin(a, b, C, tol, rel_tol=0.0):
    """transportation_simplex on the kernel's input, as (plan, iterations).

    An int64 input runs on Python ints, its forbidden cells as +inf.
    """
    cells = C.tolist()
    if C.dtype == np.int64:
        cells = np.where(forbidden_cells(C), INF, C.astype(object)).tolist()
    flow, iterations = transportation_simplex(a.tolist(), b.tolist(), cells, tol, rel_tol)
    X = np.zeros(C.shape, dtype=C.dtype)
    for (i, j), f in flow.items():
        X[i, j] = f
    return X, iterations


def twin_summary(a, b, C, tol, rel_tol=0.0):
    """The Python simplex's summary of its plan on the kernel's input
    (simplex.plan_summary), its int64 input on Python ints as twin runs it."""
    cells = C.tolist()
    if C.dtype == np.int64:
        cells = np.where(forbidden_cells(C), INF, C.astype(object)).tolist()
    a, b = a.tolist(), b.tolist()
    flow, _ = transportation_simplex(a, b, cells, tol, rel_tol)
    return simplex.plan_summary(a, b, cells, flow)


def bits(summary):
    """The summary's numbers with each float as its bits: == then tells
    two summaries apart bit for bit."""
    return [(type(x), x.hex() if isinstance(x, float) else x) for x in summary]


def check_summary(a, b, C, X, summary):
    """An engine's summary of the plan X against numpy on the same arrays.

    The forbidden mass is _sum_in_order(X[forbidden]) and the price, over
    the plan with its forbidden cells swept to 0, is _float_price or the
    exact integer dot product, bit for bit; the gaps and the least cell give
    _is_coupling_array's verdict on the swept plan at the solver's
    tolerance.  C's forbidden cells are +inf, or FORBIDDEN_INT64 in an
    int64 array.  Returns that verdict.
    """
    forbidden = forbidden_cells(C) if C.dtype != object else C == INF
    swept = np.where(forbidden, 0, X)
    mass, price, row_gap, column_gap, least = summary
    if X.dtype == np.float64:
        # numpy's empty sum is the int 0, the engines' is 0.0
        want = _sum_in_order(X[forbidden]), solver._float_price(C, swept)
        assert bits([mass, price]) == bits([0.0 + want[0], 0.0 + want[1]])
        tol = default_tol(FLOAT)
    else:
        finite = ~forbidden
        exact_price = sum(map(operator.mul, C[finite].tolist(), swept[finite].tolist()))
        assert [mass, price] == [int(_sum_in_order(X[forbidden])), exact_price]
        assert type(mass) is type(price) is int
        tol = 0
    ok = _is_coupling_array(swept, a, b, tol)[0]
    assert (least >= -tol and row_gap <= tol and column_gap <= tol) == ok
    return ok


def outcome(mu1, mu2, cost, tol):
    """What a solve returns: the engine that ran and the solution's fields."""
    sol = solver.solve_kantorovich(mu1, mu2, cost, tol=tol)
    plan = sol.plan.matrix if sol.feasible else None
    return sol.engine, (sol.iterations, plan, repr(sol.optimal_cost), sol.infeasibility_certificate)


def check_feasible(a, b, flow, tol=1e-9):
    assert flow.min() >= -tol
    np.testing.assert_allclose(flow.sum(axis=1), a, atol=tol)
    np.testing.assert_allclose(flow.sum(axis=0), b, atol=tol)


def check_thread(tree):
    """Assert that tree's thread is a preorder of its parent links over
    every node, from row 0 round to it, that rev inverts it, and that
    last[x] is the last node of x's subtree in it; returns the depth."""
    size, thread, rev, last, parent = tree.n + tree.m, tree.thread, tree.rev, tree.last, tree.parent
    order = [0]
    while thread[order[-1]] != 0 and len(order) <= size:
        order.append(thread[order[-1]])
    assert sorted(order) == list(range(size))
    assert [rev[thread[x]] for x in range(size)] == list(range(size))
    path = [0]  # row 0 down to the node before: each node's parent is on it
    for before, x in zip(order, order[1:]):
        while path and path[-1] != parent[x]:
            assert last[path.pop()] == before  # that subtree ends here
        assert path, f"{x} comes after its parent's subtree"
        path.append(x)
    assert all(last[x] == order[-1] for x in path)
    return max(tree.depth)


def check_same_pivots(compiled, a, b, C, tol, rel_tol=0.0):
    X, iterations, _ = compiled.solve_dense(a, b, C, tol, rel_tol)
    check_feasible(a, b, X)
    X_twin, iterations_twin = twin(a, b, C, tol, rel_tol)
    assert iterations_twin == iterations
    assert np.array_equal(X_twin, X)
    return X


def degenerate_starts():
    """(name, mu1, mu2, cost, exact) of starts with the row-minimum rule's corner cases.

    exact says whether every flow and subtree supply is exact; float dust
    makes them differ from the weights' sums by a few ulps.
    """
    quarters = DiscreteMeasure((F(1, 4), F(1, 4), F(1, 2)))
    half = DiscreteMeasure((F(1, 2), F(1, 2)))
    return [
        # rows 0 and 1 close their columns at once: three components
        ("split", quarters, quarters, [[0, 2, 3], [2, 0, 1], [1, 3, 4]], True),
        # 0.1 + 0.2 rests leave the last row shipping 0.7 with dust on it
        ("last-row dust", DiscreteMeasure((0.1, 0.2, 0.7)), DiscreteMeasure((0.3, 0.3, 0.4)),
         [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]], False),
        # rows 0 and 1 close every column before the dust-sized rows come
        ("isolated rows", DiscreteMeasure((0.6, 0.4, 1e-17, 1e-17)), DiscreteMeasure((0.6, 0.4)),
         [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 3.0]], False),
        # row 0 closes column 0, the one finite cell of row 1
        ("forbidden", half, half, [[0, 5], [1, INF]], True),
    ]


def test_rational_cost_is_the_full_array_cost():
    # the cost over the cells with mass, as Python ints, against the earlier
    # cost_of_plan of the whole plan and the whole scaled cost array
    feasible = 0
    for mu1, mu2, cost, tol in rational_problems(1000):
        sol = solver.solve_kantorovich(mu1, mu2, cost, tol=tol)
        if not sol.feasible:
            continue
        feasible += 1
        _, _, C, _, wscale, cscale, _ = solver._exact_input(mu1, mu2, CostMatrix(cost), 0)
        X = sol.plan._array
        assert X.dtype == object and sol.plan._scale == wscale
        full = solver.cost_of_plan(X, C.astype(object))
        assert type(sol.optimal_cost) is F and sol.optimal_cost == F(full, wscale * cscale)
    assert 400 < feasible < 1000


class TestStrongFeasibility:
    """The Python simplex keeps its tree strongly feasible.

    Each tree edge's flow is never negative, and zero only on an edge that
    hangs a row from its column.  Where every sum is exact, each edge's flow
    is also the net supply of the subtree below it.  The C kernel takes the
    same pivots (TestCompiled), so it keeps the same trees.
    """

    @staticmethod
    def zero_edges(tree, weights=None):
        """The tree's zero-flow edges, after asserting the property.

        tree.flow holds each node's flow on the edge to its parent; with
        weights, the engine's (a, b), each flow must equal its subtree's
        net supply.
        """
        n, m = tree.n, tree.m
        # each node's supply minus demand, gathered into its parent's as the
        # loop climbs, so a node's entry is its subtree's when it is reached
        net = [*weights[0], *(-w for w in weights[1])] if weights else None
        zeros = 0
        for node in sorted(range(1, n + m), key=tree.depth.__getitem__, reverse=True):
            up, f = tree.parent[node], tree.flow[node]
            assert f > 0 or (f == 0 and node < n), (node, up, f)
            if net is not None:
                assert f == (net[node] if node < n else -net[node]), (node, up, f)
                net[up] += net[node]
            zeros += f == 0
        return zeros

    def test_start_and_every_pivot_keep_the_tree_strongly_feasible(self, monkeypatch):
        trees = zeros = 0
        exact = True
        start, pivot = simplex.row_minimum_start, simplex._Tree.pivot

        def check(tree):
            nonlocal trees, zeros
            trees += 1
            zeros += self.zero_edges(tree, tree.weights if exact else None)

        def checked_start(a, b, cost, tree):
            flow = start(a, b, cost, tree)
            tree.weights = a, b
            check(tree)
            return flow

        def checked_pivot(tree, *args):
            pivot(tree, *args)
            check(tree)

        monkeypatch.setattr(simplex, "row_minimum_start", checked_start)
        monkeypatch.setattr(simplex._Tree, "pivot", checked_pivot)
        monkeypatch.setattr(solver, "_kernel", None)
        battery = [(*problem, True) for problem in strong_feasibility_battery()]
        battery += [(mu1, mu2, cost, None, exact) for _, mu1, mu2, cost, exact in degenerate_starts()]
        for mu1, mu2, cost, tol, exact in battery:
            solver.solve_kantorovich(mu1, mu2, cost, tol=tol)
        # every start and thousands of pivots, on degenerate trees
        assert trees > 5 * len(battery) and zeros > trees

    def test_degenerate_starts_are_what_they_claim(self):
        starts = {}
        for name, mu1, mu2, cost, _ in degenerate_starts():
            a, b = list(mu1.weights), list(mu2.weights)
            big, value = simplex._split_costs(cost)
            tree = simplex._Tree(len(a), len(b), value, big)
            starts[name] = a, b, cost, simplex.row_minimum_start(a, b, cost, tree)
        a, b, cost, flow = starts["split"]
        assert sorted(flow.values()).count(0) == 2
        a, b, cost, flow = starts["last-row dust"]
        assert sum(F(f) for (i, _), f in flow.items() if i == 2) != F(a[2])
        a, b, cost, flow = starts["isolated rows"]
        assert [f for (i, _), f in flow.items() if i >= 2] == [0, 0]
        a, b, cost, flow = starts["forbidden"]
        assert flow[(1, 1)] > 0 and cost[1][1] == INF

    def test_the_twins_thread_stays_a_preorder(self, monkeypatch):
        # the Python engine over every twin family: after the start and
        # after every pivot, the thread is a preorder of parent covering
        # every node, rev its inverse, and last[x] ends x's subtree in it
        grow, pivot, checked = simplex._Tree.grow, simplex._Tree.pivot, []

        def checked_grow(tree, *args):
            grow(tree, *args)
            check_thread(tree)

        def checked_pivot(tree, *args):
            pivot(tree, *args)
            checked.append(check_thread(tree))

        monkeypatch.setattr(simplex._Tree, "grow", checked_grow)
        monkeypatch.setattr(simplex._Tree, "pivot", checked_pivot)
        for family in TWIN_FAMILIES:
            for a, b, C, tol, *rel_tol in identity_instances(family):
                twin(a, b, C, tol, *rel_tol)
        assert len(checked) > 20000 and max(checked) > 100, (len(checked), max(checked))


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

    def test_data_addresses_are_read_where_the_probe_found_them(self, compiled):
        """solve_dense reads each array's data address at the offset from
        its id that load() found on a probe: it is the address .ctypes
        gives, for views, read-only and int64 arrays alike."""
        import ctypes

        base = np.arange(60, dtype=np.float64).reshape(6, 10)
        frozen = base.copy()
        frozen.flags.writeable = False
        arrays = [base, base[2:], base[:, 3], base.T, frozen, np.zeros(1, np.int64), np.ones(7)[3:]]
        for x in arrays:
            assert ctypes.c_void_p.from_address(id(x) + compiled._data_at).value == x.ctypes.data

    def test_data_addresses_without_an_offset(self, compiled, monkeypatch):
        """Where no offset is found (id() is an address only in CPython),
        solve_dense reads __array_interface__ and returns the same plan."""
        rng = random.Random(41)
        a, b, C = random_instance(rng, 7, 9)
        X, iters, _ = compiled.solve_dense(a, b, C, 1e-9)
        monkeypatch.setattr(compiled, "_data_at", None)
        Y, iters_again, _ = compiled.solve_dense(a, b, C, 1e-9)
        assert iters == iters_again and np.array_equal(X, Y)

    def test_random_instances_feasible(self, compiled):
        rng = random.Random(97)
        for _ in range(20):
            n, m = rng.randint(2, 12), rng.randint(2, 12)
            a, b, C = random_instance(rng, n, m)
            flow, _, _ = compiled.solve_dense(a, b, C, 1e-9)
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

    @pytest.mark.parametrize("family", TWIN_FAMILIES)
    def test_twin_takes_the_same_pivots(self, compiled, family):
        instances = identity_instances(family)
        infeasible = 0
        for a, b, C, tol, *rel_tol in instances:
            X = check_same_pivots(compiled, a, b, C, tol, *rel_tol)
            infeasible += X[forbidden_cells(C)].sum() > tol  # mass on +inf cells
            _, _, summary = compiled.solve_dense(a, b, C, tol, *rel_tol)
            assert bits(summary) == bits(twin_summary(a, b, C, tol, *rel_tol))
        if family in ("forbidden", "rational", "forbidden_basis"):  # with and without a finite plan
            assert 0 < infeasible < len(instances)

    def test_the_twin_counts_its_forbidden_basic_cells(self, monkeypatch):
        # the count that lets a float scan price values alone is the number
        # of forbidden basic cells after the start and after every pivot;
        # forbidden cells leave the basis, and stay in it without a finite plan
        pivot, counts = simplex._Tree.pivot, []

        def counted(tree, *args):
            pivot(tree, *args)
            basic = [tree.big[i][j] for i, j in tree.flows()]
            assert tree.basic_big == sum(basic), (tree.basic_big, basic)
            counts[-1].append(tree.basic_big)

        monkeypatch.setattr(simplex._Tree, "pivot", counted)
        for a, b, C, tol, *rel_tol in identity_instances("forbidden_basis"):
            counts.append([])
            twin(a, b, C, tol, *rel_tol)
        left = sum(any(x > 0 and 0 in c[k + 1:] for k, x in enumerate(c)) for c in counts)
        kept = sum(bool(c) and c[-1] > 0 for c in counts)
        assert left > 30 and kept > 30, (left, kept)

    @pytest.mark.parametrize(
        "family", ["tied", "assignment", "edge", "forbidden", "rational", "lone_forbidden"]
    )
    def test_summary_is_the_numpy_one(self, compiled, family):
        # dense floats, +inf cells with and without a finite plan, and the
        # int64 build's rational inputs: the kernel's summary and the twin's
        # are numpy's sums, and give its verdict
        verdicts = []
        for a, b, C, tol in identity_instances(family):
            X, _, summary = compiled.solve_dense(a, b, C, tol)
            verdicts.append(check_summary(a, b, C, X, summary))
            X_twin, _ = twin(a, b, C, tol)
            assert check_summary(a, b, C, X_twin, twin_summary(a, b, C, tol)) == verdicts[-1]
        if family in ("tied", "assignment", "edge"):  # every cell finite
            assert all(verdicts)
        else:  # with and without a finite plan: the infeasible plans fail
            assert 0 < sum(verdicts) < len(verdicts)

    def test_a_nan_gap_sticks_in_the_twins_summary(self, compiled):
        # the engines refuse the infinite weights whose line sums once gave
        # inf - inf, so a NaN reaches a summary only in a plan handed to
        # plan_summary: a NaN cell on row and column 0 must not be hidden by
        # the larger finite gaps after it.  A term c x = inf still makes
        # both engines' price +inf.
        ones = [1.0, 1.0, 1.0]
        C = [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [1.0, 0.0, 2.0]]
        flow = {(0, 0): np.nan, (1, 1): 1.0, (2, 2): 3.0}
        _, _, row_gap, column_gap, least = simplex.plan_summary(ones, ones, C, flow)
        assert row_gap != row_gap and column_gap != column_gap and least != least
        a, C = np.array([2.0, 2.0]), np.full((2, 2), 1e308)
        _, _, summary = compiled.solve_dense(a, a, C, 1e-9)
        assert summary[1] == INF and bits(summary) == bits(twin_summary(a, a, C, 1e-9))

    def test_both_engines_refuse_the_same_weights(self, compiled):
        # a weight of 0, -1, NaN or +inf on either side gets the same
        # ValueError from the float build, the twin, and for 0 and -1 the
        # int64 build and the twin on ints
        C = [[0.0, 1.0], [1.0, 0.0]]
        messages = set()
        for bad, side in itertools.product((0, -1, np.nan, INF), (0, 1)):
            a, b = [bad, 2.0], [1.0, 1.0]
            if side:
                a, b = b, a
            runs = [
                lambda: compiled.solve_dense(np.array(a), np.array(b), np.array(C), 1e-9),
                lambda: transportation_simplex(a, b, C, tol=1e-9),
            ]
            if bad in (0, -1):
                ints = [list(map(int, w)) for w in (a, b, *C)]
                runs += [
                    lambda: compiled.solve_dense(*(np.array(w, dtype=np.int64) for w in ints[:2]),
                                                 np.array(ints[2:], dtype=np.int64), 0),
                    lambda: transportation_simplex(ints[0], ints[1], ints[2:], tol=0),
                ]
            for run in runs:
                with pytest.raises(ValueError) as raised:
                    run()
                messages.add(str(raised.value))
        assert len(messages) == 1, messages

    def test_support_summary_is_the_full_plans(self, compiled, monkeypatch):
        # a problem with a zero weight runs on its support; the summary of
        # the support's plan is numpy's on the full plan and the full
        # weights and costs, from the float build, the int64 build and the
        # Python simplex
        runs = []
        run_engine = solver._run_engine

        def spy(*args, **kwargs):
            runs.append(run_engine(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solver, "_run_engine", spy)
        problems = [(*problem, None) for problem in zero_weight_problems(150)]
        problems += rational_problems(150)
        verdicts, engines = [], set()
        for mu1, mu2, cost, tol in problems:
            if 0 not in mu1.weights and 0 not in mu2.weights:
                continue
            cm = CostMatrix(cost)
            for kernel in (compiled, None):
                monkeypatch.setattr(solver, "_kernel", kernel)
                if mu1.mode == mu2.mode == cm.mode == "rational":
                    a, b, C, *_ = solver._exact_input(mu1, mu2, cm, 0)
                else:
                    a, b, C = mu1.float_weights, mu2.float_weights, cm._float_costs
                solver.solve_kantorovich(mu1, mu2, cm, tol=tol)
                on_support, _, summary, engine = runs.pop()
                X = np.zeros(C.shape, dtype=on_support.dtype)
                X[np.ix_(a > 0, b > 0)] = on_support
                verdicts.append(check_summary(a, b, C, X, summary))
                engines.add((engine, X.dtype.name))
        assert 0 < sum(verdicts) < len(verdicts)
        assert engines == {("compiled", "float64"), ("python", "float64"),
                           ("compiled", "int64"), ("python", "object")}

    def test_rational_solves_repeat_the_python_simplex(self, compiled, monkeypatch):
        # the same pivots, Fraction plans, costs and Hall cuts from the int64
        # build as from transportation_simplex on the unfloored tolerance
        infeasible = 0
        for problem in rational_problems(1000):
            monkeypatch.setattr(solver, "_kernel", compiled)
            engine, solved = outcome(*problem)
            assert engine == "compiled"
            monkeypatch.setattr(solver, "_kernel", None)
            assert outcome(*problem) == ("python", solved)
            infeasible += solved[1] is None
        assert 0 < infeasible < 1000

    def test_float_zero_weight_solves_repeat_the_python_simplex(self, compiled, monkeypatch):
        # both engines solve on the support: the same pivots, plans, costs
        # and Hall cuts from the float build as from the Python simplex,
        # exact zeros off the support, and cuts that hold on the full problem
        problems = zero_weight_problems(300)
        infeasible = zero_weighted = 0
        for mu1, mu2, cost in problems:
            monkeypatch.setattr(solver, "_kernel", compiled)
            engine, solved = outcome(mu1, mu2, cost, None)
            assert engine == "compiled"
            monkeypatch.setattr(solver, "_kernel", None)
            assert outcome(mu1, mu2, cost, None) == ("python", solved)
            zero_weighted += 0 in mu1.weights or 0 in mu2.weights
            plan, cut = solved[1], solved[3]
            if plan is None:
                infeasible += 1
                check_hall_cut(cut, mu1, mu2, cost)
                continue
            for i, row in enumerate(plan):
                for j, x in enumerate(row):
                    if mu1.weights[i] == 0 or mu2.weights[j] == 0:
                        assert x == 0, (i, j, x)
        assert 0 < infeasible < len(problems) and zero_weighted > len(problems) // 2

    def test_degenerate_starts_repeat_the_python_simplex(self, compiled, monkeypatch):
        for _, mu1, mu2, cost, _ in degenerate_starts():
            monkeypatch.setattr(solver, "_kernel", compiled)
            engine, solved = outcome(mu1, mu2, cost, None)
            assert engine == "compiled"
            monkeypatch.setattr(solver, "_kernel", None)
            assert outcome(mu1, mu2, cost, None) == ("python", solved)

    def test_weights_must_be_positive(self, compiled):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        cases = [
            ([1.0, 0.0], [0.5, 0.5], C, 1e-9),
            ([0.5, 0.5], [0.0, 1.0], C, 1e-9),
            ([np.nan, 1.0], [0.5, 0.5], C, 1e-9),
            ([2, 0], [1, 1], C.astype(np.int64), 0),  # the int64 build
        ]
        for a, b, costs, tol in cases:
            with pytest.raises(ValueError, match="positive weights"):
                compiled.solve_dense(np.array(a), np.array(b), costs, tol)

    def test_int64_fit_bounds(self, compiled, monkeypatch):
        # data just under each bound run the int64 build, data at it the
        # Python simplex, and both give the exact optimum
        half = DiscreteMeasure((F(1, 2), F(1, 2)))
        at = 2**58  # (n + m) max|c| < 2^60 with n + m = 4

        def thin(d):  # total scaled supply d
            return DiscreteMeasure((F(1, d), F(d - 1, d)))

        cases = [
            (half, half, [[at - 1, 0], [-at + 1, at - 2]], None, "compiled"),
            (half, half, [[at, 0], [-at + 1, at - 2]], None, "python"),
            (half, half, [[0, -at], [at - 1, 1]], None, "python"),
            (thin(2**62 - 2), half, [[3, 1], [1, INF]], None, "compiled"),
            (thin(2**62), half, [[3, 1], [1, INF]], None, "python"),
            (thin(2**61 + 1), thin(2**61 - 1), [[0, 5], [7, 2]], None, "python"),
            (half, half, [[0, 1], [1, 0]], 2**60 - 1, "compiled"),
            (half, half, [[0, 1], [1, 0]], 2**60, "python"),
            (half, half, [[0, 1], [1, 0]], F(3 * 2**60 - 1, 3), "compiled"),  # floored
        ]
        for mu1, mu2, cost, tol, engine in cases:
            monkeypatch.setattr(solver, "_kernel", compiled)
            ran, solved = outcome(mu1, mu2, cost, tol)
            assert ran == engine, (cost, tol)
            monkeypatch.setattr(solver, "_kernel", None)
            assert outcome(mu1, mu2, cost, tol) == ("python", solved)
            if tol is None:
                assert solved[2] == repr(oracle_basis_enumeration(mu1, mu2, cost).optimal_cost)

    def test_int64_solves_near_the_cost_bound(self, compiled, monkeypatch):
        # potentials and reduced costs near 2^61 stay exact
        rng = random.Random(58)
        for n in (3, 10, 25):
            top = (2**60 - 1) // (2 * n)
            mu = DiscreteMeasure(tuple(F(1, n) for _ in range(n)))
            cost = [[rng.choice((top, -top, rng.randint(-top, top))) for _ in range(n)]
                    for _ in range(n)]
            monkeypatch.setattr(solver, "_kernel", compiled)
            engine, solved = outcome(mu, mu, cost, None)
            assert engine == "compiled"
            monkeypatch.setattr(solver, "_kernel", None)
            assert outcome(mu, mu, cost, None) == ("python", solved)

    @pytest.mark.skipif(
        bool(os.environ.get("FINITEOT_FORCE_PURE")),
        reason="FINITEOT_FORCE_PURE selects the fallback",
    )
    def test_fitting_rational_solve_skips_the_python_simplex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fitting rational solve ran the Python simplex")

        monkeypatch.setattr(solver, "transportation_simplex", refuse)
        sol = solver.solve_kantorovich(*rational_instance(30))
        assert sol.engine == "compiled" and sol.feasible
        assert type(sol.optimal_cost) is F

    def test_pivots_at_perfect_square_sizes(self, compiled):
        # at these sizes n m is a perfect square, and the block size
        # floor(exp(log(n m) / 2)) falls one short of sqrt(n m); both
        # engines take these pivot counts from the row-minimum start
        for n, pivots in ((120, 796), (200, 1613)):
            a, b, C = integer_instance(n)
            flow, iterations, _ = compiled.solve_dense(a, b, C, 1e-6)
            check_feasible(a, b, flow)
            assert iterations == pivots
            flow_twin, iterations_twin = twin(a, b, C, 1e-6)
            assert iterations_twin == pivots
            assert np.array_equal(flow_twin, flow)
