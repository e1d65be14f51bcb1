"""Transportation simplex on a persistent spanning tree, over any ordered numbers.

This is the Python twin of the C kernel (_dense.c), which is a port of it,
and its fallback, with the kernel's contract: transportation_simplex takes
the arrays CompiledKernel.solve_dense takes and returns its (plan, pivots,
summary), and summary() is the one definition of the summary that both
engines return.  It runs unchanged on Python ints (rational mode:
solve_kantorovich scales weights and costs by the least common multiple of
their denominators, so every pivot is the one Fractions would take) and on
floats.  The C kernel's float build runs every float problem and its int64
build every rational problem whose scaled data fit in int64; this engine
runs the rational problems that do not fit, and every problem when the C
kernel is off (it cannot be built or loaded, the interpreter is not
CPython, or FINITEOT_FORCE_PURE=1).  Both run _compiled.check_problem
first, which refuses what neither takes and sizes both searches.  On
any problem, forbidden cells included, it takes the C kernel's pivots one
for one and returns the same plan, bit for bit on floats.

Both engines keep one basis layout and one pivot walk; the header of
_dense.c describes the algorithm in full.  The basis is a spanning tree
over the row nodes 0..n-1 and the column nodes n..n+m-1, rooted at row 0:
each node's parent, depth, potentials (pot, and pot_big for the M part)
and the flow on the edge to its parent, and the thread: a preorder of the
tree closed into a cycle, its inverse rev, and the last node of each
node's subtree in it.  The C also keeps each edge's cost beside its flow,
where this engine reads its cost lists.  The start is the row-minimum
rule (the start of Gottschlich & Schuhmacher's shortlist method, PLoS ONE
2014), and the entering cell comes from a wraparound block search (LEMON's
NetworkSimplex, which POT's emd uses).  A pivot is one climb from both
ends of the entering cell to their common ancestor, which picks theta and
the leaving edge; the flows move along the two paths; the cut path is
re-hung, each flow moving one edge along it, and spliced into the thread;
and one walk along the thread recomputes the re-hung subtree's depths and
potentials.

The leaving rule keeps the tree strongly feasible (Cunningham, Math.
Programming 11, 1976; Ahuja, Magnanti & Orlin, Network Flows, section
11.6): every zero-flow edge hangs a row from its column, so a degenerate
pivot never repeats a basis.  A zero-weight column, or a zero-weight row 0,
has only zero-flow edges and so admits no strongly feasible tree: the
engines need positive weights, and both refuse a weight that is not
positive or not finite.

Forbidden cells get a two-component lexicographic cost (M, value), read
off the costs in place as _dense.c reads them: (1, 0) on a cell that
holds the mark and (0, c) elsewhere.  A unit of M outweighs any value, so
the optimum carries mass on a forbidden cell only when no finite-cost
feasible plan exists.  The mark is +inf on floats, FORBIDDEN_INT64 on
int64, and on exact numbers 2 (n + m) max|finite c| + 1, which
transportation_simplex puts in its own cost lists.  The tree counts its
forbidden basic cells; while there are none, every M potential is 0, a
potential is a signed sum of fewer than n + m finite costs, the mark less
two of them stays positive, and the values alone are priced on the costs
as they are.
"""

from __future__ import annotations

from functools import partial
from operator import gt, lt

import numpy as np

from ..coupling import _sum_in_order, _sums_in_order
from ..numerics import INF
from . import _compiled


def row_minimum_start(a, b, cost, tree):
    """Initial basic feasible solution on tree; returns each basic cell's flow.

    Rows in index order ship their supply to their cheapest open column,
    the lowest index winning ties; the mark is above every finite cost, so
    a forbidden cell is used only when no finite one is open.  Each shipment
    closes its row or its column, so the cells form a forest.  A row whose
    float dust finds no open column ships nothing.  The last row ships every
    open column's remaining demand, so every column gets a positive cell.
    tree.grow joins the forest into the start tree by zero-flow cells.
    """
    n, m = len(a), len(b)
    rest = [*a, *b]
    cells = {}
    open_cols = list(range(m))  # the columns with demand left, in index order
    for i in range(n - 1):
        row = cost[i]
        while rest[i] > 0:
            open_cols = [j for j in open_cols if rest[n + j] > 0]
            if not open_cols:
                break  # float dust left on the row, and no open column
            j = min(open_cols, key=row.__getitem__)
            q = rest[i] if rest[i] < rest[n + j] else rest[n + j]
            cells[(i, j)] = q
            rest[i] -= q
            rest[n + j] -= q
    for j in open_cols:
        if rest[n + j] > 0:
            cells[(n - 1, j)] = rest[n + j]
    tree.grow(cells)
    return tree.flows()


class _Tree:
    """Spanning-tree basis rooted at row 0: per node its parent, depth,
    potentials for each cost part and the flow to its parent, and the
    thread, a preorder of the tree closed into a cycle, with its inverse
    rev and the last node of each node's subtree in it."""

    def __init__(self, n, m, cost, big, mark=INF):
        self.n = n
        self.m = m
        self.cost = cost
        self.big = big  # some cell is forbidden: keep the M potentials pot_big
        self.mark = mark  # the cost of a forbidden cell
        size = n + m
        self.parent = [-1] * size
        self.depth = [0] * size
        self.thread = [0] * size
        self.rev = [0] * size
        self.last = list(range(size))
        self.pot = [0] * size
        self.pot_big = [0] * size if big else None
        self.flow = [0] * size

    def grow(self, cells):
        """Root the tree at row 0 on a forest of cells, with their flows.

        cells maps each cell of the forest to its flow, and every column
        must lie on one.  Row 0's component comes first, then each further
        one in the order of its lowest row, which hangs from the cheapest
        column already in the tree (costs compared as in the start) by a
        zero-flow cell.  A component is searched depth first from a stack,
        and the thread takes its nodes in the order they leave the stack,
        a preorder, after the column it hangs from.
        """
        n, m, cost, parent, flow, thread, rev, last = (
            self.n, self.m, self.cost, self.parent, self.flow, self.thread, self.rev, self.last
        )
        near = [[] for _ in range(n + m)]
        for (i, j), f in cells.items():
            near[i].append((n + j, f))
            near[n + j].append((i, f))
        placed = [False] * (n + m)
        for i in range(n):
            if placed[i]:
                continue
            placed[i] = True
            prev = 0
            if i:
                row = cost[i]
                prev = n + min((j for j in range(m) if placed[n + j]), key=row.__getitem__)
                parent[i], flow[i] = prev, 0
            after = thread[prev]
            stack = [i]
            while stack:
                node = stack.pop()
                thread[prev] = node
                prev = node
                for other, f in near[node]:
                    if not placed[other]:
                        placed[other] = True
                        parent[other], flow[other] = node, f
                        stack.append(other)
            thread[prev] = after
        for node, following in enumerate(thread):
            rev[following] = node
        # back along the thread, a node's last child in preorder comes first
        node = rev[0]
        while node:
            up = parent[node]
            if last[up] == up:
                last[up] = last[node]
            node = rev[node]
        self._refresh(thread[0], 0)
        # the forbidden basic cells, counted here and at each pivot
        self.basic_big = sum(cost[i][j] == self.mark for i, j in self.flows()) if self.big else 0

    def flows(self):
        """Each basic cell's flow, as a dict keyed by (row, column)."""
        n = self.n
        return {
            (node, up - n) if node < n else (up, node - n): f
            for node, (up, f) in enumerate(zip(self.parent, self.flow))
            if node
        }

    def _refresh(self, node, stop):
        """Recompute depth and potentials along the thread from node up to
        stop: a preorder meets each parent before its children."""
        n, parent, depth, thread = self.n, self.parent, self.depth, self.thread
        cost, big, mark, pot, pot_big = self.cost, self.big, self.mark, self.pot, self.pot_big
        while node != stop:
            up = parent[node]
            c = cost[node][up - n] if node < n else cost[up][node - n]
            depth[node] = depth[up] + 1
            if big:  # a forbidden cell costs (M, value) = (1, 0)
                forbidden = c == mark
                pot[node] = (0 if forbidden else c) - pot[up]
                pot_big[node] = forbidden - pot_big[up]
            else:
                pot[node] = c - pot[up]
            node = thread[node]

    def pivot(self, ei, ej):
        """Bring the cell (ei, ej) into the basis, as fot_solve does.

        Edges are named by their lower node.  One climb from both ends to
        their common ancestor picks theta and the leaving edge: of the
        decreasing edges (below a row on the row's side, below a column on
        the column's side) with the least flow, the last one met walking
        from the ancestor down to ei, across the cell and up from its
        column, so a column-side edge wins a tie.  The flows move by theta
        along both paths.  Then below, the cell's end under the leaving
        edge, hangs from the other end (_rehang), and the re-hung subtree
        is refreshed along the thread.
        """
        n, parent, depth, flow = self.n, self.parent, self.depth, self.flow
        x, y = ei, n + ej
        leave = -1
        while x != y:
            if depth[x] >= depth[y]:
                if x < n and (leave < 0 or flow[x] < theta):
                    theta, leave, below = flow[x], x, ei
                x = parent[x]
            else:
                if y >= n and (leave < 0 or flow[y] <= theta):
                    theta, leave, below = flow[y], y, n + ej
                y = parent[y]
        apex = x
        if self.big:
            up, cost, mark = parent[leave], self.cost, self.mark
            c = cost[leave][up - n] if leave < n else cost[up][leave - n]
            self.basic_big += (cost[ei][ej] == mark) - (c == mark)
        for x in ei, n + ej:  # from each end, an edge below a node of its kind decreases
            side = x < n
            while x != apex:
                if (x < n) == side:
                    flow[x] -= theta
                else:
                    flow[x] += theta
                x = parent[x]
        self._rehang(below, n + ej if below == ei else ei, leave, apex, theta)
        self._refresh(below, self.thread[self.last[below]])

    def _rehang(self, below, v_in, leave, apex, theta):
        """Hang below from v_in and reverse the stem, the path from below up
        to leave, each flow moving one edge along it and below's edge
        carrying theta; keep the thread a preorder (rehang in _dense.c,
        LEMON's updateTreeStructure without successor counts).  The stem is
        empty when below is leave, and the splice alone moves the subtree."""
        parent, thread, rev, last, flow = self.parent, self.thread, self.rev, self.last, self.flow
        v_out, old_rev, old_last = parent[leave], rev[leave], last[leave]
        cont = thread[old_last] if old_rev == v_in else thread[v_in]
        stem, par_stem, carried = below, v_in, theta
        end = last[below]
        after = thread[end]
        thread[v_in] = below
        dirty = [v_in]  # nodes whose successor's rev is set at the end
        while stem != leave:
            # the next stem node follows this one's subtree, which
            # leaves its old place in the thread
            next_stem = parent[stem]
            thread[end] = next_stem
            dirty.append(end)
            before = rev[stem]
            thread[before], rev[after] = after, before
            parent[stem], flow[stem], carried = par_stem, carried, flow[stem]
            par_stem, stem = stem, next_stem
            # the next stem node's subtree, less the one just moved
            end = rev[par_stem] if last[stem] == last[par_stem] else last[stem]
            after = thread[end]
        parent[leave], flow[leave] = par_stem, carried
        thread[end], rev[cont] = cont, end
        last[leave] = end
        if old_rev != v_in:
            thread[old_rev], rev[after] = after, old_rev
        for node in dirty:
            rev[thread[node]] = node
        node = leave  # each stem node's subtree now ends where leave's does
        while node != below:
            node = parent[node]
            last[node] = end
        # the subtrees that ended at v_in now end with the moved one; on the
        # path from v_out, those that ended with it end before it, or, when
        # it keeps its place after v_in, with its new last node
        limit = apex if last[apex] == v_in else -1
        end = last[leave]
        node = v_in
        while node != -1 and last[node] == v_in:
            last[node] = end
            node = parent[node]
        if apex != old_rev and v_in != old_rev:
            end = old_rev
        if end != old_last:
            node = v_out
            while node != limit and last[node] == old_last:
                last[node] = end
                node = parent[node]

    def block_search(self, ntol, rel, start, block):
        """Wraparound block search for the entering cell.

        Scans the cells in row-major order from position start (i * m + j),
        block cells at a time, until a block holds a non-basic cell whose
        reduced cost is negative: M part below 0, or M part 0 and value part
        r = c - u - v below ntol and, when rel is not 0, below
        -rel * (|c| + |u| + |v|), summed as _dense.c's BEYOND sums it.
        Returns the least reduced cost in that block, (M, value) pairs
        compared lexicographically and the first cell winning ties, as
        (i, j, position after the block), or None when no cell qualifies.

        The values alone are priced while no forbidden cell is basic:
        every M potential is then 0, and the mark less u and v is positive
        and never enters.
        """
        n, m, parent, pot, pot_big = self.n, self.m, self.parent, self.pot, self.pot_big
        cost, mark, v = self.cost, self.mark, pot[n:]
        v_big = pot_big[n:] if self.basic_big else None
        best_big, best, found = 0, ntol, None
        total = n * m
        pos = start
        scanned = 0
        while scanned < total:
            size = min(block, total - scanned)
            scanned += size
            end = pos + size  # past total when the block wraps round
            while pos < end:
                i, j0 = divmod(pos % total, m)
                stop = min(m, j0 + end - pos)
                pos += stop - j0
                ci, ui = cost[i], pot[i]
                up = parent[i] - n  # column of the basic cell to row i's parent
                if v_big is None:
                    for j in range(j0, stop):
                        r = ci[j] - ui - v[j]
                        if (
                            r < best
                            and j != up
                            and parent[n + j] != i
                            and (not rel or r < -(rel * (abs(ci[j]) + abs(ui) + abs(v[j]))))
                        ):
                            best, found = r, (i, j)
                else:
                    ui_big = pot_big[i]
                    for j in range(j0, stop):
                        c = ci[j]
                        forbidden = c == mark
                        d = forbidden - ui_big - v_big[j]
                        if d <= best_big:
                            if forbidden:
                                c = 0
                            r = c - ui - v[j]
                            # the value part decides entry only when the M part is 0
                            enters = d < best_big or r < best and (
                                d < 0 or not rel or r < -(rel * (abs(c) + abs(ui) + abs(v[j])))
                            )
                            if enters and j != up and parent[n + j] != i:
                                best_big, best, found = d, r, (i, j)
            pos %= total
            if found is not None:
                return (*found, pos)
        return None


def _float_price(C, X):
    """sum c_ij x_ij over the cells of X with mass, on float64 C and X: +inf
    when a term is infinite, else the terms added left to right in
    row-major order (_sum_in_order)."""
    mass = X != 0
    with np.errstate(over="ignore"):  # a term past float range is +inf
        terms = C[mass] * X[mass]
    return INF if INF in abs(terms) else _sum_in_order(terms)


def summary(a, b, C, X):
    """[forbidden mass, price, worst row gap, worst column gap, least cell]
    of the plan X of (a, b, C): the summary both engines return, which
    summarize in _dense.c must equal bit for bit.

    Forbidden cells (_compiled.forbidden_cells) count as swept to 0.  The
    numbers are Python floats, 0.0 based, when X is float64, else ints.
    Every sum runs in order, row-major or along its line.  The price adds
    c x over the cells with x != 0: +inf when a term is (_float_price), in
    int64 modulo 2^64 as C's uint64_t sum does, on Python ints exactly.  A
    gap is |a line's sum - its weight|; a NaN gap or cell makes its entry NaN.
    """
    forbidden = _compiled.forbidden_cells(C)
    swept = np.where(forbidden, 0, X)
    if X.dtype == np.float64:
        price = _float_price(C, swept)
    else:
        mass = swept != 0
        price = np.dot(C[mass], swept[mass])
    rows, cols = _sums_in_order(swept)
    gaps = abs(rows - a).max(), abs(cols - b).max()
    return np.array([_sum_in_order(X[forbidden]), price, *gaps, swept.min()], X.dtype).tolist()


def transportation_simplex(a, b, C, tol=0, rel_tol=0):
    """Minimize sum c_ij x_ij subject to row sums a and column sums b, as
    CompiledKernel.solve_dense does: (X in the weights' dtype, iterations,
    summary(a, b, C, X)).

    a (n,), b (m,) and C (n, m) are float64 arrays, a forbidden cell +inf;
    int64 ones, a forbidden cell FORBIDDEN_INT64, run as Python ints; or
    object arrays of Python ints (or other exact numbers, such as
    Fractions) and +inf, which the engine's cost lists mark as
    2 (n + m) max|finite c| + 1.  The arrays must pass
    _compiled.check_problem, which also gives the block size and the
    pivot limit, and the weights be positive and finite with equal totals
    (solve_kantorovich passes the support), else ValueError, as from the C
    kernel.  A cell enters when its reduced cost has a negative M part, or
    a zero M part and a value part r = c - u - v below -tol and, when
    rel_tol is not 0 (floats only), below -rel_tol * (|c| + |u| + |v|).
    """
    n, m, block, limit = _compiled.check_problem(a, b, C, objects=True)
    a_list, b_list = a.tolist(), b.tolist()
    weights = [*a_list, *b_list]  # as fot_solve refuses them, with no call per weight
    if not (all(map(partial(lt, 0), weights)) and all(map(partial(gt, INF), weights))):
        raise ValueError(_compiled.NOT_POSITIVE)
    forbidden = _compiled.forbidden_cells(C)
    big = bool(forbidden.any())
    mark, cells = (_compiled.FORBIDDEN_INT64 if C.dtype == np.int64 else INF), C
    if big and C.dtype == object:  # above every reduced cost (module docstring)
        mark = 2 * (n + m) * max(map(abs, C[~forbidden].tolist()), default=0) + 1
        cells = np.where(forbidden, mark, C)
    cost = cells.tolist()
    tree = _Tree(n, m, cost, big, mark)
    row_minimum_start(a_list, b_list, cost, tree)
    ntol = -tol
    pos = iterations = 0
    while True:
        found = tree.block_search(ntol, rel_tol, pos, block)
        if found is None:
            break
        ei, ej, pos = found
        iterations += 1
        if iterations > limit:
            raise RuntimeError(_compiled.PIVOT_LIMIT.format(limit=limit, n=n, m=m))
        tree.pivot(ei, ej)
    X = np.zeros(C.shape, dtype=a.dtype)
    flows = tree.flows()
    X[tuple(zip(*flows))] = list(flows.values())
    return X, iterations, summary(a, b, C, X)
