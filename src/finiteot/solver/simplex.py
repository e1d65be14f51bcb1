"""Transportation simplex on a persistent spanning tree, over any ordered numbers.

This is the Python twin of the C kernel (_dense.c), which is a port of it,
and its fallback.  It runs unchanged on Python ints (rational mode:
solve_kantorovich scales weights and costs by the least common multiple of
their denominators, so every pivot is the one Fractions would take) and on
floats.  The C kernel's float build runs every float problem and its int64
build every rational problem whose scaled data fit in int64; this engine
runs the rational problems that do not fit, and every problem when the C
kernel is off (it cannot be built or loaded, or FINITEOT_FORCE_PURE=1).  On
any problem, forbidden cells included, it takes the C kernel's pivots one
for one and returns the same plan, bit for bit on floats.

Both engines keep one basis layout and one pivot walk; the header of
_dense.c describes the algorithm in full.  The basis is a spanning tree
over the row nodes 0..n-1 and the column nodes n..n+m-1, rooted at row 0:
each node's parent, depth, potentials (pot, and pot_big for the M part)
and the flow on the edge to its parent.  The C links each node's children
as first child and next sibling, this engine as a list.  The start is the
row-minimum rule (the start of Gottschlich & Schuhmacher's shortlist
method, PLoS ONE 2014), and the entering cell comes from a wraparound block
search (LEMON's NetworkSimplex, which POT's emd uses).  A pivot is one
climb from both ends of the entering cell to their common ancestor, which
picks theta and the leaving edge; the flows move along the two paths; the
cut path is re-hung, each flow moving one edge along it; and one refresh
recomputes the re-hung subtree's depths and potentials.  plan_summary
checks and prices the plan as fot_solve's last pass does.

The leaving rule keeps the tree strongly feasible (Cunningham, Math.
Programming 11, 1976; Ahuja, Magnanti & Orlin, Network Flows, section
11.6): every zero-flow edge hangs a row from its column, so a degenerate
pivot never repeats a basis.  A zero-weight column, or a zero-weight row 0,
has only zero-flow edges and so admits no strongly feasible tree: the
engines need positive weights, and both refuse a weight that is not
positive or not finite.

Forbidden cells (+inf cost) get a two-component lexicographic cost (M,
value), kept as two plain arrays: an integer M part, 1 on a forbidden cell
and 0 elsewhere, and a value part, 0 on a forbidden cell.  A unit of M
outweighs any value, so the optimum carries mass on a forbidden cell only
when no finite-cost feasible plan exists.  The tree counts its forbidden
basic cells; while there are none, every M potential is 0, and a float
problem prices the values alone on its costs, where +inf never enters.
"""

from __future__ import annotations

import math
from functools import partial
from operator import gt, lt

from ..numerics import FLOATS, INF


def row_minimum_start(a, b, cost, tree):
    """Initial basic feasible solution on tree; returns each basic cell's flow.

    Rows in index order ship their supply to their cheapest open column,
    the lowest index winning ties; +inf is above every finite cost, so a
    forbidden cell is used only when no finite one is open.  Each shipment
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
    tree.grow(cells, cost)
    return tree.flows()


def _split_costs(cost):
    """(M part or None when no cell is forbidden, value part), in one scan."""
    big = [[1 if c == INF else 0 for c in row] for row in cost]
    if not any(map(any, big)):
        return None, cost
    value = [[0 if f else c for c, f in zip(row, flags)] for row, flags in zip(cost, big)]
    return big, value


class _Tree:
    """Spanning-tree basis rooted at row 0: per node its parent, depth,
    children, potentials for each cost part, and the flow to its parent."""

    def __init__(self, n, m, value, big):
        self.n = n
        self.m = m
        self.value = value
        self.big = big
        size = n + m
        self.parent = [-1] * size
        self.depth = [0] * size
        self.children = [[] for _ in range(size)]
        self.pot = [0] * size
        self.pot_big = [0] * size if big is not None else None
        self.flow = [0] * size
        self.basic_big = 0  # the forbidden basic cells, counted at grow and each pivot

    def grow(self, cells, cost):
        """Root the tree at row 0 on a forest of cells, with their flows.

        cells maps each cell of the forest to its flow, and every column
        must lie on one.  Row 0's component comes first, then each further
        one in the order of its lowest row, which hangs from the cheapest
        column already in the tree (costs compared as in the start) by a
        zero-flow cell.
        """
        n, m = self.n, self.m
        near = [[] for _ in range(n + m)]
        for (i, j), f in cells.items():
            near[i].append((n + j, f))
            near[n + j].append((i, f))
        placed = [False] * (n + m)
        for i in range(n):
            if placed[i]:
                continue
            placed[i] = True
            if i:
                row = cost[i]
                j = min((j for j in range(m) if placed[n + j]), key=row.__getitem__)
                self.hang(i, n + j, 0)
            stack = [i]
            while stack:
                node = stack.pop()
                for other, f in near[node]:
                    if not placed[other]:
                        placed[other] = True
                        self.hang(other, node, f)
                        stack.append(other)
        if self.big is not None:
            self.basic_big = sum(self.big[i][j] for i, j in self.flows())

    def hang(self, node, up, flow):
        """Make the leaf node a child of up, with its flow, depth and potentials."""
        self.parent[node] = up
        self.children[up].append(node)
        self.flow[node] = flow
        self._refresh(node)

    def flows(self):
        """Each basic cell's flow, as a dict keyed by (row, column)."""
        n = self.n
        return {
            (node, up - n) if node < n else (up, node - n): f
            for node, (up, f) in enumerate(zip(self.parent, self.flow))
            if node
        }

    def _refresh(self, top):
        """Recompute depth and potentials of top and everything below it."""
        n, parent, depth, children = self.n, self.parent, self.depth, self.children
        pot, value, big, pot_big = self.pot, self.value, self.big, self.pot_big
        stack = [top]
        while stack:
            node = stack.pop()
            up = parent[node]
            i, j = (node, up - n) if node < n else (up, node - n)
            depth[node] = depth[up] + 1
            pot[node] = value[i][j] - pot[up]
            if big is not None:
                pot_big[node] = big[i][j] - pot_big[up]
            stack.extend(children[node])

    def pivot(self, ei, ej):
        """Bring the cell (ei, ej) into the basis, as fot_solve does.

        Edges are named by their lower node.  One climb from both ends to
        their common ancestor picks theta and the leaving edge: of the
        decreasing edges (below a row on the row's side, below a column on
        the column's side) with the least flow, the last one met walking
        from the ancestor down to ei, across the cell and up from its
        column, so a column-side edge wins a tie.  The flows move by theta
        along both paths.  Then below, the cell's end under the leaving
        edge, hangs from the other end, the path from it up to the leaving
        edge reverses with each flow moving one edge along, and the
        re-hung subtree is refreshed.
        """
        n, parent, depth, children, flow = self.n, self.parent, self.depth, self.children, self.flow
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
        if self.big is not None:
            up = parent[leave]
            i, j = (leave, up - n) if leave < n else (up, leave - n)
            self.basic_big += self.big[ei][ej] - self.big[i][j]
        for x in ei, n + ej:  # from each end, an edge below a node of its kind decreases
            side = x < n
            while x != apex:
                if (x < n) == side:
                    flow[x] -= theta
                else:
                    flow[x] += theta
                x = parent[x]
        prev = n + ej if below == ei else ei
        node, carried = below, theta
        while True:
            up, f = parent[node], flow[node]
            children[up].remove(node)
            parent[node], flow[node] = prev, carried
            children[prev].append(node)
            if node == leave:
                break
            prev, node, carried = node, up, f
        self._refresh(below)

    def block_search(self, ntol, rel, start, block, marked):
        """Wraparound block search for the entering cell.

        Scans the cells in row-major order from position start (i * m + j),
        block cells at a time, until a block holds a non-basic cell whose
        reduced cost is negative: M part below 0, or M part 0 and value part
        r = c - u - v below ntol and, when rel is not 0, below
        -rel * (|c| + |u| + |v|), summed as _dense.c's BEYOND sums it.
        Returns the least reduced cost in that block, (M, value) pairs
        compared lexicographically and the first cell winning ties, as
        (i, j, position after the block), or None when no cell qualifies.

        The values alone are priced when no cell is forbidden, and on
        marked, the costs with their +inf cells, while no forbidden cell is
        basic: every M potential is then 0, and +inf - u - v never enters.
        """
        n, m, parent, pot, pot_big = self.n, self.m, self.parent, self.pot, self.pot_big
        value, big = self.value, self.big
        v = pot[n:]
        if big is not None and marked is not None and not self.basic_big:
            value, big = marked, None
        v_big = pot_big[n:] if big is not None else None
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
                ci, ui = value[i], pot[i]
                up = parent[i] - n  # column of the basic cell to row i's parent
                if big is None:
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
                    bi, ui_big = big[i], pot_big[i]
                    for j in range(j0, stop):
                        d = bi[j] - ui_big - v_big[j]
                        if d <= best_big:
                            r = ci[j] - ui - v[j]
                            # the value part decides entry only when the M part is 0
                            enters = d < best_big or r < best and (
                                d < 0 or not rel or r < -(rel * (abs(ci[j]) + abs(ui) + abs(v[j])))
                            )
                            if enters and j != up and parent[n + j] != i:
                                best_big, best, found = d, r, (i, j)
            pos %= total
            if found is not None:
                return (*found, pos)
        return None


def plan_summary(a, b, cost, flow):
    """fot_solve's summary of the plan flow (basic cells to flows): the same
    numbers from the same sums in the same order (summarize in _dense.c).

    Every forbidden cell counts as swept to 0.  Returns [the mass on
    forbidden cells, the price (the sum of c x over the other cells with
    x != 0, +inf when a term is infinite), the worst row gap and the worst
    column gap |sum of the line - its weight|, the least cell].  Every sum
    runs left to right from a zero of the weights' type, in row-major order
    over the basic cells: the cells off the basis hold 0, which changes no
    sum.  A NaN gap or cell makes its entry NaN (not x >= least, as
    not g <= worst, holds for a NaN, and a sum with a NaN is NaN).  Written
    with operators, not calls, so that it makes no call per cell.
    """
    n, m = len(a), len(b)
    zero = type(a[0])()  # 0.0 or 0, as the C build's num
    mass = price = zero
    infinite = False
    rows, cols = [zero] * n, [zero] * m
    least = zero if len(flow) < n * m else INF  # a cell off the basis holds 0
    for (i, j), x in sorted(flow.items()):
        c = cost[i][j]
        if c == INF:
            mass += x
            x = zero
        elif x != 0:
            t = c * x
            infinite |= t == INF or t == -INF
            price += t
        rows[i] += x
        cols[j] += x
        if not x >= least:
            least = x if x < least else x + least
    gaps = []
    for sums, weights in (rows, a), (cols, b):
        worst = zero
        for s, w in zip(sums, weights):
            g = s - w
            if g < 0:
                g = -g
            if not g <= worst:
                worst = g if g > worst else g + worst
        gaps.append(worst)
    return [mass, INF if infinite else price, *gaps, least]


def transportation_simplex(a, b, cost, tol=0, rel_tol=0):
    """Minimize sum c_ij x_ij subject to row sums a and column sums b.

    cost entries are numbers of one ordered type, or +inf for a forbidden
    cell; a and b are positive finite supplies/demands with equal totals (a
    zero weight admits no strongly feasible start, so solve_kantorovich
    passes only the support), else ValueError, as from the C kernel.  A
    cell enters when its reduced cost has a negative M part, or a zero M
    part and a value part r = c - u - v below -tol and, when rel_tol is not
    0 (floats only), below -rel_tol * (|c| + |u| + |v|).  Returns (flow
    dict on basic cells, iterations).
    """
    n, m = len(a), len(b)
    weights = [*a, *b]  # as fot_solve refuses them, with no call per weight
    if not (all(map(partial(lt, 0), weights)) and all(map(partial(gt, INF), weights))):
        raise ValueError("the engines need positive weights, none infinite; pass the support")
    big, value = _split_costs(cost)
    tree = _Tree(n, m, value, big)
    row_minimum_start(a, b, cost, tree)
    # a float problem may price its +inf cells as they are, as the C float
    # build does; Python ints keep the (M, value) scan, as the int64 build
    # does, and +inf minus an int beyond float range raises OverflowError
    marked = cost if isinstance(a[0], FLOATS) else None
    ntol = -tol
    limit = 10000 + 200 * (n + m) * max(n, m)
    # floor(exp(log(n m) / 2)), not isqrt: the C kernel's block size
    block = max(64, int(math.exp(0.5 * math.log(n * m))))
    pos = iterations = 0
    while True:
        found = tree.block_search(ntol, rel_tol, pos, block, marked)
        if found is None:
            return tree.flows(), iterations
        ei, ej, pos = found
        iterations += 1
        if iterations > limit:
            raise RuntimeError(f"simplex exceeded {limit} pivots on a {n}x{m} problem")
        tree.pivot(ei, ej)
