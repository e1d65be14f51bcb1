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

Forbidden cells (+inf cost) get a two-component lexicographic cost (M,
value), kept as two plain arrays: an integer M part, 1 on a forbidden cell
and 0 elsewhere, and a value part, 0 on a forbidden cell.  A unit of M
outweighs any value, so the optimum carries mass on a forbidden cell only
when no finite-cost feasible plan exists.

The basis is a spanning tree over the n row nodes 0..n-1 and the m column
nodes n..n+m-1, rooted at row 0 and kept across pivots as parent, depth and
children arrays.  The edge from a node to its parent is a basic cell, and a
node's potential is c_ij - pot[parent] along that edge (pot[row 0] = 0).
The entering cell's cycle is found by climbing depths to the common
ancestor.  After a pivot only the re-hung subtree changes: its parent links
are reversed along the cut path, and its depths and potentials are
recomputed top-down with the same c_ij - pot[parent], so float potentials
are bit-identical to a full recompute.

Start, the C kernel's row-minimum rule (the start of Gottschlich &
Schuhmacher's shortlist method, PLoS ONE 2014): rows in index order ship
their supply to their cheapest open column, lowest index first on ties,
and the last row takes every column's remaining demand.  Each shipment
closes its row or its column, so the shipped cells form a forest, and each
carries positive flow.  _Tree.grow roots it at row 0 and hangs every
further component, by its lowest row, from a column already in the tree
through a zero-flow cell.

Pivot rule, the C kernel's.  The entering cell comes from a block search
(LEMON's NetworkSimplex, which POT's emd uses): the cells are scanned in
row-major order in blocks of max(64, floor(exp(log(n m) / 2))) cells,
wrapping around, from where the last scan stopped, and the most negative
reduced cost in the first block that holds a negative one enters.  The tree
is kept strongly feasible (Cunningham, Math. Programming 11, 1976; Ahuja,
Magnanti & Orlin, Network Flows, section 11.6): every edge with zero flow
hangs a row from its column, so each node can send a little flow up to the
root.  Among the cycle's decreasing cells with the least flow, the last one
met on the walk from the common ancestor down the row side to the entering
row, across the entering cell and up the column side leaves: the
column-side one nearest the ancestor if there is one, else the row-side one
nearest the entering row.  That keeps the tree strongly feasible, and a
degenerate pivot then never repeats a basis, so the rule terminates without
an anti-cycling switch.  The start is strongly feasible by construction:
within a component every edge carries positive flow, and the only zero-flow
edges are those that join the components, each of which hangs a row from
its column.  With positive weights every column gets a positive cell, so
every component has a row to hang by.  A zero-weight column, or a
zero-weight row 0, has only zero-flow edges and so admits no strongly
feasible tree: the engines need positive weights.
"""

from __future__ import annotations

import math

from ..numerics import INF


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
    return tree.grow(cells, cost)


def _split_costs(cost):
    """(M part or None when no cell is forbidden, value part), in one scan."""
    big = [[1 if c == INF else 0 for c in row] for row in cost]
    if not any(map(any, big)):
        return None, cost
    value = [[0 if f else c for c, f in zip(row, flags)] for row, flags in zip(cost, big)]
    return big, value


class _Tree:
    """Spanning-tree basis rooted at row 0, with potentials for each cost part."""

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

    def grow(self, cells, cost):
        """Root the tree at row 0 on a forest of cells; returns their flows.

        cells maps each cell of the forest to its flow, and every column
        must lie on one.  Row 0's component comes first, then each further
        one in the order of its lowest row, which hangs from the cheapest
        column already in the tree (costs compared as in the start) by a
        zero-flow cell, added to the returned flows.
        """
        n, m = self.n, self.m
        near = [[] for _ in range(n + m)]
        for i, j in cells:
            near[i].append(n + j)
            near[n + j].append(i)
        flow = dict(cells)
        placed = [False] * (n + m)
        for i in range(n):
            if placed[i]:
                continue
            placed[i] = True
            if i:
                row = cost[i]
                j = min((j for j in range(m) if placed[n + j]), key=row.__getitem__)
                self.hang(i, n + j)
                flow[(i, j)] = 0
            stack = [i]
            while stack:
                node = stack.pop()
                for other in near[node]:
                    if not placed[other]:
                        placed[other] = True
                        self.hang(other, node)
                        stack.append(other)
        return flow

    def hang(self, node, up):
        """Make the leaf node a child of up, with its depth and potentials."""
        self.parent[node] = up
        self.children[up].append(node)
        self._refresh((node,))

    def _refresh(self, tops):
        """Recompute depth and potentials of tops and everything below them."""
        n, parent, depth, children = self.n, self.parent, self.depth, self.children
        pot, value, big, pot_big = self.pot, self.value, self.big, self.pot_big
        stack = list(tops)
        while stack:
            node = stack.pop()
            up = parent[node]
            i, j = (node, up - n) if node < n else (up, node - n)
            depth[node] = depth[up] + 1
            pot[node] = value[i][j] - pot[up]
            if big is not None:
                pot_big[node] = big[i][j] - pot_big[up]
            stack.extend(children[node])

    def cycle(self, ei, ej):
        """Cells of the cycle closed by (ei, ej), split by sign.

        Returns (decreasing, increasing).  An increasing entry is a cell; a
        decreasing one is (cell, lower node, entering endpoint below it),
        where the cell is the tree edge from the lower node to its parent.
        Going round the cycle from the entering cell the edges alternate in
        sign: below the common ancestor, an edge on the row's side decreases
        when its lower node is a row, and one on the column's side when its
        lower node is a column.
        """
        n, parent, depth = self.n, self.parent, self.depth
        x, y = ei, n + ej
        down, up = [], []
        while x != y:
            if depth[x] >= depth[y]:
                above = parent[x]
                if x < n:
                    down.append(((x, above - n), x, ei))
                else:
                    up.append((above, x - n))
                x = above
            else:
                above = parent[y]
                if y < n:
                    up.append((y, above - n))
                else:
                    down.append(((above, y - n), y, n + ej))
                y = above
        return down, up

    def pivot(self, ei, ej, lower, endpoint):
        """Add (ei, ej) and drop the edge from lower to its parent.

        endpoint is the end of (ei, ej) inside lower's subtree: it hangs
        from the other end, and the path from it up to lower reverses.
        """
        n, parent, children = self.n, self.parent, self.children
        other = n + ej if endpoint == ei else ei
        children[parent[lower]].remove(lower)
        prev, node = other, endpoint
        while True:
            above = parent[node]
            if node != lower:
                children[above].remove(node)
            parent[node] = prev
            children[prev].append(node)
            if node == lower:
                break
            prev, node = node, above
        self._refresh((endpoint,))

    def block_search(self, ntol, start, block):
        """Wraparound block search for the entering cell.

        Scans the cells in row-major order from position start (i * m + j),
        block cells at a time, until a block holds a non-basic cell whose
        reduced cost is negative: M part below 0, or M part 0 and value part
        below ntol.  Returns the least reduced cost in that block, (M, value)
        pairs compared lexicographically and the first cell winning ties, as
        (i, j, position after the block), or None when no cell qualifies.
        """
        n, m, parent, pot, pot_big = self.n, self.m, self.parent, self.pot, self.pot_big
        value, big = self.value, self.big
        v = pot[n:]
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
                        if r < best and j != up and parent[n + j] != i:
                            best, found = r, (i, j)
                else:
                    bi, ui_big = big[i], pot_big[i]
                    for j in range(j0, stop):
                        d = bi[j] - ui_big - v_big[j]
                        if d <= best_big:
                            r = ci[j] - ui - v[j]
                            if (d < best_big or r < best) and j != up and parent[n + j] != i:
                                best_big, best, found = d, r, (i, j)
            pos %= total
            if found is not None:
                return (*found, pos)
        return None


def transportation_simplex(a, b, cost, tol=0):
    """Minimize sum c_ij x_ij subject to row sums a and column sums b.

    cost entries are numbers of one ordered type, or +inf for a forbidden
    cell; a and b are positive supplies/demands with equal totals (a zero
    weight admits no strongly feasible start, so solve_kantorovich passes
    only the support).  A cell enters when its reduced cost has a negative
    M part, or a zero M part and a value part below -tol.  Returns (flow
    dict on basic cells, iterations).
    """
    n, m = len(a), len(b)
    big, value = _split_costs(cost)
    tree = _Tree(n, m, value, big)
    flow = row_minimum_start(a, b, cost, tree)
    ntol = -tol
    limit = 10000 + 200 * (n + m) * max(n, m)
    # floor(exp(log(n m) / 2)), not isqrt: the C kernel's block size
    block = max(64, int(math.exp(0.5 * math.log(n * m))))
    pos = iterations = 0
    while True:
        found = tree.block_search(ntol, pos, block)
        if found is None:
            return flow, iterations
        ei, ej, pos = found
        entering = ei, ej
        iterations += 1
        if iterations > limit:
            raise RuntimeError(f"simplex exceeded {limit} pivots on a {n}x{m} problem")
        down, up = tree.cycle(ei, ej)
        theta = None
        for cell, node, endpoint in down:
            f = flow[cell]
            # a column-side tie wins: it is met later on the walk from the apex
            if theta is None or f < theta or (f == theta and endpoint != ei):
                theta, leaving, lower, below = f, cell, node, endpoint
        for cell, _, _ in down:
            flow[cell] -= theta
        for cell in up:
            flow[cell] += theta
        flow[entering] = theta
        del flow[leaving]
        tree.pivot(ei, ej, lower, below)
