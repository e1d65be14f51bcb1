"""Transportation simplex on a persistent spanning tree, over any ordered numbers.

This is the exact engine and the Python twin of the C kernel (_dense.c),
which is a port of it.  It runs unchanged on Python ints (rational mode:
solve_kantorovich scales weights and costs by the least common multiple of
their denominators, so every pivot is the one Fractions would take), and on
floats only when the C kernel is off (it cannot be built or loaded, or
FINITEOT_FORCE_PURE=1).  On any float problem, forbidden cells included, it
takes the C kernel's pivots one for one and returns the same plan, bit for
bit.

Forbidden cells (+inf cost) get a two-component lexicographic cost (M,
value), kept as two plain arrays: an integer M part, 1 on a forbidden cell
and 0 elsewhere, and a value part, 0 on a forbidden cell.  A unit of M
outweighs any value, so the optimum carries mass on a forbidden cell only
when no finite-cost feasible plan exists.

The basis is a spanning tree over the n row nodes 0..n-1 and the m column
nodes n..n+m-1, rooted at row 0 and kept across pivots as parent, depth and
children arrays.  The north-west corner start hangs one new node per cell,
so the start tree is built during that walk.  The edge from a node to its
parent is a basic cell, and a node's potential is c_ij - pot[parent] along
that edge (pot[row 0] = 0).  The entering cell's cycle is found by climbing
depths to the common ancestor.  After a pivot only the re-hung subtree
changes: its parent links are reversed along the cut path, and its depths
and potentials are recomputed top-down with the same c_ij - pot[parent], so
float potentials are bit-identical to a full recompute.

Pivot rule, the C kernel's: north-west corner start.  The entering cell
comes from a block search (LEMON's NetworkSimplex, which POT's emd uses):
the cells are scanned in row-major order in blocks of
max(64, floor(exp(log(n m) / 2))) cells, wrapping around, from where the
last scan stopped, and the most negative reduced cost in the first block
that holds a negative one enters.  The cell with the least (flow, (i, j))
among the cycle's decreasing cells leaves.  After more than 3 (n + m)
consecutive pivots with theta <= tol the rule becomes Bland's for good: the
first cell in row-major order with a negative reduced cost enters, which
terminates even under degeneracy.
"""

from __future__ import annotations

import math

from ..numerics import INF


def northwest_corner(a, b, tree):
    """Initial basic feasible solution, always n + m - 1 basic cells.

    Each cell hangs one new node on tree, the node that the walk last
    advanced to (column 0 first), so the start tree is built during the walk.
    """
    n, m = len(a), len(b)
    supply = list(a)
    demand = list(b)
    flow = {}
    i = j = 0
    node, up = n, 0  # cell (0, 0) hangs column 0 from row 0
    while True:
        q = supply[i] if supply[i] < demand[j] else demand[j]
        tree.hang(node, up)
        flow[(i, j)] = q
        supply[i] -= q
        demand[j] -= q
        if i == n - 1 and j == m - 1:
            break
        # advance one index per step so degenerate ties add zero-flow cells:
        # the row once its supply is used up, else the column once its
        # demand is, else the row while one is left
        if i < n - 1 and (supply[i] == 0 or demand[j] != 0 or j == m - 1):
            i += 1
            node, up = i, n + j
        else:
            j += 1
            node, up = n + j, i
    return flow


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

    def block_search(self, ntol, start, block, first=False):
        """Wraparound block search for the entering cell.

        Scans the cells in row-major order from position start (i * m + j),
        block cells at a time, until a block holds a non-basic cell whose
        reduced cost is negative: M part below 0, or M part 0 and value part
        below ntol.  Returns the least reduced cost in that block, (M, value)
        pairs compared lexicographically and the first cell winning ties, as
        (i, j, position after the block), or None when no cell qualifies.
        With first set, the first cell that qualifies is returned at once
        (the position is then of no use): Bland's rule, the same cell as
        blocks of one cell would give, without the cost of a block per cell.
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
                            if first:
                                return i, j, pos
                else:
                    bi, ui_big = big[i], pot_big[i]
                    for j in range(j0, stop):
                        d = bi[j] - ui_big - v_big[j]
                        if d <= best_big:
                            r = ci[j] - ui - v[j]
                            if (d < best_big or r < best) and j != up and parent[n + j] != i:
                                best_big, best, found = d, r, (i, j)
                                if first:
                                    return i, j, pos
            pos %= total
            if found is not None:
                return (*found, pos)
        return None


def transportation_simplex(a, b, cost, tol=0):
    """Minimize sum c_ij x_ij subject to row sums a and column sums b.

    cost entries are numbers of one ordered type, or +inf for a forbidden
    cell; a and b are positive-sum supplies/demands with equal totals.  A
    cell enters when its reduced cost has a negative M part, or a zero M
    part and a value part below -tol.  Returns (flow dict on basic cells,
    iterations).
    """
    n, m = len(a), len(b)
    big, value = _split_costs(cost)
    tree = _Tree(n, m, value, big)
    flow = northwest_corner(a, b, tree)
    ntol = -tol
    limit = 10000 + 200 * (n + m) * max(n, m)
    # floor(exp(log(n m) / 2)), not isqrt: the C kernel's block size
    block = max(64, int(math.exp(0.5 * math.log(n * m))))
    pos = stall = iterations = 0
    bland = False
    while True:
        if bland:
            found = tree.block_search(ntol, 0, n * m, first=True)
        else:
            found = tree.block_search(ntol, pos, block)
        if found is None:
            return flow, iterations
        ei, ej, pos = found
        entering = ei, ej
        iterations += 1
        if iterations > limit:
            raise RuntimeError(f"simplex exceeded {limit} pivots on a {n}x{m} problem")
        down, up = tree.cycle(ei, ej)
        theta = leaving = None
        for cell, node, endpoint in down:
            f = flow[cell]
            if theta is None or f < theta or (f == theta and cell < leaving):
                theta, leaving, lower, below = f, cell, node, endpoint
        for cell, _, _ in down:
            flow[cell] -= theta
        for cell in up:
            flow[cell] += theta
        flow[entering] = theta
        del flow[leaving]
        tree.pivot(ei, ej, lower, below)
        if theta <= tol:
            stall += 1
            if stall > 3 * (n + m):
                bland = True
        else:
            stall = 0
