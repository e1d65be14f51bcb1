"""Transportation simplex on a persistent spanning tree, over any ordered numbers.

This is the exact engine.  It runs unchanged on Python ints (rational mode:
solve_kantorovich scales weights and costs by the least common multiple of
their denominators, so every pivot is the one Fractions would take) and on
floats (small problems, and problems with forbidden cells).

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

Pivot rule: north-west corner start, the first cell in row-major order with
a negative reduced cost enters (Bland's rule, which terminates even under
degeneracy), and the cell with the least (flow, (i, j)) among the cycle's
decreasing cells leaves.
"""

from __future__ import annotations

from ..numerics import is_inf


def northwest_corner(a, b):
    """Initial basic feasible solution; always n + m - 1 basic cells."""
    n, m = len(a), len(b)
    supply = list(a)
    demand = list(b)
    flow = {}
    basis = []
    i = j = 0
    while True:
        q = supply[i] if supply[i] < demand[j] else demand[j]
        basis.append((i, j))
        flow[(i, j)] = q
        supply[i] -= q
        demand[j] -= q
        if i == n - 1 and j == m - 1:
            break
        # advance one index per step so degenerate ties add zero-flow cells
        if supply[i] == 0 and i < n - 1:
            i += 1
        elif demand[j] == 0 and j < m - 1:
            j += 1
        elif i < n - 1:
            i += 1
        else:
            j += 1
    return flow, basis


def _split_costs(cost):
    """(M part or None when no cell is forbidden, value part)."""
    value = [[0 if is_inf(c) else c for c in row] for row in cost]
    if not any(is_inf(c) for row in cost for c in row):
        return None, value
    big = [[1 if is_inf(c) else 0 for c in row] for row in cost]
    return big, value


class _Tree:
    """Spanning-tree basis rooted at row 0, with potentials for each cost part."""

    def __init__(self, n, m, basis, value, big):
        self.n = n
        self.value = value
        self.big = big
        size = n + m
        self.parent = [-1] * size
        self.depth = [0] * size
        self.children = [[] for _ in range(size)]
        self.pot = [0] * size
        self.pot_big = [0] * size if big is not None else None
        adj = [[] for _ in range(size)]
        for i, j in basis:
            adj[i].append(n + j)
            adj[n + j].append(i)
        seen = [False] * size
        seen[0] = True
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    self.parent[nxt] = node
                    self.children[node].append(nxt)
                    stack.append(nxt)
        self._refresh(self.children[0])

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

    def entering(self, ntol):
        """First non-basic cell in row-major order whose reduced cost is
        negative: M part below 0, or M part 0 and value part below ntol."""
        n, parent, pot, pot_big = self.n, self.parent, self.pot, self.pot_big
        v = pot[n:]
        m = len(v)
        if self.big is None:
            for i, ci in enumerate(self.value):
                ui = pot[i]
                for j in range(m):
                    if ci[j] - ui - v[j] < ntol and parent[i] != n + j and parent[n + j] != i:
                        return i, j
            return None
        v_big = pot_big[n:]
        for i, (ci, bi) in enumerate(zip(self.value, self.big)):
            ui = pot[i]
            ui_big = pot_big[i]
            for j in range(m):
                d = bi[j] - ui_big - v_big[j]
                if (d < 0 if d else ci[j] - ui - v[j] < ntol) and (
                    parent[i] != n + j and parent[n + j] != i
                ):
                    return i, j
        return None


def transportation_simplex(a, b, cost, tol=0, max_iter=None):
    """Minimize sum c_ij x_ij subject to row sums a and column sums b.

    cost entries are numbers of one ordered type, or +inf for a forbidden
    cell; a and b are positive-sum supplies/demands with equal totals.  A
    cell enters when its reduced cost has a negative M part, or a zero M
    part and a value part below -tol.  Returns (flow dict on basic cells,
    iterations).
    """
    n, m = len(a), len(b)
    flow, basis = northwest_corner(a, b)
    big, value = _split_costs(cost)
    tree = _Tree(n, m, basis, value, big)
    ntol = -tol
    if max_iter is None:
        max_iter = 10000 + 200 * (n + m) * max(n, m)
    iterations = 0
    while True:
        entering = tree.entering(ntol)
        if entering is None:
            return flow, iterations
        iterations += 1
        if iterations > max_iter:
            raise RuntimeError(
                f"simplex exceeded {max_iter} pivots on a {n}x{m} problem"
            )
        down, up = tree.cycle(*entering)
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
        tree.pivot(*entering, lower, below)


def flow_to_matrix(flow, n, m, zero=0):
    mat = [[zero] * m for _ in range(n)]
    for (i, j), f in flow.items():
        mat[i][j] = f
    return mat
