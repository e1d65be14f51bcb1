/*
 * Transportation simplex on a persistent spanning tree: the compiled kernel.
 *
 * One algorithm, built twice from this file into one library, over two
 * number types:
 *
 *   fot_solve_dense  doubles, a forbidden cell costing +inf.  It runs every
 *                    float problem while it is loaded.
 *   fot_solve_exact  int64_t, a forbidden cell marked INT64_MAX.  It runs
 *                    the rational problems whose scaled weights and costs
 *                    fit, as one function of the caller decides
 *                    (solver._exact_input, which also marks the forbidden
 *                    cells and floors tol): the total supply is below
 *                    2^62, (n + m) max|finite cost| below 2^60 and |tol|
 *                    below 2^60.  A potential is a signed sum of at most
 *                    n + m costs and a reduced cost adds two of them, so no
 *                    sum overflows and no finite cost reaches the mark.
 *
 * Both take balanced supplies and demands and return the plan, the pivot
 * count and the plan's summary: the engine checks and prices its own plan,
 * in one row-major pass over it (summarize, below), and the caller decides
 * feasibility, validity and the cost from those five numbers with no pass
 * of its own.  They are a port of transportation_simplex in simplex.py, the
 * exact twin and the fallback without a compiler: on the same input both
 * take the same pivots and return the same plan (bit for bit on floats),
 * and simplex.plan_summary gives the same summary, so a change here must
 * be made there too.  Loaded through ctypes by
 * finiteot.solver._compiled, which builds it on first import with the
 * system C compiler; it needs no Python or numpy headers.  Each array
 * comes as the address of its ndarray object and the kernel reads the
 * data pointer stored at a fixed offset from it (data, below), so the
 * caller builds no Python object to pass an array.  A call allocates
 * one block for all its working arrays and frees it once.  The file
 * includes itself once per number type: the part under FOT_NUM below is
 * the algorithm, written once over num.
 *
 * The basis is a spanning tree over the row nodes 0..n-1 and the column
 * nodes n..n+m-1, rooted at row 0, held as each node's parent and depth,
 * the flow and the cost c_ij on the edge to its parent, and a thread: a
 * preorder of the tree closed into a cycle (thread), its inverse (rev),
 * and the last node of each node's subtree in it (last), the augmented
 * threaded index of network simplex codes.  A subtree is then one stretch
 * of the thread, and the edge's cost, kept beside its flow, spares a read
 * of C per node when potentials are derived.  A node's potential is
 * c_ij - pot[parent] along that edge, in two parts: a forbidden cell costs
 * (M, value) = (1, 0), any other cell (0, c_ij), and a unit of M outweighs
 * any value.  One scan of C at the start finds whether any cell
 * is forbidden.  When none is, every M part is 0, so the M potentials stay
 * 0, (d < best_big || r < best) reduces to r < best, and the kernel derives
 * and prices the value part alone, as simplex.py does when _split_costs
 * returns no M part: the same entering cells, pivots and plan.  The float
 * build also prices values alone while no forbidden cell is basic, which
 * a count of the forbidden basic cells, kept at grow and at each pivot,
 * tells: every M potential is then 0, a forbidden cell's reduced cost is
 * (1, value) and never enters, and its value part c - u - v, read as
 * it is, is +inf and never enters either.  The int64 build keeps the
 * (M, value) scan whenever a cell is forbidden: INT64_MAX - u - v would
 * overflow.
 *
 * Start, the row-minimum rule: rows in index order ship their supply to
 * their cheapest open column (a forbidden cell only when no finite one is
 * open: the mark is above every finite cost, so comparing costs compares
 * (M, value) pairs), the lowest column index winning ties.  Each shipment,
 * min(row rest, column rest) > 0, closes its row or its column, so the
 * shipped cells form a forest.  The last row ships every open column's
 * whole remaining demand, so float dust ends there and every column has a
 * positive cell.  grow then roots the tree at row 0: row 0's component
 * first, and each further component, in the order of its lowest row, hangs
 * that row from the cheapest column already in the tree by a zero-flow
 * cell.  Components split where a row and a column close at once, and a
 * row with dust left and no open column is one on its own.  Every other
 * edge carries positive flow, so the start is strongly feasible (below).
 *
 * Pivot rule: the cells are scanned in row-major order in blocks of
 * max(64, floor(exp(log(n m) / 2))) cells, wrapping around, from where the
 * last scan stopped, and the least (M, value) reduced cost in the first
 * block that holds a negative one enters.  Negative means a negative M
 * part, or an M part of 0 and a value part r below -tol; a float solve
 * given no tol passes tol 0 and rel 1e-9, and its r must also lie below
 * -rel (|c| + |u| + |v|), beyond the few units in the last place that
 * rounding can leave in c - u - v.  One absolute tolerance scaled by the
 * largest cost hid every improving cell of small cost when the costs
 * spanned many orders of magnitude.  The cycle is found by climbing
 * depths to the common ancestor.  The tree stays strongly feasible (every
 * zero-flow edge hangs a row from its column): of the decreasing cells with
 * the least flow, the last one met walking from the ancestor down to the
 * entering row, across the entering cell and up from its column leaves, so
 * a column-side cell wins a tie.  Degenerate pivots then never cycle, with
 * no second rule.  The path from the entering cell's end below the leaving
 * edge up to that edge reverses, each flow and cost moving one edge along
 * it, the re-hung subtree moves in the thread to just after its new
 * parent, and only it gets new depths and potentials, derived along the
 * thread.  A weight that is not positive, or is infinite, is refused (see
 * simplex.py).
 */

#ifndef FOT_NUM

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define FOT_PIVOT_LIMIT (-1)
#define FOT_NO_MEMORY (-2)
#define FOT_NOT_POSITIVE (-3)

/* FOT_SUM adds up the price, INFINITE(t) says whether a term of it, or a
 * weight, is infinite, and PRICE is the price from the sum.  An int64
 * price adds up modulo 2^64, which is exact wherever the true price fits
 * in int64: the caller takes it only where it provably does.  BEYOND
 * says whether a reduced cost r = c - u - v with r < -tol lies beyond the
 * rounding error of its sum: r < -rel (|c| + |u| + |v|).  It is tested
 * only where r < -tol <= 0, so it holds when rel is 0, and the int64
 * build, whose sums are exact, takes it as true.  RARELY marks a test
 * that seldom holds: a scan's entering test holds about twice per pivot
 * among thousands of cells, and with the hint the compiler keeps the
 * entering code out of the scan loop (a 500x500 float solve ran 2-5%
 * faster than without it, with the same pivots) */
#if defined(__GNUC__)
#define RARELY(x) __builtin_expect(!!(x), 0)
#else
#define RARELY(x) (x)
#endif

/* the data pointer of the ndarray whose object is at obj: the pointer
 * stored at offset at from it, where PyArray_DATA reads it (at is the
 * offset _compiled._data_offset finds; without one the caller passes the
 * address of a stored data pointer and 0) */
static void *data(const void *obj, int64_t at)
{
    return *(void *const *)((const char *)obj + at);
}

/* PRICES_MARK says whether the value scan may price a forbidden cell as
 * it is: in the float build c - u - v is +inf there and never enters,
 * where the int64 build's INT64_MAX - u - v would overflow */
#define FOT_NUM double
#define FOT_SUM double
#define FOT(name) name##_dense
#define FORBIDDEN(c) ((c) == INFINITY)
#define PRICES_MARK 1
#define INFINITE(t) ((t) == INFINITY || (t) == -INFINITY)
#define PRICE(sum, infinite) ((infinite) ? INFINITY : (sum))
#define BEYOND(r, c, u, v) ((r) < -(rel * ((fabs(c) + fabs(u)) + fabs(v))))
#include "_dense.c"
#undef FOT_NUM
#undef FOT_SUM
#undef FOT
#undef FORBIDDEN
#undef PRICES_MARK
#undef INFINITE
#undef PRICE
#undef BEYOND

#define FOT_NUM int64_t
#define FOT_SUM uint64_t
#define FOT(name) name##_exact
#define FORBIDDEN(c) ((c) == INT64_MAX)
#define PRICES_MARK 0
#define INFINITE(t) 0
#define PRICE(sum, infinite) ((int64_t)(sum))
#define BEYOND(r, c, u, v) 1
#include "_dense.c"

#else /* one build over FOT_NUM numbers; FOT names its functions */

#define num FOT_NUM
#define Tree FOT(Tree)
#define edge_cell FOT(edge_cell)
#define derive FOT(derive)
#define rehang FOT(rehang)
#define refresh FOT(refresh)
#define grow FOT(grow)
#define worse FOT(worse)
#define summarize FOT(summarize)

typedef struct {
    int64_t n, m;
    int big; /* some cell is forbidden: keep the M potentials pot_big */
    int64_t basic_big; /* the forbidden basic cells, counted at grow and each pivot */
    const num *C;
    int64_t *parent, *depth, *thread, *rev, *last, *pot_big;
    num *pot, *flow, *cost; /* flow and C's cost on the edge to the parent */
} Tree;

/* row-major index of the cell on the edge from node to its parent up */
static int64_t edge_cell(const Tree *t, int64_t node, int64_t up)
{
    return node < t->n ? node * t->m + up - t->n : up * t->m + node - t->n;
}

/* depth and potentials of node, from its parent's and its edge's cost */
static void derive(Tree *t, int64_t node)
{
    int64_t up = t->parent[node];
    num c = t->cost[node];
    int forbidden;
    t->depth[node] = t->depth[up] + 1;
    if (!t->big) {
        t->pot[node] = c - t->pot[up];
        return;
    }
    forbidden = FORBIDDEN(c);
    t->pot[node] = (forbidden ? 0 : c) - t->pot[up];
    t->pot_big[node] = forbidden - t->pot_big[up];
}

/* derive top and every node below it, along the thread: a preorder meets
 * each parent before its children */
static void refresh(Tree *t, int64_t top)
{
    int64_t node, stop = t->thread[t->last[top]];
    for (node = top; node != stop; node = t->thread[node])
        derive(t, node);
}

/*
 * Build the tree, rooted at row 0, on a forest of count cells (row-major
 * indices cell, flows amount): row 0's component first, then each further
 * one in the order of its lowest row, which hangs from the cheapest column
 * already in the tree by a zero-flow cell.  Every column must lie on a
 * cell.  A component is searched depth first from a stack, and the order
 * its nodes leave the stack is a preorder of it: the thread takes them in
 * that order, after the column the component hangs from.  head, next and
 * stack are scratch space for n + m, 2 count and n + m entries.
 */
static void grow(Tree *t, int64_t count, const int64_t *cell, const num *amount,
                 int64_t *head, int64_t *next, int64_t *stack)
{
    int64_t n = t->n, m = t->m, e, h, i, j, best, node, other, top, prev, after;
    const num *row;

    for (node = 0; node < n + m; node++) {
        head[node] = -1;
        t->depth[node] = -1; /* not in the tree yet */
    }
    /* half-edge 2 e leads from cell e's row to its column, 2 e + 1 back */
    for (e = 0; e < count; e++) {
        i = cell[e] / m;
        j = n + cell[e] % m;
        next[2 * e] = head[i];
        head[i] = 2 * e;
        next[2 * e + 1] = head[j];
        head[j] = 2 * e + 1;
    }
    t->thread[0] = 0;
    for (i = 0; i < n; i++) {
        if (t->depth[i] >= 0)
            continue;
        if (i == 0) {
            t->parent[0] = -1;
            t->depth[0] = t->pot_big[0] = 0;
            t->pot[0] = 0;
            prev = 0;
        } else {
            /* a forbidden cell is above every finite one, as in the start */
            row = t->C + i * m;
            best = -1;
            for (j = 0; j < m; j++)
                if (t->depth[n + j] >= 0 && (best < 0 || row[j] < row[best]))
                    best = j;
            t->parent[i] = prev = n + best;
            t->cost[i] = row[best];
            derive(t, i);
            t->flow[i] = 0;
        }
        after = t->thread[prev];
        stack[0] = i;
        top = 1;
        while (top > 0) {
            node = stack[--top];
            t->thread[prev] = node;
            prev = node;
            for (h = head[node]; h >= 0; h = next[h]) {
                e = h >> 1;
                other = h & 1 ? cell[e] / m : n + cell[e] % m;
                if (t->depth[other] >= 0)
                    continue; /* node's parent */
                t->parent[other] = node;
                t->cost[other] = t->C[cell[e]];
                derive(t, other);
                t->flow[other] = amount[e];
                stack[top++] = other;
            }
        }
        t->thread[prev] = after;
    }
    /* rev inverts the thread; back along it, a node's last child in
     * preorder comes first, and the node's subtree ends where that child's
     * does */
    t->basic_big = 0;
    for (node = 0; node < n + m; node++) {
        t->rev[t->thread[node]] = t->last[node] = node;
        if (node > 0)
            t->basic_big += FORBIDDEN(t->cost[node]);
    }
    for (node = t->rev[0]; node != 0; node = t->rev[node]) {
        other = t->parent[node];
        if (t->last[other] == other)
            t->last[other] = t->last[node];
    }
}

/*
 * The pivot's tree update: below, the entering cell's end under the
 * leaving edge, hangs from v_in, the cell's other end, and the stem, the
 * path from below up to leave, reverses, each flow and cost moving one
 * edge along it and below's edge carrying theta and c_in, the entering
 * cell's cost.  The moved subtree goes into the thread right after v_in,
 * and last changes on the paths from v_in and from v_out, leave's old
 * parent, up to apex, the cycle's top.  This is updateTreeStructure of
 * LEMON's NetworkSimplex (Kovacs, Optim. Methods Softw. 30(1), 2015)
 * without its successor counts; the thread is the augmented threaded
 * index of Glover, Klingman & Stutz (INFOR 12(3), 1974).  dirty is
 * scratch space for n + m entries: the nodes whose thread the stem
 * changes, whose successors' rev is set once the stem is done.
 */
static void rehang(Tree *t, int64_t below, int64_t v_in, int64_t leave, int64_t apex,
                   num theta, num c_in, int64_t *dirty)
{
    int64_t *parent = t->parent, *thread = t->thread, *rev = t->rev, *last = t->last;
    int64_t v_out = parent[leave], old_rev = rev[leave], old_last = last[leave];
    int64_t stem, par_stem, next_stem, end, before, after, cont, limit, k, count, node;
    num carried, f, carried_cost;

    if (below == leave) {
        parent[below] = v_in;
        t->flow[below] = theta;
        t->cost[below] = c_in;
        if (thread[v_in] != below) {
            /* take the subtree out of the thread, and put it after v_in */
            after = thread[old_last];
            thread[old_rev] = after;
            rev[after] = old_rev;
            after = thread[v_in];
            thread[v_in] = below;
            rev[below] = v_in;
            thread[old_last] = after;
            rev[after] = old_last;
        }
    } else {
        /* what follows the moved subtree: v_in's successor, or, when that
         * is leave itself, what followed leave's subtree */
        cont = old_rev == v_in ? thread[old_last] : thread[v_in];
        stem = below;
        par_stem = v_in;
        carried = theta;
        carried_cost = c_in;
        end = last[below]; /* where the part of the stem node's subtree moved so far ends */
        after = thread[end];
        thread[v_in] = below;
        dirty[0] = v_in;
        count = 1;
        while (stem != leave) {
            /* the next stem node follows this one's subtree, which leaves
             * its old place in the thread */
            next_stem = parent[stem];
            thread[end] = next_stem;
            dirty[count++] = end;
            before = rev[stem];
            thread[before] = after;
            rev[after] = before;
            parent[stem] = par_stem;
            f = t->flow[stem];
            t->flow[stem] = carried;
            carried = f;
            f = t->cost[stem];
            t->cost[stem] = carried_cost;
            carried_cost = f;
            par_stem = stem;
            stem = next_stem;
            /* the next stem node's subtree, less the one just moved */
            end = last[stem] == last[par_stem] ? rev[par_stem] : last[stem];
            after = thread[end];
        }
        parent[leave] = par_stem;
        t->flow[leave] = carried;
        t->cost[leave] = carried_cost;
        thread[end] = cont;
        rev[cont] = end;
        last[leave] = end;
        if (old_rev != v_in) {
            thread[old_rev] = after;
            rev[after] = old_rev;
        }
        for (k = 0; k < count; k++)
            rev[thread[dirty[k]]] = dirty[k];
        /* each stem node's subtree now ends where leave's does */
        for (node = leave; node != below; node = parent[node])
            last[parent[node]] = end;
    }

    /* the subtrees that ended at v_in now end with the moved one; on the
     * path from v_out, those that ended with it end before it, or, when it
     * keeps its place after v_in, with its new last node */
    limit = last[apex] == v_in ? apex : -1;
    end = last[leave];
    for (node = v_in; node != -1 && last[node] == v_in; node = parent[node])
        last[node] = end;
    if (apex != old_rev && v_in != old_rev)
        end = old_rev;
    if (end != old_last)
        for (node = v_out; node != limit && last[node] == old_last; node = parent[node])
            last[node] = end;
}

/* the larger of worst and g, and NaN once either is NaN: !(g <= worst)
 * holds for a larger g and for a NaN, and a NaN sum keeps the NaN */
static num worse(num worst, num g)
{
    if (!(g <= worst))
        return g > worst ? g : g + worst;
    return worst;
}

/*
 * The summary of the plan X, in one row-major pass with every forbidden
 * cell counted as swept to 0: out[0] the mass on forbidden cells, out[1]
 * the price, the sum of c x over the other cells with x != 0 (+inf when a
 * term is infinite), out[2] and out[3] the worst row and column gaps
 * |sum of the line - its weight|, and out[4] the least cell.  Every sum
 * runs left to right from 0, and a NaN gap or cell makes its entry NaN.
 * colsum is scratch space for m numbers.
 */
static void summarize(int64_t n, int64_t m, const num *a, const num *b, const num *C,
                      const num *X, num *colsum, num *out)
{
    int64_t i, j, k;
    int infinite = 0;
    num x, c, g, sum, mass = 0, rowgap = 0, colgap = 0;
    num least = FORBIDDEN(C[0]) ? 0 : X[0];
    FOT_SUM t, price = 0;

    for (j = 0; j < m; j++)
        colsum[j] = 0;
    for (i = k = 0; i < n; i++) {
        sum = 0;
        for (j = 0; j < m; j++, k++) {
            x = X[k];
            c = C[k];
            if (FORBIDDEN(c)) {
                mass += x;
                x = 0;
            } else if (x != 0) {
                t = (FOT_SUM)c * (FOT_SUM)x;
                infinite |= INFINITE(t);
                price += t;
            }
            sum += x;
            colsum[j] += x;
            least = -worse(-least, -x);
        }
        g = sum - a[i];
        rowgap = worse(rowgap, g < 0 ? -g : g);
    }
    for (j = 0; j < m; j++) {
        g = colsum[j] - b[j];
        colgap = worse(colgap, g < 0 ? -g : g);
    }
    out[0] = mass;
    out[1] = PRICE(price, infinite);
    out[2] = rowgap;
    out[3] = colgap;
    out[4] = least;
}

/*
 * a: n supplies, b: m demands, C: n x m row-major costs (a FORBIDDEN cell
 * is +inf, or INT64_MAX), X: n x m output (overwritten), summary: 5 outputs,
 * the plan's summary (see summarize), each read through data() from the
 * address given for it and the offset at.  A cell enters when its reduced cost
 * has a negative M part, or a zero M part and a value part r below -tol
 * and, in the float build, below -rel (|c| + |u| + |v|) (BEYOND; the
 * int64 build ignores rel).  Returns the pivot count,
 * FOT_PIVOT_LIMIT when the pivot limit 10000 + 200 (n + m) max(n, m) is
 * exceeded, FOT_NOT_POSITIVE when a weight is not positive or infinite, or
 * FOT_NO_MEMORY; the summary is written only with a pivot count.
 */
int64_t FOT(fot_solve)(int64_t n, int64_t m, const void *a_obj, const void *b_obj,
                       const void *C_obj, num tol, double rel, const void *X_obj,
                       const void *summary_obj, int64_t at)
{
    const num *a = data(a_obj, at), *b = data(b_obj, at), *C = data(C_obj, at);
    num *X = data(X_obj, at), *summary = data(summary_obj, at);
    int64_t nodes = n + m, total = n * m;
    int64_t limit = 10000 + 200 * nodes * (n > m ? n : m);
    /* about sqrt(n m) cells per block, but floor(exp(log(n m) / 2)): the
     * earlier Cython build computed the root as a complex pow, which falls
     * just short of the integer at most perfect squares (499 at 500 x 500),
     * and the block size decides which entering cell is found first */
    int64_t block = (int64_t)exp(0.5 * log((double)total));
    int64_t result, iterations = 0, scan_pos = 0;
    int row_side;
    int64_t i, j, j0, stop, k, pos, end, scanned, node, count, kept, nopen;
    int64_t ei, ej, d, best_big, ui_big, col_up, x, y, apex, leave, below;
    num q, c, r, best, ui, theta, f;
    const num *row;
    Tree t = {.n = n, .m = m, .C = C};
    num *rest, *amount; /* rest: supplies, then demands */
    int64_t *open, *cell, *head, *next, *stack;
    /* one block for every array: num and int64_t are both 8 bytes wide, so
     * each array starts aligned */
    rest = malloc(5 * nodes * sizeof(num) + (m + 11 * nodes) * sizeof(int64_t));
    if (!rest)
        return FOT_NO_MEMORY;
    amount = rest + nodes;
    /* the start's scratch space: open columns, cells, and grow's; stack
     * is rehang's too */
    open = (int64_t *)(amount + nodes);
    cell = open + m;
    head = cell + nodes;
    next = head + nodes;
    stack = next + 2 * nodes;
    t.parent = stack + nodes;
    t.depth = t.parent + nodes;
    t.thread = t.depth + nodes;
    t.rev = t.thread + nodes;
    t.last = t.rev + nodes;
    t.pot_big = t.last + nodes;
    t.pot = (num *)(t.pot_big + nodes);
    t.flow = t.pot + nodes;
    t.cost = t.flow + nodes;
    (void)rel; /* read by BEYOND in the float build only */

    for (k = 0; k < total && !FORBIDDEN(C[k]); k++)
        ;
    t.big = k < total;

    for (node = 0; node < nodes; node++) {
        rest[node] = node < n ? a[node] : b[node - n];
        if (!(rest[node] > 0) || INFINITE(rest[node])) {
            result = FOT_NOT_POSITIVE;
            goto done;
        }
    }

    /* row-minimum start: each row but the last ships to its cheapest open
     * column until its supply is used up; open lists the columns with
     * demand left in index order, and each scan drops the closed ones */
    for (j = 0; j < m; j++)
        open[j] = j;
    nopen = m;
    count = 0;
    for (i = 0; i < n - 1; i++) {
        row = C + i * m;
        while (rest[i] > 0) {
            ej = -1;
            for (k = kept = 0; k < nopen; k++) {
                j = open[k];
                if (!(rest[n + j] > 0))
                    continue;
                open[kept++] = j;
                if (ej < 0 || row[j] < row[ej])
                    ej = j;
            }
            nopen = kept;
            if (ej < 0)
                break; /* float dust left on the row, and no open column */
            q = rest[i] < rest[n + ej] ? rest[i] : rest[n + ej];
            cell[count] = i * m + ej;
            amount[count++] = q;
            rest[i] -= q;
            rest[n + ej] -= q;
        }
    }
    /* the last row takes every open column's remaining demand */
    for (k = 0; k < nopen; k++) {
        j = open[k];
        if (rest[n + j] > 0) {
            cell[count] = (n - 1) * m + j;
            amount[count++] = rest[n + j];
        }
    }
    grow(&t, count, cell, amount, head, next, stack);

    if (block < 64)
        block = 64;

    for (;;) {
        /* entering cell: wraparound block search on (M, value) pairs, or
         * on values alone when no cell is forbidden, or in the float build
         * while no forbidden cell is basic: every M potential is then 0, so
         * a forbidden cell has M part 1 and never enters, and a finite one
         * M part 0 */
        ei = ej = -1;
        best_big = 0;
        best = -tol;
        pos = scan_pos;
        for (scanned = 0; ei < 0 && scanned < total; scanned += k) {
            k = block < total - scanned ? block : total - scanned;
            end = pos + k;
            while (pos < end) {
                if (pos >= total) {
                    pos -= total;
                    end -= total;
                }
                i = pos / m;
                j0 = pos - i * m;
                stop = j0 + end - pos < m ? j0 + end - pos : m;
                pos += stop - j0;
                row = C + i * m;
                ui = t.pot[i];
                col_up = t.parent[i] - n; /* row i's basic cell to its parent */
                if (!t.big || (PRICES_MARK && t.basic_big == 0)) {
                    for (j = j0; j < stop; j++) {
                        r = row[j] - ui - t.pot[n + j];
                        if (RARELY(r < best) && j != col_up && t.parent[n + j] != i
                            && BEYOND(r, row[j], ui, t.pot[n + j])) {
                            best = r;
                            ei = i;
                            ej = j;
                        }
                    }
                    continue;
                }
                ui_big = t.pot_big[i];
                for (j = j0; j < stop; j++) {
                    c = row[j];
                    d = FORBIDDEN(c) - ui_big - t.pot_big[n + j];
                    if (d <= best_big) {
                        c = FORBIDDEN(c) ? 0 : c;
                        r = c - ui - t.pot[n + j];
                        /* the value part decides entry only when the M part is 0 */
                        if ((d < best_big
                             || (r < best && (d < 0 || BEYOND(r, c, ui, t.pot[n + j]))))
                            && j != col_up && t.parent[n + j] != i) {
                            best_big = d;
                            best = r;
                            ei = i;
                            ej = j;
                        }
                    }
                }
            }
        }
        scan_pos = pos; /* total wraps to 0 in the next search */
        if (ei < 0)
            break;

        if (++iterations > limit) {
            result = FOT_PIVOT_LIMIT;
            goto done;
        }

        /* cycle: climb from both ends to the common ancestor.  Edges are
         * named by their lower node; the decreasing ones are those below a
         * row on the row's side and below a column on the column's side */
        leave = below = -1;
        theta = 0;
        x = ei;
        y = n + ej;
        while (x != y) {
            row_side = t.depth[x] >= t.depth[y];
            node = row_side ? x : y;
            if (row_side)
                x = t.parent[x];
            else
                y = t.parent[y];
            if ((node < n) != row_side)
                continue;
            f = t.flow[node];
            if (leave < 0 || f < theta || (f == theta && !row_side)) {
                theta = f;
                leave = node;
                below = row_side ? ei : n + ej;
            }
        }
        apex = x;
        t.basic_big += FORBIDDEN(C[ei * m + ej]) - FORBIDDEN(t.cost[leave]);
        for (x = ei; x != apex; x = t.parent[x])
            t.flow[x] += x < n ? -theta : theta;
        for (y = n + ej; y != apex; y = t.parent[y])
            t.flow[y] += y < n ? theta : -theta;

        rehang(&t, below, below == ei ? n + ej : ei, leave, apex, theta, C[ei * m + ej], stack);
        refresh(&t, below);
    }

    for (k = 0; k < total; k++)
        X[k] = 0;
    for (node = 1; node < nodes; node++)
        X[edge_cell(&t, node, t.parent[node])] = t.flow[node];
    summarize(n, m, a, b, C, X, rest, summary);
    result = iterations;

done:
    free(rest);
    return result;
}

#undef num
#undef Tree
#undef edge_cell
#undef derive
#undef rehang
#undef refresh
#undef grow
#undef worse
#undef summarize

#endif
