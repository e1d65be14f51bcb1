/*
 * Dense float transportation simplex: the compiled kernel.
 *
 * Runs every all-finite float problem: balanced float supplies/demands,
 * finite costs, returns the plan and the pivot count.  Its pivot rule is
 * mirrored by transportation_simplex in simplex.py, which runs without a
 * compiler and on forbidden cells: on the same float input both take the
 * same pivots and return bit-identical plans, so a change to the rule here
 * must be made there too.  Loaded through ctypes by
 * finiteot.solver._compiled, which builds it on first import with the
 * system C compiler; it needs no Python or numpy headers.
 *
 * Start: north-west corner.  Entering cells come from a wraparound block
 * search over the reduced costs (best candidate within the first block
 * containing one); the leaving cell is the least (row, column) among the
 * cells that attain theta.  After a degenerate stall longer than
 * 3 * (n + m) pivots the rule drops to least-index to rule out cycling.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define FOT_PIVOT_LIMIT (-1)
#define FOT_NO_MEMORY (-2)

/*
 * a: n supplies, b: m demands, C: n x m row-major costs, X: n x m output
 * (overwritten).  Returns the pivot count, FOT_PIVOT_LIMIT when the pivot
 * limit 20000 + 200 * (n + m) is exceeded, or FOT_NO_MEMORY.
 */
int64_t fot_solve_dense(int64_t n, int64_t m, const double *a,
                        const double *b, const double *C, double tol,
                        double *X)
{
    int64_t nb = n + m - 1;
    int64_t nodes = n + m;
    int64_t total_arcs = n * m;
    int64_t max_iter = 20000 + 200 * nodes;
    /* about sqrt(n m) cells per block, but floor(exp(log(n m) / 2)): the
     * earlier Cython build computed the root as a complex pow, which falls
     * just short of the integer at most perfect squares (499 at 500 x 500),
     * and the block size decides which entering cell is found first */
    int64_t block = (int64_t)exp(0.5 * log((double)total_arcs));
    int64_t result = FOT_NO_MEMORY;
    int64_t iterations = 0, stall = 0, scan_pos = 0;
    int bland = 0;
    int64_t i, j, k, t, node, nxt, cell, top, scanned, pos;
    int64_t ei, ej, path_len, leave, li, lj;
    double q, rc, best_rc, theta, f;
    int sign;

    int64_t *bi = malloc(nb * sizeof *bi);
    int64_t *bj = malloc(nb * sizeof *bj);
    double *bf = malloc(nb * sizeof *bf);
    int64_t *basic_at = malloc(total_arcs * sizeof *basic_at);
    double *supply = malloc(n * sizeof *supply);
    double *demand = malloc(m * sizeof *demand);
    /* scratch arrays reused across pivots */
    double *u = malloc(n * sizeof *u);
    double *v = malloc(m * sizeof *v);
    unsigned char *seen = malloc(nodes);
    int64_t *deg = malloc(nodes * sizeof *deg);
    int64_t *off = malloc((nodes + 1) * sizeof *off);
    int64_t *adj_cell = malloc(2 * nb * sizeof *adj_cell);
    int64_t *fill = malloc(nodes * sizeof *fill);
    int64_t *stack = malloc(nodes * sizeof *stack);
    int64_t *parent_cell = malloc(nodes * sizeof *parent_cell);
    int64_t *parent_node = malloc(nodes * sizeof *parent_node);
    int64_t *path = malloc(nodes * sizeof *path);
    if (!bi || !bj || !bf || !basic_at || !supply || !demand || !u || !v
        || !seen || !deg || !off || !adj_cell || !fill || !stack
        || !parent_cell || !parent_node || !path)
        goto done;

    for (t = 0; t < total_arcs; t++)
        basic_at[t] = -1;
    for (i = 0; i < n; i++)
        supply[i] = a[i];
    for (j = 0; j < m; j++)
        demand[j] = b[j];

    /* north-west corner start */
    i = 0;
    j = 0;
    k = 0;
    for (;;) {
        q = supply[i] < demand[j] ? supply[i] : demand[j];
        bi[k] = i;
        bj[k] = j;
        bf[k] = q;
        basic_at[i * m + j] = k;
        k++;
        supply[i] -= q;
        demand[j] -= q;
        if (i == n - 1 && j == m - 1)
            break;
        if (supply[i] <= 0 && i < n - 1)
            i++;
        else if (demand[j] <= 0 && j < m - 1)
            j++;
        else if (i < n - 1)
            i++;
        else
            j++;
    }

    if (block < 64)
        block = 64;

    for (;;) {
        /* adjacency of the basis tree (counting-sort layout) */
        for (node = 0; node < nodes; node++)
            deg[node] = 0;
        for (t = 0; t < nb; t++) {
            deg[bi[t]]++;
            deg[n + bj[t]]++;
        }
        off[0] = 0;
        for (node = 0; node < nodes; node++) {
            off[node + 1] = off[node] + deg[node];
            fill[node] = off[node];
        }
        for (t = 0; t < nb; t++) {
            adj_cell[fill[bi[t]]++] = t;
            adj_cell[fill[n + bj[t]]++] = t;
        }

        /* duals by tree traversal from row 0 */
        for (node = 0; node < nodes; node++)
            seen[node] = 0;
        u[0] = 0.0;
        seen[0] = 1;
        stack[0] = 0;
        top = 1;
        while (top > 0) {
            node = stack[--top];
            for (t = off[node]; t < off[node + 1]; t++) {
                cell = adj_cell[t];
                nxt = node < n ? n + bj[cell] : bi[cell];
                if (!seen[nxt]) {
                    seen[nxt] = 1;
                    if (nxt < n)
                        u[nxt] = C[bi[cell] * m + bj[cell]] - v[bj[cell]];
                    else
                        v[nxt - n] = C[bi[cell] * m + bj[cell]] - u[bi[cell]];
                    stack[top++] = nxt;
                }
            }
        }

        /* entering arc */
        ei = -1;
        ej = -1;
        if (bland) {
            for (pos = 0; pos < total_arcs; pos++) {
                i = pos / m;
                j = pos - i * m;
                if (basic_at[pos] >= 0)
                    continue;
                rc = C[pos] - u[i] - v[j];
                if (rc < -tol) {
                    ei = i;
                    ej = j;
                    break;
                }
            }
        } else {
            best_rc = -tol;
            scanned = 0;
            while (scanned < total_arcs) {
                pos = scan_pos;
                /* one block */
                for (t = 0; t < block; t++) {
                    if (scanned >= total_arcs)
                        break;
                    if (basic_at[pos] < 0) {
                        i = pos / m;
                        j = pos - i * m;
                        rc = C[pos] - u[i] - v[j];
                        if (rc < best_rc) {
                            best_rc = rc;
                            ei = i;
                            ej = j;
                        }
                    }
                    pos++;
                    if (pos == total_arcs)
                        pos = 0;
                    scanned++;
                }
                scan_pos = pos;
                if (ei >= 0)
                    break;
            }
        }
        if (ei < 0)
            break;

        iterations++;
        if (iterations > max_iter) {
            result = FOT_PIVOT_LIMIT;
            goto done;
        }

        /* cycle: tree path from row node ei to column node n + ej */
        for (node = 0; node < nodes; node++)
            seen[node] = 0;
        seen[ei] = 1;
        parent_node[ei] = -1;
        stack[0] = ei;
        top = 1;
        while (top > 0) {
            node = stack[--top];
            if (node == n + ej)
                break;
            for (t = off[node]; t < off[node + 1]; t++) {
                cell = adj_cell[t];
                nxt = node < n ? n + bj[cell] : bi[cell];
                if (!seen[nxt]) {
                    seen[nxt] = 1;
                    parent_node[nxt] = node;
                    parent_cell[nxt] = cell;
                    stack[top++] = nxt;
                }
            }
        }

        path_len = 0;
        node = n + ej;
        while (parent_node[node] >= 0) {
            path[path_len++] = parent_cell[node];
            node = parent_node[node];
        }

        /* theta and leaving arc (least index on ties) */
        theta = -1.0;
        leave = -1;
        sign = -1;
        for (t = 0; t < path_len; t++) {
            cell = path[t];
            if (sign < 0) {
                f = bf[cell];
                if (leave < 0 || f < theta
                    || (f == theta
                        && (bi[cell] < bi[leave]
                            || (bi[cell] == bi[leave] && bj[cell] < bj[leave])))) {
                    theta = f;
                    leave = cell;
                }
            }
            sign = -sign;
        }

        sign = -1;
        for (t = 0; t < path_len; t++) {
            bf[path[t]] += sign * theta;
            sign = -sign;
        }

        li = bi[leave];
        lj = bj[leave];
        basic_at[li * m + lj] = -1;
        basic_at[ei * m + ej] = leave;
        bi[leave] = ei;
        bj[leave] = ej;
        bf[leave] = theta;

        if (theta <= tol) {
            stall++;
            if (stall > 3 * nodes)
                bland = 1;
        } else {
            stall = 0;
        }
    }

    for (t = 0; t < total_arcs; t++)
        X[t] = 0.0;
    for (t = 0; t < nb; t++)
        X[bi[t] * m + bj[t]] = bf[t];
    result = iterations;

done:
    free(bi);
    free(bj);
    free(bf);
    free(basic_at);
    free(supply);
    free(demand);
    free(u);
    free(v);
    free(seen);
    free(deg);
    free(off);
    free(adj_cell);
    free(fill);
    free(stack);
    free(parent_cell);
    free(parent_node);
    free(path);
    return result;
}
