"""Independent reference optima from scipy's HiGHS solver.

Run as a child of run.py, so that scipy's memory never counts in the
benchmark's peak RSS:

    python3 benchmarks/e2e/reference.py --workload float-dense --seed 1

Prints one JSON list, one entry per instance of the workload: for a solve
{"status": "optimal" | "infeasible", "cost": float | null}; for a space op
the list of optimal W1 values it needs ([W(a,b)] or [W12, W23, W13]).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from instances import INF, make_workload


def transport_lp(a, b, cost):
    """Optimal cost over the finite cells, or None if no finite plan exists."""
    n, m = len(a), len(b)
    cells = [(i, j) for i in range(n) for j in range(m) if cost[i][j] != INF]
    k = np.arange(len(cells))
    rows = np.array([i for i, _ in cells])
    cols = np.array([n + j for _, j in cells])
    A = coo_matrix(
        (np.ones(2 * len(cells)), (np.r_[rows, cols], np.r_[k, k])),
        shape=(n + m, len(cells)),
    ).tocsr()
    c = np.array([float(cost[i][j]) for i, j in cells])
    rhs = np.array([float(x) for x in a] + [float(x) for x in b])
    result = linprog(c, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if result.status == 2:
        return None
    if result.status != 0:
        raise RuntimeError(f"HiGHS failed: {result.message}")
    return float(result.fun)


def references(workload):
    out = []
    for inst in workload.instances:
        if inst.kind == "solve":
            value = transport_lp(inst.a, inst.b, inst.cost)
            out.append(
                {"status": "infeasible" if value is None else "optimal", "cost": value}
            )
            continue
        d = workload.spaces[inst.space]
        ms = inst.measures
        pairs = [(0, 1)] if inst.kind == "w" else [(0, 1), (1, 2), (0, 2)]
        out.append([transport_lp(ms[x], ms[y], d) for x, y in pairs])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    json.dump(references(make_workload(args.workload, args.seed)), sys.stdout)


if __name__ == "__main__":
    main()
