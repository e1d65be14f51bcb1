"""The benchmark op of each workload, and the check of its output.

An op drives finiteot's public API from the generated Python lists to the
returned answer.  Library functions are looked up on their modules at call
time, so a Tracer's wrappers take effect.  The checks run outside the timed
region and compare every answer with the HiGHS reference computed at set-up.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

INF = float("inf")
#: agreement required with the HiGHS optimum, relative to max(1, |optimum|)
REF_TOL = 1e-6
#: marginal slack for a float plan, as in finiteot's own float coupling check
PLAN_TOL = 1e-9


class Ops:
    """Runs a workload's ops against an imported finiteot."""

    def __init__(self, workload):
        import finiteot
        import finiteot.space
        import finiteot.wasserstein

        self.ot = finiteot
        self.w = finiteot.wasserstein
        self.params = self.w.WassersteinParams(p=1, mode="rational")
        self.spaces = tuple(
            finiteot.space.FiniteMetricSpace(tuple(str(i) for i in range(len(d))), d)
            for d in workload.spaces
        )

    def run(self, inst):
        ot = self.ot
        if inst.kind == "solve":
            return ot.solve_kantorovich(
                ot.new_measure(inst.a), ot.new_measure(inst.b), inst.cost, mode="float"
            )
        measures = [ot.new_measure(w) for w in inst.measures]
        space = self.spaces[inst.space]
        if inst.kind == "w":
            return self.w.wasserstein_distance(*measures, space, self.params)
        return self.w.triangle_witness(*measures, space, self.params)


def signature(inst, result):
    """What must repeat exactly when the same input is solved again."""
    if inst.kind == "solve":
        return (repr(result.optimal_cost), result.iterations)
    if inst.kind == "w":
        return (result[0],)
    return tuple(result[k] for k in ("w12", "w23", "w13", "glued_cost_13"))


def check(inst, workload, result, ref):
    """None if the answer is right, else the reason it is wrong."""
    if inst.kind == "solve":
        return _check_solve(inst, result, ref)
    if inst.kind == "w":
        value, plan = result
        a, b = inst.measures
        return _check_value(value, ref[0]) or _check_exact_plan(
            plan, a, b, workload.spaces[inst.space], value
        )
    if result["holds"] is not True:
        return "triangle witness does not hold"
    for key, want in zip(("w12", "w23", "w13"), ref):
        reason = _check_value(result[key], want)
        if reason:
            return f"{key}: {reason}"
    return None


def _close(value, want):
    return abs(float(value) - want) <= REF_TOL * max(1.0, abs(want))


def _check_value(value, want):
    if not isinstance(value, (int, Fraction)):
        return f"rational answer is a {type(value).__name__}"
    if not _close(value, want):
        return f"W1 {float(value)!r} differs from reference {want!r}"
    return None


def _check_exact_plan(plan, a, b, d, value):
    """An exact Fraction coupling of a and b whose cost is exactly value."""
    matrix = plan.matrix
    if any(not isinstance(x, (int, Fraction)) or x < 0 for row in matrix for x in row):
        return "plan has a non-rational or negative entry"
    if [sum(row) for row in matrix] != list(a):
        return "plan row sums differ from the first measure"
    if [sum(col) for col in zip(*matrix)] != list(b):
        return "plan column sums differ from the second measure"
    if sum(c * x for crow, xrow in zip(d, matrix) for c, x in zip(crow, xrow)) != value:
        return "plan cost differs from the returned value"
    return None


def _check_solve(inst, sol, ref):
    if inst.infeasible and ref["status"] != "infeasible":
        return "built infeasible, but HiGHS finds a plan"
    if ref["status"] == "infeasible":
        return _check_certificate(inst, sol)
    if sol.plan is None or sol.optimal_cost == INF:
        return "reported infeasible, reference is feasible"
    X = np.array(sol.plan.matrix, dtype=float)
    C = np.array(inst.cost, dtype=float)
    forbidden = np.isinf(C)
    if X.min() < -PLAN_TOL:
        return "plan has a negative entry"
    if np.abs(X.sum(axis=1) - inst.a).max() > PLAN_TOL:
        return "plan row sums differ from the first measure"
    if np.abs(X.sum(axis=0) - inst.b).max() > PLAN_TOL:
        return "plan column sums differ from the second measure"
    if (X[forbidden] != 0).any():
        return "plan puts mass on a forbidden cell"
    plan_cost = float((X[~forbidden] * C[~forbidden]).sum())
    if abs(plan_cost - sol.optimal_cost) > PLAN_TOL * max(1.0, abs(plan_cost)):
        return f"returned cost {sol.optimal_cost!r} is not the plan's cost {plan_cost!r}"
    if not _close(sol.optimal_cost, ref["cost"]):
        return f"cost {sol.optimal_cost!r} differs from reference {ref['cost']!r}"
    return None


def _check_certificate(inst, sol):
    """Infeasible: +inf cost and a Hall certificate that really violates Hall."""
    if sol.optimal_cost != INF:
        return "returned a finite cost, reference is infeasible"
    cert = sol.infeasibility_certificate
    if not cert:
        return "no infeasibility certificate"
    rows, cols = cert["rows"], set(cert["reachable_columns"])
    if any(inst.cost[i][j] != INF and j not in cols for i in rows for j in range(inst.n)):
        return "certificate rows reach a column outside reachable_columns"
    row_mass = sum(inst.a[i] for i in rows)
    column_mass = sum(inst.b[j] for j in cols)
    if not row_mass > column_mass:
        return "certificate rows do not outweigh their columns"
    if not (_close(cert["row_mass"], row_mass) and _close(cert["column_mass"], column_mass)):
        return "certificate masses differ from the input weights"
    return None
