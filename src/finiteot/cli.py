"""Command-line interface.

Commands: solve, distance, verify <suite>, oracle-check, validate.
Exit codes: 0 success, 1 input/config error, 2 infeasible problem,
3 verification failure.  OT_KANTOR_MODE sets the default numeric mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .analysis import check_moreau_yosida_properties, liminf_cost_check
from .coupling import (
    is_coupling,
    marginals,
    product_coupling,
    restrict_and_normalize,
    tail_mass_bound_check,
    verify_coupling_via_test_functions,
)
from .generators import (
    random_coupling,
    random_cost,
    random_rational_measure,
    random_rational_metric_space,
    rng_from_seed,
)
from .io import _matrix, dump_json, load_measure, load_plan, load_problem, load_space
from .measure import DiscreteMeasure
from .numerics import FLOAT_TOL, INF, is_inf
from .solver import (
    oracle_basis_enumeration,
    oracle_permutation,
    solve_kantorovich,
    verify_restriction_optimality,
)
from .space import validate_metric
from .wasserstein import (
    WassersteinParams,
    glue,
    glued_plan_is_valid,
    metric_axiom_suite,
    triangle_witness,
    wasserstein_distance,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

TOL_HELP = f"solver pricing tolerance (default: 0 in rational mode, scaled {FLOAT_TOL:g} in float)"

SUITES = ("coupling", "metric", "glue", "restriction", "moreau-yosida", "liminf", "tail")


def _emit(doc, out_path):
    text = dump_json(doc, out_path)
    if not out_path:
        print(text)


def cmd_solve(args) -> int:
    mu1, mu2, cost = load_problem(args.problem, args.mode)
    sol = solve_kantorovich(mu1, mu2, cost, mode=args.mode, tol=args.tol)
    doc = {
        "mode": sol.mode,
        "optimal_cost": sol.optimal_cost,
        "iterations": sol.iterations,
        "kernel": sol.engine,
    }
    if sol.feasible:
        doc["plan"] = [list(row) for row in sol.plan.matrix]
    else:
        doc["infeasibility_certificate"] = sol.infeasibility_certificate
    _emit(doc, args.out)
    return EXIT_OK if sol.feasible else EXIT_INFEASIBLE


def cmd_distance(args) -> int:
    space = load_space(args.space, args.mode)
    mu1 = load_measure(args.mu1, args.mode, space)
    mu2 = load_measure(args.mu2, args.mode, space)
    params = WassersteinParams(p=args.p, mode=args.mode, tol=args.tol)
    value, plan = wasserstein_distance(mu1, mu2, space, params)
    _emit({"p": args.p, "w_p": value, "plan": [list(r) for r in plan.matrix]}, args.out)
    return EXIT_OK


def _violations(report):
    """The first ten entries of an is_coupling report, as JSON objects."""
    return [
        {"kind": k, "index": list(i) if isinstance(i, tuple) else i, "magnitude": m}
        for k, i, m in report[:10]
    ]


def _verify_coupling(args, rng):
    if args.plan:
        plan = load_plan(args.plan[0], args.mode)
        ok, report = is_coupling(plan, plan.mu1, plan.mu2)
        agree = verify_coupling_via_test_functions(plan, plan.mu1, plan.mu2) == ok
        return ok and agree, {
            "valid_coupling": ok,
            "test_function_agreement": agree,
            "violations": _violations(report),
        }
    failures = []
    for t in range(args.trials):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        mu1 = random_rational_measure(rng, n)
        mu2 = random_rational_measure(rng, m)
        plan = random_coupling(rng, mu1, mu2)
        direct, _ = is_coupling(plan, mu1, mu2)
        via_tf = verify_coupling_via_test_functions(plan, mu1, mu2)
        corrupted = [list(row) for row in plan.matrix]
        i, j = rng.randrange(n), rng.randrange(m)
        corrupted[i][j] += Fraction(1, 7)
        bad_direct, _ = is_coupling(corrupted, mu1, mu2)
        bad_tf = verify_coupling_via_test_functions(corrupted, mu1, mu2)
        if not (direct and via_tf) or bad_direct or bad_tf or direct != via_tf:
            failures.append({"trial": t})
    return not failures, {"trials": args.trials, "failures": failures}


def _verify_metric(args, rng):
    space = random_rational_metric_space(rng, 8)
    measures = [random_rational_measure(rng, 8) for _ in range(6)]
    report = metric_axiom_suite(measures, space, WassersteinParams(p=1))
    return report["passed"], report


def _verify_glue(args, rng):
    if args.plan and len(args.plan) >= 2:
        pi12 = load_plan(args.plan[0], args.mode)
        pi23 = load_plan(args.plan[1], args.mode)
        try:
            g = glue(pi12, pi23)
        except Exception as exc:
            return False, {"error": str(exc)}
        ok, rep = glued_plan_is_valid(g, pi12, pi23)
        return ok, {"valid": ok, "violations": [list(map(str, r)) for r in rep[:10]]}
    failures = []
    for t in range(args.trials):
        n1, n2, n3 = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)
        mu2 = random_rational_measure(rng, n2)
        pi12 = random_coupling(rng, random_rational_measure(rng, n1), mu2)
        pi23 = random_coupling(rng, mu2, random_rational_measure(rng, n3))
        g = glue(pi12, pi23)
        ok, _ = glued_plan_is_valid(g, pi12, pi23)
        if not ok:
            failures.append({"trial": t})
    return not failures, {"trials": args.trials, "failures": failures}


def _verify_restriction(args, rng):
    failures = []
    for t in range(args.trials):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        mu1 = random_rational_measure(rng, n)
        mu2 = random_rational_measure(rng, m)
        cost = random_cost(rng, n, m)
        sol = solve_kantorovich(mu1, mu2, cost)
        mask = [
            [sol.plan.matrix[i][j] > 0 or rng.random() < 0.5 for j in range(m)]
            for i in range(n)
        ]
        _, _, holds = verify_restriction_optimality(sol, mask, cost)
        if not holds:
            failures.append({"trial": t})
    return not failures, {"trials": args.trials, "failures": failures}


def _verify_moreau_yosida(args, rng):
    from .analysis import ExtendedFunction

    failures = []
    for t in range(args.trials):
        n = rng.randint(2, 8)
        space = random_rational_metric_space(rng, n)
        vals = [
            INF if rng.random() < 0.2 else Fraction(rng.randint(0, 30))
            for _ in range(n)
        ]
        if all(is_inf(v) for v in vals):
            vals[0] = Fraction(0)
        report = check_moreau_yosida_properties(ExtendedFunction(tuple(vals)), space, N=12)
        if not report["passed"]:
            failures.append({"trial": t, "failures": report["failures"]})
    return not failures, {"trials": args.trials, "failures": failures}


def _verify_liminf(args, rng):
    failures = []
    for t in range(args.trials):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        mu1 = random_rational_measure(rng, n)
        mu2 = random_rational_measure(rng, m)
        limit = random_coupling(rng, mu1, mu2)
        plans = [limit] * 8  # constant sequences; convergence is trivial
        cost = random_cost(rng, n, m)
        rep = liminf_cost_check(plans, limit, cost)
        if not rep["holds"] or rep["limit_value"] != rep["liminf_value"]:
            failures.append({"trial": t})
    return not failures, {"trials": args.trials, "failures": failures}


def _verify_tail(args, rng):
    failures = []
    for t in range(args.trials):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        mu1 = random_rational_measure(rng, n)
        mu2 = random_rational_measure(rng, m)
        plan = random_coupling(rng, mu1, mu2)
        K1 = [i for i in range(n) if rng.random() < 0.5]
        K2 = [j for j in range(m) if rng.random() < 0.5]
        lhs, rhs, holds = tail_mass_bound_check(plan, K1, K2, mu1, mu2)
        if not holds:
            failures.append({"trial": t, "lhs": str(lhs), "rhs": str(rhs)})
    return not failures, {"trials": args.trials, "failures": failures}


def cmd_verify(args) -> int:
    rng = rng_from_seed(args.seed)
    runners = {
        "coupling": _verify_coupling,
        "metric": _verify_metric,
        "glue": _verify_glue,
        "restriction": _verify_restriction,
        "moreau-yosida": _verify_moreau_yosida,
        "liminf": _verify_liminf,
        "tail": _verify_tail,
    }
    ok, report = runners[args.suite](args, rng)
    _emit({"suite": args.suite, "seed": args.seed, "passed": ok, "report": report}, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_oracle_check(args) -> int:
    if min(args.n, args.m) < 1:
        print(f"error: --n and --m must be >= 1, got {args.n} and {args.m}", file=sys.stderr)
        return EXIT_INPUT
    if args.n + args.m > 8 and not args.uniform:
        print(f"error: basis-enumeration oracle limited to n+m <= 8, got {args.n + args.m}",
              file=sys.stderr)
        return EXIT_INPUT
    if args.uniform and args.n > 6:
        print(f"error: permutation oracle check limited to n <= 6, got {args.n}",
              file=sys.stderr)
        return EXIT_INPUT
    rng = rng_from_seed(args.seed)
    rows = []
    worst = Fraction(0)
    for t in range(args.trials):
        if args.uniform:
            n = args.n
            mu1 = DiscreteMeasure(tuple(Fraction(1, n) for _ in range(n)))
            mu2 = DiscreteMeasure(tuple(Fraction(1, n) for _ in range(n)))
            cost = random_cost(rng, n, n)
            oracle = oracle_permutation(mu1, mu2, cost)
        else:
            mu1 = random_rational_measure(rng, args.n)
            mu2 = random_rational_measure(rng, args.m)
            cost = random_cost(rng, args.n, args.m)
            oracle = oracle_basis_enumeration(mu1, mu2, cost)
        sol = solve_kantorovich(mu1, mu2, cost)
        gap = abs(sol.optimal_cost - oracle.optimal_cost)
        worst = max(worst, gap)
        rows.append({"instance": t, "solver": sol.optimal_cost, "oracle": oracle.optimal_cost})
    _emit(
        {
            "trials": args.trials,
            "max_discrepancy": worst,
            "instances": rows if args.trials <= 20 else rows[:20],
        },
        args.out,
    )
    return EXIT_OK if worst == 0 else EXIT_VERIFY


def cmd_validate(args) -> int:
    if args.kind == "metric":
        # parse the raw matrix so violations report instead of raising
        with open(args.file) as fh:
            doc = json.load(fh)
        if "dist" not in doc:
            space_doc = load_space(args.file, args.mode)
            dist = space_doc.dist
        else:
            dist = _matrix(doc["dist"], args.mode)
        report = validate_metric(dist)
        _emit({"valid": not report, "violations": [list(map(str, r)) for r in report]}, args.out)
        return EXIT_OK if not report else EXIT_VERIFY
    if args.kind == "measure":
        load_measure(args.file, args.mode)
        _emit({"valid": True}, args.out)
        return EXIT_OK
    if args.kind == "plan":
        plan = load_plan(args.file, args.mode)
        ok, report = is_coupling(plan, plan.mu1, plan.mu2)
        _emit({"valid": ok, "violations": _violations(report)}, args.out)
        return EXIT_OK if ok else EXIT_VERIFY
    return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finiteot",
        description="Exact discrete optimal transport: solve, measure distances, verify.",
    )
    parser.add_argument("--version", action="version", version=f"finiteot {__version__}")
    default_mode = os.environ.get("OT_KANTOR_MODE", "float")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=("rational", "float"), default=default_mode)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write JSON output to this path")

    p = sub.add_parser("solve", help="solve a Kantorovich problem file")
    p.add_argument("problem")
    p.add_argument("--tol", type=float, default=None, help=TOL_HELP)
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("distance", help="Wasserstein-p distance between two measures")
    p.add_argument("space")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=None, help=TOL_HELP)
    common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="run a property battery")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--plan", action="append", default=None,
                   help="check specific plan file(s) instead of random instances")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle-check", help="compare the solver against brute-force oracles")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--uniform", action="store_true",
                   help="uniform marginals, checked against the permutation oracle")
    common(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("validate", help="validate a data file")
    p.add_argument("kind", choices=("metric", "measure", "plan"))
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "distance" and args.p < 1:
        print("error: --p must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if args.command in ("verify", "oracle-check") and args.trials < 1:
        # a battery of no trials checks nothing, so it must not pass
        print(f"error: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
