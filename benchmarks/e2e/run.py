"""End-to-end benchmark of finiteot's solve paths, with a traced per-layer run.

    python3 benchmarks/e2e/run.py --workload float-dense --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ./src, never
from an installed copy.  One client, one process, one thread, closed loop:
each op starts when the previous one has returned and been checked.
BLAS/OpenMP thread counts are pinned to 1.

Workloads (inputs are generated from --seed by instances.py):

  float-dense         float solve_kantorovich with all-finite costs, which
                      today always runs the dense kernel: criterion-10
                      instances (n = 30..150), degenerate assignments with
                      uniform weights (n = 40..120), and wide-range-cost
                      probes (n = 30).  The probes put the float-pricing
                      defect (ROADMAP item 3) into the numbers: today they
                      fail the reference check.
  rational-forbidden  ops that today run the generic simplex and never the
                      kernel: wasserstein_distance in rational mode on
                      integer metric spaces of 8..24 points (every fourth
                      of these a triangle_witness, so glue runs), and float
                      solves with ~10% +inf cells (n = 15..30, one in five
                      infeasible by construction), the only path through
                      max_flow_feasible and the BigM simplex.

A run repeats whole passes over the workload's instances for about
--seconds (at least two passes).  Every op is one latency sample: the
process CPU time from the call into finiteot to its return, in reference
seconds (see calibration.py: the host calibration runs between every two
ops, and each op is scaled by the mean of the two around it).  The op runs
on one thread and does no I/O, so CPU time measures the same work as a
wall clock without the time the process spends descheduled; the wall clock
only bounds the run.  Every answer is checked, outside the timed region,
against the optimum scipy's HiGHS finds at set-up in a child process (scipy
is a dependency of the benchmark only), and must repeat exactly on every
pass.

With --trace 0 it prints the end-to-end metrics:
  ops_per_s     ops / summed op latency
  op_p50_s      median op latency
  op_p90_s      90th percentile of op latency (the sample count is printed)
  correct_frac  ops whose answer passed every check / ops attempted
                (1 - failed_frac; failed_frac itself is 0 on most workloads)
  peak_rss_mb   peak resident memory of this process
  setup_s       median over fresh interpreters, started between passes, of
                the CPU time to import finiteot and finish one warm-up op,
                in reference seconds

With --trace 1 each pass is run once untraced and once traced, and it
prints per-layer self times, calls and counts per pass (see tracing.py),
each family's latency and pivots per pass, and the tracing overhead.  The
last line of standard output is always one JSON object: {"correct",
"attempted", "failed", "metrics"}.  `correct` is false when an op other
than a wide-range probe failed, or when an answer or a count changed
between passes; failed probes count in `failed`.  A full record
(environment stamp, metrics, failures, spans) is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

from calibration import REFERENCE_S, calibrate
from instances import FAMILIES, WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_STARTS = 7
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)  # thread counts are pinned by main
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(script, args):
    """Run a helper script to completion; its last output line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, cwd=ROOT, env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"{script} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(finiteot):
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "kernel": finiteot.KERNEL,
        "force_pure": bool(os.environ.get("FINITEOT_FORCE_PURE")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


class Runner:
    """Runs passes over a workload, timing and checking every op."""

    def __init__(self, workload, ops, refs):
        from ops import check, signature

        self.check, self.signature = check, signature
        self.workload = workload
        self.ops = ops
        self.refs = refs
        self.samples = {False: [], True: []}  # traced? -> [(instance, op id)]
        self.cpu_s = {}  # op id -> CPU seconds
        self.scale = {}  # op id -> REFERENCE_S / calibration around the op
        self.calibrations = []
        self.attempted = 0
        self.failures = Counter()  # (instance index, reason) -> count
        self.first_answer = {}
        self.pass_counts = []  # tracer counters of each traced pass
        self.next_op = 0

    def one_pass(self, tracer=None):
        counts = Counter()
        samples = self.samples[tracer is not None]
        if tracer:
            tracer.install()
        calibration = calibrate()
        self.calibrations.append(calibration)
        try:
            for k, inst in enumerate(self.workload.instances):
                self.next_op += 1
                before = Counter(tracer.counters) if tracer else None
                start = process_time()
                try:
                    if tracer:
                        result = tracer.run_op(self.next_op, self.ops.run, inst)
                    else:
                        result = self.ops.run(inst)
                    error = None
                except Exception as exc:  # an op that raises is a failed op
                    result, error = None, f"raised {type(exc).__name__}: {exc}"
                self.cpu_s[self.next_op] = process_time() - start
                after = calibrate()
                self.calibrations.append(after)
                self.scale[self.next_op] = 2 * REFERENCE_S / (calibration + after)
                calibration = after
                samples.append((k, self.next_op))
                if tracer:
                    delta = tracer.counters - before
                    counts.update(delta)
                    counts[inst.family + ".pivots"] += delta["solver.pivots"]
                self.attempted += 1
                reason = error or self.check(inst, self.workload, result, self.refs[k])
                if reason is None:
                    answer = self.signature(inst, result)
                    if self.first_answer.setdefault(k, answer) != answer:
                        reason = "answer changed between passes"
                if reason:
                    self.failures[(k, reason)] += 1
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            self.pass_counts.append(counts)

    def latency(self, op):
        """The op's latency in reference seconds."""
        return self.cpu_s[op] * self.scale[op]

    def latencies(self, traced=False):
        return [self.latency(op) for _, op in self.samples[traced]]

    def instance_latencies(self, k):
        return [self.latency(op) for i, op in self.samples[False] if i == k]

    def family_seconds(self, family, passes):
        instances = self.workload.instances
        return sum(
            self.latency(op) for k, op in self.samples[False]
            if instances[k].family == family
        ) / passes

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        instances = self.workload.instances
        only_probes = all(instances[k].family == "probe" for k, _ in self.failures)
        counts_repeat = all(c == self.pass_counts[0] for c in self.pass_counts)
        return only_probes and counts_repeat


def measure(runner, seconds, tracer, start_setup):
    """Whole passes until less than half a pass of --seconds is left.

    A fresh-interpreter set-up start follows each of the first passes, so
    the set-up samples are spread over the run like the op samples.
    """
    setups = []
    start = perf_counter()
    passes = 0
    last = 0.0
    while passes < MIN_PASSES or perf_counter() - start + last / 2 < seconds:
        begun = perf_counter()
        if tracer is None:
            runner.one_pass()
        elif passes % 2 == 0:
            runner.one_pass()
            runner.one_pass(tracer)
        else:
            runner.one_pass(tracer)
            runner.one_pass()
        last = perf_counter() - begun
        passes += 1
        if len(setups) < SETUP_STARTS:
            setups.append(start_setup())
    while len(setups) < SETUP_STARTS:
        setups.append(start_setup())
    return passes, setups


def end_to_end_metrics(runner, setups):
    lat = runner.latencies()
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "correct_frac": (1 - runner.failed / runner.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }


def layer_metrics(runner, tracer, passes, setups):
    """Per-layer figures per pass over the workload's instances."""
    self_s = tracer.self_times(runner.scale)

    def seconds(*names):
        return sum(self_s.get(name, (0.0, 0))[0] for name in names) / passes

    def calls(name):
        return self_s.get(name, (0.0, 0))[1] // passes

    counts = runner.pass_counts[0]
    kernel_s = seconds("solver.kernel")
    kernel_pivots = counts["solver.kernel.pivots"]
    op_total = tracer.total_time("op", runner.scale)
    engine_total = (
        tracer.total_time("solver.kernel", runner.scale)
        + tracer.total_time("solver.simplex", runner.scale)
    )
    untraced, traced = sum(runner.latencies(False)), sum(runner.latencies(True))
    metrics = {
        "solver.kernel_s": (kernel_s, "s"),
        "solver.kernel_calls": (calls("solver.kernel"), "count"),
        "solver.kernel_pivots": (kernel_pivots, "count"),
        "solver.kernel_s_per_pivot": (kernel_s / kernel_pivots if kernel_pivots else 0.0, "s"),
        "solver.simplex_s": (seconds("solver.simplex"), "s"),
        "solver.simplex_calls": (calls("solver.simplex"), "count"),
        "solver.simplex_pivots": (counts["solver.simplex.pivots"], "count"),
        "solver.feasibility_s": (seconds("solver.feasibility"), "s"),
        "solver.infeasible_ops": (counts["solver.infeasible_ops"], "count"),
        "solver.self_s": (seconds("solver.solve_kantorovich"), "s"),
        "coupling.plan_s": (seconds("coupling.plan"), "s"),
        "coupling.is_coupling_s": (seconds("coupling.is_coupling"), "s"),
        "solver.cost_of_plan_s": (seconds("solver.cost_of_plan"), "s"),
        "space.cost_matrix_s": (seconds("space.cost_matrix"), "s"),
        "measure.new_measure_s": (seconds("measure.new_measure"), "s"),
        "solver.wrapper_share": (1 - engine_total / op_total, "frac"),
        "wasserstein.self_s": (
            seconds("wasserstein.wasserstein_distance", "wasserstein.triangle_witness"), "s"
        ),
        "wasserstein.glue_s": (seconds("wasserstein.glue"), "s"),
        "space.power_cost_s": (seconds("space.power_cost"), "s"),
        "solver.solves": (counts["solver.solves"], "count"),
        "solver.pivots": (counts["solver.pivots"], "count"),
        "solver.cells": (counts["solver.cells"], "count"),
        "solver.inf_cells": (sum(i.inf_cells for i in runner.workload.instances), "count"),
        "trace_overhead": (traced / untraced - 1, "frac"),
        "import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "host.calibration_s": (statistics.median(runner.calibrations), "s"),
    }
    for family in FAMILIES:
        metrics[family + ".op_s"] = (runner.family_seconds(family, passes), "s")
        metrics[family + ".pivots"] = (counts[family + ".pivots"], "count")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finiteot" / "__init__.py").is_file():
        sys.exit(f"no finiteot sources under {SRC}; run from a checkout of the repo")
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import finiteot

    if Path(finiteot.__file__).resolve().parent != SRC / "finiteot":
        sys.exit(f"imported finiteot from {finiteot.__file__}, not from {SRC}")
    from ops import Ops
    from tracing import Tracer

    env = environment(finiteot)
    print("env " + json.dumps(env), flush=True)
    workload = make_workload(args.workload, args.seed)
    refs = run_child("reference.py", args)

    ops = Ops(workload)
    ops.run(workload.warmup)
    runner = Runner(workload, ops, refs)
    tracer = Tracer() if args.trace else None
    passes, setups = measure(
        runner, args.seconds, tracer, lambda: run_child("setup_probe.py", args)
    )

    if tracer:
        metrics = layer_metrics(runner, tracer, passes, setups)
    else:
        metrics = end_to_end_metrics(runner, setups)
    n = len(workload.instances)
    print(f"{args.workload} seed {args.seed}: {n} instances x {passes} passes"
          f"{' (untraced + traced)' if tracer else ''} = {len(runner.latencies())}"
          f" latency samples; {runner.failed} of {runner.attempted} ops failed"
          f" (failed_frac {runner.failed / runner.attempted:.4g})")
    for (k, reason), count in sorted(runner.failures.items()):
        inst = workload.instances[k]
        print(f"failed x{count}: instance {k} ({inst.family}, n={inst.n}): {reason}")
    if tracer and tracer.absent:
        print("absent layers: " + ", ".join(tracer.absent))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit}")

    record = {
        "env": env,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [
            {"instance": k, "reason": r, "count": c} for (k, r), c in runner.failures.items()
        ],
        "reference_s": REFERENCE_S,
        "calibrations_s": runner.calibrations,
        "instances": [
            {"family": inst.family, "kind": inst.kind, "n": inst.n,
             "latencies_s": runner.instance_latencies(k)}
            for k, inst in enumerate(workload.instances)
        ],
        "absent_layers": tracer.absent if tracer else [],
        "spans": tracer.spans if tracer else [],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
