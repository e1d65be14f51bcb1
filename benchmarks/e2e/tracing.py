"""Spans around finiteot's module boundaries, recorded from outside the library.

A Tracer replaces each wrapped function at the name its callers look up,
for example `finiteot.solver.is_coupling` (looked up by solve_kantorovich)
and `finiteot.solver._kernel.solve_dense`.  Constructors are wrapped
through the class's `__post_init__` and `power_cost` through the class
attribute, because callers reach them by class, and replacing the class
name would break the library's own isinstance checks.  A name that no
longer exists is recorded as an absent layer and left alone.

Each span is (name, start, end, parent span index, op id), in process CPU
seconds like the op latencies, and stays in memory until the run writes
them out.  Everything runs on one thread, so a
plain stack gives the parent.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import process_time

#: (module, attribute or "Class.method", span name, counter hook)
BOUNDARIES = (
    ("finiteot", "new_measure", "measure.new_measure", None),
    ("finiteot", "solve_kantorovich", "solver.solve_kantorovich", "solution"),
    ("finiteot.wasserstein", "solve_kantorovich", "solver.solve_kantorovich", "solution"),
    ("finiteot.wasserstein", "wasserstein_distance", "wasserstein.wasserstein_distance", None),
    ("finiteot.wasserstein", "triangle_witness", "wasserstein.triangle_witness", None),
    ("finiteot.wasserstein", "glue", "wasserstein.glue", None),
    ("finiteot.wasserstein", "cost_of_plan", "solver.cost_of_plan", None),
    ("finiteot.solver", "cost_of_plan", "solver.cost_of_plan", None),
    ("finiteot.solver", "is_coupling", "coupling.is_coupling", None),
    ("finiteot.solver", "max_flow_feasible", "solver.feasibility", "feasibility"),
    ("finiteot.solver", "transportation_simplex", "solver.simplex", "pivots"),
    ("finiteot.solver._kernel", "solve_dense", "solver.kernel", "pivots"),
    ("finiteot.space", "CostMatrix.__post_init__", "space.cost_matrix", None),
    ("finiteot.coupling", "TransportPlan.__post_init__", "coupling.plan", None),
    ("finiteot.space", "FiniteMetricSpace.power_cost", "space.power_cost", None),
)


def _resolve(module_name, attr):
    """(owner object, attribute name), or None when either is missing.

    A module part that is not importable is looked up as an attribute of
    its parent, as for finiteot.solver._kernel.
    """
    parts = module_name.split(".")
    owner = None
    for k in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for part in parts[k:] + attr.split(".")[:-1]:
            owner = getattr(owner, part, None)
        break
    name = attr.rpartition(".")[2]
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans and counters while installed; restores the names after."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counters = Counter()
        self.absent = []
        self._stack = []
        self._op = None
        self._saved = []

    def install(self):
        for module_name, attr, span, hook in BOUNDARIES:
            target = _resolve(module_name, attr)
            if target is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            owner, name = target
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span, hook))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op under a root span named "op"."""
        self._op = op_id
        return self._wrap(fn, "op", None)(*args)

    def _wrap(self, fn, span_name, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1, self._op])
            stack.append(index)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                _count(counters, span_name, hook, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, scale):
        """Span name -> (summed self time, call count).

        scale maps an op id to the factor that turns its CPU seconds into
        reference seconds.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, op), inner in zip(self.spans, child_time):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start - inner) * scale[op], calls + 1)
        return out

    def total_time(self, name, scale):
        return sum(
            (end - start) * scale[op]
            for n, start, end, _, op in self.spans if n == name
        )


def _count(counters, span_name, hook, args, result):
    if hook == "pivots":
        counters[span_name + ".pivots"] += int(result[1])
    elif hook == "feasibility":
        counters["solver.infeasible_ops"] += not result[0]
    elif hook == "solution":
        counters["solver.solves"] += 1
        counters["solver.pivots"] += int(getattr(result, "iterations", 0))
        if len(args) >= 2:
            counters["solver.cells"] += args[0].n * args[1].n
