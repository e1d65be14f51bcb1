"""Seeded instance families for the end-to-end benchmark.

Every workload is a fixed list of sizes; the seed only decides the numbers
drawn at those sizes.  A run therefore always does the same amount of work
per pass, whatever the seed, and two runs with one seed see identical
inputs.  Only the standard library is used, so the reference process can
import this module without importing finiteot, and the set-up probes can
build their warm-up input before the timed import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

INF = float("inf")

#: all-finite float solves, the dense kernel's path, as (family, n):
#: criterion-10 instances over n = 30..150, small sizes more frequent,
#: degenerate assignments over n = 40..120, and two wide-range-cost probes
#: at n = 30.  The sizes are spread out rather than repeated, so the median
#: and 90th-percentile latency fall between instances of near sizes and
#: move little when the seed changes one instance's pivot count.
FLOAT_MIX = (
    *(("dense", n) for n in range(30, 60, 2)),
    *(("dense", n) for n in range(60, 100, 6)),
    ("dense", 100), ("dense", 150),
    *(("assignment", n) for n in (40, 50, 60, 75, 90, 120)),
    ("probe", 30), ("probe", 30),
)
#: the generic simplex's path, as (family, variant, n, count): rational W1
#: on integer metric spaces of 8..24 points, triangle witnesses on 8..16,
#: and float solves with forbidden cells, n = 15..30, every size present and
#: small ones more frequent.  Bland's rule makes the cost of one instance
#: vary by 20-40% with the seed, so a pass holds many instances of near
#: sizes, and no single one dominates its time or its 90th percentile.
GENERIC_MIX = (
    *(("rational", "w", n, max(1, (26 - n) // 4)) for n in range(8, 25)),
    *(("rational", "triangle", n, 2 if n < 12 else 1) for n in range(8, 17)),
    *(("forbidden", "feasible", n, 3 if n < 20 else 2 if n < 25 else 1)
      for n in range(15, 31)),
)
#: one forbidden-cell instance in five is infeasible by construction
INFEASIBLE_EVERY = 5


def _interleaved(ops, order):
    """ops in one fixed shuffled order, the same for every seed."""
    ops = list(ops)
    random.Random(order).shuffle(ops)
    return tuple(ops)


def _generic_ops():
    """The mix as (family, variant, n) in one fixed interleaved order."""
    ops = list(_interleaved(
        ((family, variant, n) for family, variant, n, count in GENERIC_MIX
         for _ in range(count)),
        "generic-order",
    ))
    forbidden = 0
    for k, (family, _, n) in enumerate(ops):
        if family == "forbidden":
            forbidden += 1
            if forbidden % INFEASIBLE_EVERY == 0:
                ops[k] = (family, "infeasible", n)
    return tuple(ops)


FLOAT_OPS = _interleaved(FLOAT_MIX, "float-order")
GENERIC_OPS = _generic_ops()
SPACE_SIZES = tuple(sorted({n for family, _, n in GENERIC_OPS if family == "rational"}))
FORBIDDEN_SHARE = 0.10


@dataclass(frozen=True)
class Instance:
    """One benchmark op's input, as plain Python numbers.

    kind is "solve" (float solve_kantorovich), "w" (rational W1 on a space)
    or "triangle" (triangle_witness on three measures); family names the
    generator (a key of MAKERS).  For the space ops `space` indexes the
    workload's spaces and `measures` holds the weight lists; for solves a
    and b are weight lists and cost is nested tuples.
    """

    kind: str
    family: str
    n: int
    a: list = ()
    b: list = ()
    cost: tuple = ()
    infeasible: bool = False
    space: int = -1
    measures: tuple = ()

    @property
    def inf_cells(self) -> int:
        return sum(1 for row in self.cost for c in row if c == INF)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    spaces: tuple = ()  # integer distance matrices, for the space ops

    @property
    def warmup(self) -> Instance:
        """Smallest instance; the warm-up op of every process."""
        return min(self.instances, key=lambda inst: (inst.n, inst.family == "probe"))


def _normalised(raw):
    total = sum(raw)
    return [x / total for x in raw]


def _dense(rng, n, variant=None):
    """Criterion-10 family: weights 1..1000, integer costs 0..1000, floats."""
    a = _normalised([rng.randint(1, 1000) for _ in range(n)])
    b = _normalised([rng.randint(1, 1000) for _ in range(n)])
    cost = tuple(tuple(float(rng.randint(0, 1000)) for _ in range(n)) for _ in range(n))
    return Instance("solve", "dense", n, a, b, cost)


def _wide_range_probe(rng, n, variant=None):
    """Costs U(0,1) * 10^U(0,12): the float-pricing defect's family."""
    a = _normalised([rng.random() for _ in range(n)])
    b = _normalised([rng.random() for _ in range(n)])
    cost = tuple(
        tuple(rng.random() * 10 ** (12 * rng.random()) for _ in range(n))
        for _ in range(n)
    )
    return Instance("solve", "probe", n, a, b, cost)


def _assignment(rng, n, variant=None):
    """Uniform 1/n weights: every basis is highly degenerate."""
    a = [1.0 / n] * n
    cost = tuple(tuple(float(rng.randint(0, 999)) for _ in range(n)) for _ in range(n))
    return Instance("solve", "assignment", n, a, a, cost)


def _forbidden(rng, n, variant):
    """Dense instance with ~10% +inf cells.

    variant is "feasible" or "infeasible".  An infeasible one has a row
    block R whose allowed columns S carry at least 0.05 less mass than R:
    every cell of R outside S is forbidden.
    """
    infeasible = variant == "infeasible"
    while True:
        inst = _dense(rng, n)
        cost = [list(row) for row in inst.cost]
        for row in cost:
            for j in range(n):
                if rng.random() < FORBIDDEN_SHARE:
                    row[j] = INF
        if infeasible:
            rows = rng.sample(range(n), n // 3)
            cols = set(rng.sample(range(n), n // 6))
            for i in rows:
                for j in range(n):
                    if j not in cols:
                        cost[i][j] = INF
            deficit = sum(inst.a[i] for i in rows) - sum(inst.b[j] for j in cols)
            if deficit < 0.05:
                continue
        return Instance(
            "solve", "forbidden", n, inst.a, inst.b, tuple(map(tuple, cost)),
            infeasible=infeasible,
        )


def _integer_metric(rng, n, high=20):
    """Min-plus closure of random positive symmetric integer weights."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, high)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return tuple(map(tuple, d))


def _rational(rng, n, variant):
    """W1 ("w", two measures) or a triangle witness ("triangle", three) on
    the workload's integer metric space of n points."""
    count = 3 if variant == "triangle" else 2
    measures = []
    for _ in range(count):
        raw = [rng.randint(1, 10) for _ in range(n)]
        measures.append([Fraction(x, sum(raw)) for x in raw])
    return Instance(
        variant, "rational", n, space=SPACE_SIZES.index(n), measures=tuple(measures)
    )


#: family -> generator(rng, n, variant) of one instance
MAKERS = {
    "dense": _dense,
    "assignment": _assignment,
    "probe": _wide_range_probe,
    "rational": _rational,
    "forbidden": _forbidden,
}
FAMILIES = tuple(MAKERS)
WORKLOADS = ("float-dense", "rational-forbidden")


def make_workload(name: str, seed: int) -> Workload:
    """The workload's instances for this seed, in run order."""
    rng = random.Random(f"{name}:{seed}")
    if name == "float-dense":
        return Workload(
            name, tuple(MAKERS[family](rng, n) for family, n in FLOAT_OPS)
        )
    if name == "rational-forbidden":
        spaces = tuple(_integer_metric(rng, n) for n in SPACE_SIZES)
        return Workload(
            name,
            tuple(MAKERS[family](rng, n, variant) for family, variant, n in GENERIC_OPS),
            spaces,
        )
    raise ValueError(f"unknown workload {name!r}")
