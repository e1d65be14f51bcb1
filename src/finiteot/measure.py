"""Discrete probability measures: construction, pushforward, integration,
and equality testing through test functions.

On a finite space every function is bounded and continuous, so test
functions are plain value vectors and the indicator functions of singletons
span everything; equality of integrals against those indicators is exactly
equality of the weight vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .numerics import (
    RATIONAL,
    DomainError,
    NormalizationError,
    ShapeError,
    check_extended,
    default_tol,
    infer_mode,
    is_inf,
)

WEIGHT_SUM_TOL = 1e-12  # float-mode slack on the total mass


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability weights on the points of a finite space.

    Zero-weight points are kept; indices stay aligned with the space.
    """

    weights: tuple
    space: object = None  # optional FiniteMetricSpace

    def __post_init__(self):
        w = tuple(self.weights)
        object.__setattr__(self, "weights", w)
        if not w:
            raise DomainError("measure needs at least one point")
        for x in w:
            check_extended(x, "weight")
            if is_inf(x):
                raise DomainError("infinite weight")
            if x < 0:
                raise DomainError(f"negative weight {x}")
        total = sum(w)
        if infer_mode(w) == RATIONAL:
            if total != 1:
                raise NormalizationError(f"weights sum to {total}, not 1")
        elif abs(total - 1) > WEIGHT_SUM_TOL:
            raise NormalizationError(f"weights sum to {total!r}, not 1")
        if self.space is not None and self.space.n != len(w):
            raise ShapeError("weights do not match the space size")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def mode(self) -> str:
        return infer_mode(self.weights)

    def support(self):
        return [i for i, w in enumerate(self.weights) if w > 0]


def new_measure(weights, space=None) -> DiscreteMeasure:
    return DiscreteMeasure(tuple(weights), space)


def dirac(i: int, n: int, space=None) -> DiscreteMeasure:
    if not 0 <= i < n:
        raise IndexError(f"dirac index {i} out of range for size {n}")
    return DiscreteMeasure(tuple(1 if k == i else 0 for k in range(n)), space)


def empirical_from_samples(sample_indices, n: int, space=None) -> DiscreteMeasure:
    from fractions import Fraction

    if not sample_indices:
        raise DomainError("no samples")
    counts = Counter(sample_indices)
    for i in counts:
        if not 0 <= i < n:
            raise IndexError(f"sample index {i} out of range for size {n}")
    total = len(sample_indices)
    return DiscreteMeasure(
        tuple(Fraction(counts.get(i, 0), total) for i in range(n)), space
    )


def pushforward(mu: DiscreteMeasure, index_map, n_target=None, space=None):
    """Image measure under a point map given as an index->index table.

    index_map may be a dict or a sequence; it must cover every support point.
    """
    if n_target is None:
        n_target = mu.n if space is None else space.n
    get = index_map.get if hasattr(index_map, "get") else lambda i: index_map[i]
    out = [0] * n_target
    for i, w in enumerate(mu.weights):
        if w == 0:
            continue
        j = get(i)
        if j is None or not 0 <= j < n_target:
            raise IndexError(f"map sends {i} to {j}, outside the target space")
        out[j] += w
    return DiscreteMeasure(tuple(out), space)


@dataclass(frozen=True)
class TestFunction:
    """A function on the points, given by its value vector."""

    __test__ = False  # not a pytest class despite the name

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        for v in vals:
            check_extended(v, "test-function value")
            if is_inf(v):
                raise DomainError("test functions must be finite")


def indicator(i: int, n: int) -> TestFunction:
    return TestFunction(tuple(1 if k == i else 0 for k in range(n)))


def integrate(mu: DiscreteMeasure, phi) -> object:
    values = phi.values if isinstance(phi, TestFunction) else tuple(phi)
    if len(values) != mu.n:
        raise ShapeError(f"function has {len(values)} values, measure has {mu.n}")
    return sum(v * w for v, w in zip(values, mu.weights))


def _check_same_space(mu1: DiscreteMeasure, mu2: DiscreteMeasure):
    if mu1.n != mu2.n:
        raise DomainError("measures live on spaces of different sizes")
    if (
        mu1.space is not None
        and mu2.space is not None
        and mu1.space is not mu2.space
        and mu1.space != mu2.space
    ):
        raise DomainError("measures live on different spaces")


def measures_equal(mu1, mu2, mode="weights", tol=None) -> bool:
    """Equality by weight vectors or by integrals of singleton indicators.

    The two modes agree on finite spaces; both are kept so the agreement is
    itself testable.
    """
    _check_same_space(mu1, mu2)
    if tol is None:
        tol = default_tol(infer_mode(mu1.weights + mu2.weights))
    if mode == "weights":
        return all(abs(a - b) <= tol for a, b in zip(mu1.weights, mu2.weights))
    if mode == "test_functions":
        n = mu1.n
        return all(
            abs(integrate(mu1, indicator(i, n)) - integrate(mu2, indicator(i, n)))
            <= tol
            for i in range(n)
        )
    raise DomainError(f"unknown comparison mode {mode!r}")
