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
from fractions import Fraction
from functools import cached_property, partial
from operator import le

import numpy as np

from .numerics import (
    FLOAT,
    INF,
    RATIONAL,
    DomainError,
    NormalizationError,
    ShapeError,
    check_extended,
    default_tol,
    is_inf,
    mode_of,
    python_numbers,
    scaled_ints,
)

WEIGHT_SUM_TOL = 1e-12  # float-mode slack on the total mass


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability weights on the points of a finite space.

    Zero-weight points are kept; indices stay aligned with the space; a
    numpy scalar is kept as the Python number it equals.  Weights that are
    all Python floats (one scan of their types) are screened by min, max
    and their left-to-right sum (the total, NaN when a weight is), and only
    a failed screen checks them one by one.  Other weights are checked on
    their scaled ints when every one is exact, else as one float64 array.
    The check keeps what it built as the cached scaled_weights or
    float_weights, and the other is derived on first use.  It also sets
    mode, rational iff every weight is exact.  float_positive and
    scaled_positive say whether every weight is positive in those two
    formats: set by the check from the minimum it took, else found on
    first use (an exact weight such as Fraction(1, 10**400) is positive
    but rounds to 0.0).
    """

    weights: tuple
    space: object = None  # optional FiniteMetricSpace

    def __post_init__(self):
        w = tuple(self.weights)
        kinds = set(map(type, w))
        if kinds == {float}:
            # added left to right: np.sum adds pairwise, which can change the
            # last bits that WEIGHT_SUM_TOL is compared with
            total, lo = sum(w), min(w)
            # min and max may pass over a NaN, but the sum then is NaN
            if not (lo >= 0 and max(w) < INF and total == total):
                _refuse_weights(w)
            self._set_floats(w, total)
            vars(self)["float_positive"] = lo > 0
        else:
            w = python_numbers(w)
            if not w:
                raise DomainError("measure needs at least one point")
            scaled = scaled_ints(w, exact=True)
            if scaled is not None:
                # rational mode, checked on the weights' scaled ints
                ints, scale = scaled
                lo = min(ints)
                if lo < 0:
                    raise DomainError(f"negative weight {next(x for x, k in zip(w, ints) if k < 0)}")
                if sum(ints) != scale:
                    raise NormalizationError(f"weights sum to {Fraction(sum(ints), scale)}, not 1")
                vars(self).update(mode=RATIONAL, scaled_weights=(ints, scale), scaled_positive=lo > 0)
            else:
                # weights at least 0 as given (not NaN) and below +inf pass
                try:
                    screened = all(map(partial(le, 0), w)) and max(w) < INF
                except TypeError:  # not numbers: judged one by one below
                    screened = False
                if not screened:
                    _refuse_weights(w)
                self._set_floats(w, sum(w))
        object.__setattr__(self, "weights", w)
        if self.space is not None and self.space.n != len(w):
            raise ShapeError("weights do not match the space size")

    def _set_floats(self, w, total):
        """Check the total of the float-mode weights w, then record float
        mode and their float64 array."""
        if abs(total - 1) > WEIGHT_SUM_TOL:
            raise NormalizationError(f"weights sum to {total!r}, not 1")
        a = np.array(w, dtype=np.float64)
        a.flags.writeable = False
        vars(self).update(mode=FLOAT, float_weights=a)

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def float_weights(self):
        """The weights as a read-only float64 array, exact ones rounded."""
        a = np.array(self.weights, dtype=np.float64)
        a.flags.writeable = False
        return a

    @cached_property
    def scaled_weights(self):
        """(ints, scale) of scaled_ints: floats read as the binary fractions they are."""
        return scaled_ints(self.weights)

    @cached_property
    def float_positive(self) -> bool:
        """Whether every weight of float_weights is positive (they are all >= 0)."""
        return bool(self.float_weights.all())

    @cached_property
    def scaled_positive(self) -> bool:
        """Whether every weight of scaled_weights is positive."""
        return 0 not in self.scaled_weights[0]

    def support(self):
        return [i for i, w in enumerate(self.weights) if w > 0]


def _refuse_weights(w):
    """Raise at the first weight of w, in order, that is NaN or -inf (as
    check_extended does), +inf or negative; of the others, those whose
    floats have the sign bit set, or are NaN or +inf, are judged as given
    (a tiny negative Fraction reads -0.0)."""
    a = np.array(w, dtype=np.float64)
    for k in np.logical_or(np.signbit(a), np.logical_not(a < INF)).nonzero()[0].tolist():
        x = check_extended(w[k], "weight")
        if is_inf(x):
            raise DomainError("infinite weight")
        if x < 0:
            raise DomainError(f"negative weight {x}")


def new_measure(weights, space=None) -> DiscreteMeasure:
    return DiscreteMeasure(tuple(weights), space)


def dirac(i: int, n: int, space=None) -> DiscreteMeasure:
    if not 0 <= i < n:
        raise IndexError(f"dirac index {i} out of range for size {n}")
    return DiscreteMeasure(tuple(1 if k == i else 0 for k in range(n)), space)


def empirical_from_samples(sample_indices, n: int, space=None) -> DiscreteMeasure:
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
    """A function on the points: its value vector, numpy scalars read as Python numbers."""

    __test__ = False  # not a pytest class despite the name

    values: tuple

    def __post_init__(self):
        vals = python_numbers(self.values)
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
        tol = default_tol(mode_of(mu1, mu2))
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
