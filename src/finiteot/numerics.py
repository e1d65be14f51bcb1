"""Number handling shared by every module: exact rationals, floats, and +inf.

Two numeric modes run through the whole library.  In "rational" mode all
quantities are `fractions.Fraction` (or int) and comparisons are exact; in
"float" mode quantities are floats and comparisons carry a tolerance.
+inf is always represented by the float infinity, even in rational mode,
where it marks forbidden cost cells.  -inf and NaN are rejected at the door.
The mode of a routine is infer_mode over all the numbers it compares, and
its default tolerance default_tol of that mode; only the solver's pricing
tolerance also scales with the costs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

INF = float("inf")

#: default float-mode tolerance
FLOAT_TOL = 1e-9

RATIONAL = "rational"
FLOAT = "float"


def is_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x)


def check_extended(x, where: str = "entry"):
    """Reject NaN and -inf; +inf passes through."""
    if isinstance(x, float):
        if math.isnan(x):
            raise DataError(f"NaN {where}")
        if x == -INF:
            raise DataError(f"-inf {where}")
    return x


def check_extended_matrix(rows, where: str = "entry"):
    """check_extended on every cell of a matrix, with no Python call per cell.

    Only float cells can be NaN or -inf, and comparing a Fraction runs
    Python code, so the cells are told apart by type first.  The float cells
    are then screened by one C-level sum, which is NaN or -inf whenever a
    cell is (or finite cells overflow); only then are they checked one by one.
    """
    cells = list(chain.from_iterable(rows))
    kinds = set(map(type, cells))
    if kinds == {float}:
        floats = cells
    elif any(issubclass(kind, float) for kind in kinds):
        floats = [x for x in cells if isinstance(x, float)]
    else:
        return
    total = sum(floats)
    if math.isnan(total) or total == -INF:
        for x in floats:
            check_extended(x, where)


def parse_number(value, mode: str):
    """Parse a JSON-level value ("p/q" string, decimal string, or number).

    "inf" / "+inf" / "Infinity" map to +inf in either mode.
    """
    if isinstance(value, str):
        s = value.strip()
        if s.lstrip("+").lower() in ("inf", "infinity"):
            return INF
        if s.startswith("-") and s[1:].lstrip("+").lower() in ("inf", "infinity"):
            raise DataError("-inf is not allowed")
        frac = Fraction(s)  # handles both "p/q" and decimal strings
        return frac if mode == RATIONAL else float(frac)
    if isinstance(value, bool):
        raise DataError("boolean is not a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value) if mode == RATIONAL else float(value)
    if isinstance(value, float):
        check_extended(value)
        if is_inf(value):
            return INF
        # decimal reading keeps 0.1 meaning 1/10, not the binary float
        return Fraction(str(value)) if mode == RATIONAL else value
    raise DataError(f"cannot interpret {value!r} as a number")


def format_number(x) -> str:
    """Serialize losslessly: "p/q" for rationals, 17 significant digits for floats."""
    if is_inf(x):
        return "+inf"
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def mul0(cost, mass):
    """cost * mass with the integration convention 0 * inf = 0."""
    if mass == 0:
        return 0
    if is_inf(cost):
        return INF
    return cost * mass


def infer_mode(values) -> str:
    """Rational iff every value other than +inf is an int or Fraction.

    +inf is any float equal to it, as is_inf sees it: it marks forbidden
    cells in both modes, so it decides nothing.  As in check_extended_matrix,
    values are told apart by type, with no Python call per value.
    """
    values = list(values)
    if not all(issubclass(kind, (int, float, Fraction)) for kind in set(map(type, values))):
        return FLOAT
    floats = [x for x in values if isinstance(x, float)]
    return RATIONAL if floats.count(INF) == len(floats) else FLOAT


def default_tol(mode: str):
    return 0 if mode == RATIONAL else FLOAT_TOL


def pricing_tol(mode: str, max_abs_cost):
    """Default solver tolerance: 0 in rational mode, FLOAT_TOL scaled by the costs."""
    return 0 if mode == RATIONAL else FLOAT_TOL * (1 + float(max_abs_cost))


class ShapeError(ValueError):
    """Mismatched or non-rectangular dimensions."""


class DataError(ValueError):
    """NaN, -inf, or otherwise malformed numeric data."""


class DomainError(ValueError):
    """Input outside an operation's domain (negative weight, space mismatch, ...)."""


class ParameterError(ValueError):
    """Invalid parameter (p < 1, oracle size limit exceeded, ...)."""


class NormalizationError(DomainError):
    """Weights do not sum to one; constructors never renormalize silently."""


class EmptyRestrictionError(DomainError):
    """Restriction mask selects zero mass."""


class GlueError(DomainError):
    """Middle marginals of the two plans to glue do not match."""
