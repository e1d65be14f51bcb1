"""Number handling shared by every module: exact rationals, floats, and +inf.

Two numeric modes run through the whole library.  In "rational" mode all
quantities are `fractions.Fraction` (or int) and comparisons are exact; in
"float" mode quantities are floats and comparisons carry a tolerance.
+inf is always represented by the float infinity, even in rational mode,
where it marks forbidden cost cells.  -inf and NaN are rejected at the door.
The mode of a routine is mode_of its inputs, the one place where modes
combine: rational iff every input is, where a measure, cost matrix, plan
or extended function decided its mode when it was built and bare numbers
are read by infer_mode.  Its default tolerance is default_tol of that
mode; only the solver's pricing tolerance also scales with the costs.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import partial
from itertools import chain, starmap
from operator import ne

import numpy as np

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


def extended_array(rows, what: str):
    """(array, mode, bounds) of a rectangular matrix: one read-only ndarray,
    its mode, and its least and largest cell.

    rows is a 2-D ndarray or a sequence of rows of one length (the caller
    checks that, with its own message); what names the matrix in errors.
    The mode is infer_mode's over the cells, and the array holds them in
    that mode's arithmetic: float64 in float mode (exact cells rounded as
    float() rounds them); int64, bool, or an object array of the exact
    cells and +inf in rational mode.  NaN and -inf are rejected as
    check_extended rejects them ("NaN <what> entry", at the first such
    cell), by array operations on the float64 cells.  A str or bytes cell
    is refused with a DataError that names it: text is not a number here,
    though numpy would parse it as one.

    The mode is read off the first cell of row 0 that is not +inf (which
    decides no mode) wherever it can be.  Then each row is packed with one
    struct call, which converts a cell as float() or operator.index() does,
    with no numpy dispatch per cell, and numpy reads the joined bytes as
    they are:

    - after a finite float, the rows pack as float64, in float mode;
    - after a Python int (not a bool), they pack as int64, in rational
      mode, when every cell is an int, a bool or a numpy integer in int64's
      range.  numpy's reading gives the same, except for numpy.uint64
      cells, which it reads as float64 beside ints.

    Any other matrix, and any whose rows do not pack (+inf, a float or a
    Fraction among ints, an int beyond int64's or float's range, None,
    text), goes to numpy's dtype discovery, which decides as infer_mode
    does: int and bool arrays are rational; a float64 array is float when
    every cell is below 2^63 in size, and else (+inf cells, or ints that
    numpy read as floats because they fit neither int64 nor uint64
    together) infer_mode reads the cells' types; an object array gets that
    type scan too.

    bounds is (min, max) over the cells as Python numbers, for a nonempty
    float64, int64 or bool array: on floats from the two reductions that
    the NaN and -inf check makes (max is +inf when a cell is).  An object
    or empty array has bounds None.
    """
    if isinstance(rows, np.ndarray):
        A = np.array(rows)  # a copy: the caller keeps its own
        if A.ndim != 2:
            raise ShapeError(f"{what} matrix must be 2-D, not of shape {A.shape}")
    else:
        first = next(filter(partial(ne, INF), rows[0]), None) if rows else None
        if type(first) is float and abs(first) < INF:
            A = _packed(rows, "d")
            if A is not None:
                return A, FLOAT, _check_floats(A, what)
        elif type(first) is int:
            A = _packed(rows, "q")
            if A is not None:
                return A, RATIONAL, (A.min().item(), A.max().item())
        A = np.array(rows).reshape(len(rows), -1 if rows and rows[0] else 0)
    kind = A.dtype.kind
    bounds = None
    if A.size == 0:
        mode = infer_mode(())
    elif kind == "b" or kind in "iu" and np.can_cast(A.dtype, np.int64):
        mode = RATIONAL
        A = A if kind == "b" else A.astype(np.int64, copy=False)
        bounds = A.min().item(), A.max().item()
    elif kind == "f":
        A = A.astype(np.float64, copy=False)
        bounds = lo, hi = _check_floats(A, what)
        mode = FLOAT
        if lo <= -_INT64_SIZE or hi >= _INT64_SIZE:
            cells = rows.tolist() if isinstance(rows, np.ndarray) else rows
            mode = infer_mode(chain.from_iterable(cells))
            if mode == RATIONAL:
                A = np.array(cells, dtype=object)
                bounds = None
    else:
        A = A.astype(object, copy=False)
        # the cells as given: numpy makes every cell of a list text when one is
        cells = A.ravel().tolist() if isinstance(rows, np.ndarray) else [*chain.from_iterable(rows)]
        _refuse_text(cells, A.shape[1], what)
        mode = infer_mode(cells)
        if mode == FLOAT:
            A = A.astype(np.float64)
            bounds = _check_floats(A, what)
    A.flags.writeable = False
    return A, mode, bounds


def _packed(rows, code):
    """The rows as one read-only n x m array of struct code "d" (float64) or
    "q" (int64), or None when a cell does not pack into it."""
    n, m = len(rows), len(rows[0])
    try:
        data = b"".join(starmap(struct.Struct(f"{m}{code}").pack, rows))
    except (struct.error, OverflowError):
        return None
    return np.frombuffer(data, np.float64 if code == "d" else np.int64).reshape(n, m)


def _refuse_text(cells, m, what):
    """Raise DataError at the first str or bytes cell of cells, the
    row-major cells of a matrix of m columns."""
    if any(issubclass(kind, (str, bytes)) for kind in set(map(type, cells))):
        k = next(k for k, x in enumerate(cells) if isinstance(x, (str, bytes)))
        raise DataError(f"{what} entry [{k // m}][{k % m}] is text, not a number: {cells[k]!r}")


#: the size from which a float64 cell may be an int that numpy read as a float
_INT64_SIZE = 2.0**63


def _check_floats(F, what):
    """Raise check_extended's DataError at F's first NaN or -inf cell; else
    (min(F), max(F)) as Python floats.

    The minimum over float64 cells is NaN or -inf exactly when a cell is,
    so one reduction screens the array.
    """
    lo = np.minimum.reduce(F, axis=None, initial=INF)
    if not lo > -INF:
        check_extended(F.flat[np.argmax(np.isnan(F) | (F == -INF))].item(), f"{what} entry")
    return lo.item(), np.maximum.reduce(F, axis=None, initial=-INF).item()


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
    cells in both modes, so it decides nothing.  Values are told apart by
    type, with no Python call per value.
    """
    values = list(values)
    kinds = set(map(type, values))
    if not all(issubclass(kind, (int, float, Fraction)) for kind in kinds):
        return FLOAT
    if not any(issubclass(kind, float) for kind in kinds):
        return RATIONAL
    floats = [x for x in values if isinstance(x, float)]
    return RATIONAL if floats.count(INF) == len(floats) else FLOAT


def mode_of(*parts) -> str:
    """Rational iff every part is: an object that decided its mode when it
    was built (its .mode), or bare numbers, read by infer_mode.

    A plain loop: a generator would add a Python call per part.
    """
    for part in parts:
        mode = getattr(part, "mode", None)
        if (infer_mode(part) if mode is None else mode) != RATIONAL:
            return FLOAT
    return RATIONAL


def scaled_ints(values, exact=False):
    """(ints, scale): exact numbers as integers over one positive scale.

    scale is the least common multiple of the denominators and ints[k] is
    values[k] * scale, so ints compare, add and multiply as the numbers do.
    When every value is an int they come back as they are with scale 1,
    with no per-value call.  Floats are read as the binary fractions they
    are; +inf has no ratio, and as_integer_ratio raises OverflowError on it.
    With exact, it is None unless every value is an int or a Fraction (not
    even +inf), told apart by type as infer_mode tells them.
    """
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values, 1
    if exact and not all(issubclass(kind, (int, Fraction)) for kind in kinds):
        return None
    try:
        ratios = [x.as_integer_ratio() for x in values]
    except AttributeError:  # numpy integers have no as_integer_ratio
        ratios = [(int(x.numerator), int(x.denominator)) for x in map(Fraction, values)]
    scale = math.lcm(*{q for _, q in ratios})
    return [p * (scale // q) if p else 0 for p, q in ratios], scale


def _floor(tol, scale):
    """floor(tol * scale), exactly; an infinite tolerance stays as it is."""
    if isinstance(tol, float) and not math.isfinite(tol):
        return tol
    return tol * scale if isinstance(tol, int) else math.floor(Fraction(tol) * scale)


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
