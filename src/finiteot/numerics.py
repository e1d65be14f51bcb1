"""Number handling shared by every module: exact rationals, floats, and +inf.

What a number is, is decided here, by one rule (INTEGERS, EXACT, FLOATS).
Two numeric modes run through the whole library.  In "rational" mode all
quantities are exact and comparisons are exact; in "float" mode
quantities are floats and comparisons carry a tolerance, which meets the
integers of exact data through _floor only.  +inf is always a float
infinity, even in rational mode, where it marks forbidden cost cells.
-inf and NaN are rejected at the door.  The mode of a routine is mode_of
its inputs, the one place where modes combine: rational iff every input
is, where a measure, cost matrix, plan or extended function decided its
mode when it was built and bare numbers are read by infer_mode.  Every
check takes its tolerance from check_tol: a given one must be a
nonnegative number, and None is 0 in rational mode and in float mode
FLOAT_TOL * (1 + the largest magnitude compared), masses counting as 0.
Only solve_kantorovich decides its own: its tol prices costs.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import partial
from itertools import chain, compress, repeat, starmap
from operator import ne

import numpy as np

INF = float("inf")

#: default float-mode tolerance, relative to the largest magnitude compared
FLOAT_TOL = 1e-9
#: float-mode slack on a measure's total mass
WEIGHT_SUM_TOL = 1e-12

RATIONAL = "rational"
FLOAT = "float"


#: The rule: integers (read as the Python ints they equal), exact numbers
#: and floats; text is refused where a matrix is read, and any other value
#: reads as a float.
INTEGERS = (int, np.integer, np.bool_)
EXACT = (*INTEGERS, Fraction)
FLOATS = (float, np.floating)


#: the types python_numbers keeps as they are
PYTHON_NUMBERS = {int, bool, Fraction, float}


def python_numbers(values) -> tuple:
    """values as a tuple, each numpy scalar the Python number it equals."""
    values = tuple(values)
    if set(map(type, values)) <= PYTHON_NUMBERS:
        return values
    return tuple(x.item() if isinstance(x, np.generic) else x for x in values)


def number_kind(kind) -> int:
    """The kind of a type's values in sum()'s order: 0 integer, 1 Fraction, 2 float or other."""
    return 0 if issubclass(kind, INTEGERS) else 1 if issubclass(kind, Fraction) else 2


def is_inf(x) -> bool:
    return isinstance(x, FLOATS) and math.isinf(x)


def check_extended(x, where: str = "entry"):
    """Reject NaN and -inf; +inf passes through."""
    if isinstance(x, FLOATS):
        if math.isnan(x):
            raise DataError(f"NaN {where}")
        if x == -INF:
            raise DataError(f"-inf {where}")
    return x


def extended_array(rows, what: str):
    """(array, mode, bounds) of a rectangular matrix: one read-only ndarray,
    its mode (infer_mode's over the cells), and its least and largest cell.

    rows is a 2-D ndarray or a sequence of rows of one length (the caller
    checks that, with its own message); what names the matrix in errors.
    The array holds the cells in the mode's arithmetic: float64 in float
    mode (exact cells rounded as float() rounds them); int64, or an object
    array of Python ints, Fractions and +inf, in rational mode.  NaN and
    -inf are refused as check_extended refuses them ("NaN <what> entry", at
    the first such cell), by array operations on the float64 cells.

    A list of rows is packed with one struct call per row, which converts
    a cell as float() or operator.index() does, where the first cell of
    row 0 other than +inf (which decides no mode) says how: as float64
    after a finite float, and as int64 after an integer, if every cell
    packs.  An ndarray is read by its dtype: integers within int64's range
    as int64, and floats as float64 unless every cell is +inf.  Any other
    matrix is decided by one scan of its cells' types (_scanned).

    bounds is (min, max) over the cells as Python numbers, for a nonempty
    float64 or int64 array (max is +inf when a cell is), else None.
    """
    if isinstance(rows, np.ndarray):
        A = np.array(rows)  # a copy: the caller keeps its own
        if A.ndim != 2:
            raise ShapeError(f"{what} matrix must be 2-D, not of shape {A.shape}")
        if A.dtype.kind in "biu" and np.can_cast(A.dtype, np.int64):
            A = A.astype(np.int64, copy=False)
            A.flags.writeable = False
            return A, RATIONAL, (A.min().item(), A.max().item()) if A.size else None
        if A.dtype.kind == "f" and (A != INF).any():  # not all +inf
            A = A.astype(np.float64, copy=False)
            A.flags.writeable = False
            return A, FLOAT, _check_floats(A, what)
        shape, cells = A.shape, A.ravel().tolist()
    else:
        first = next(filter(partial(ne, INF), rows[0]), None) if rows else None
        if type(first) is float and abs(first) < INF:
            A = _packed(rows, "d")
            if A is not None:
                return A, FLOAT, _check_floats(A, what)
        elif isinstance(first, INTEGERS):
            A = _packed(rows, "q")
            if A is not None:
                return A, RATIONAL, (A.min().item(), A.max().item())
        shape, cells = (len(rows), len(rows[0]) if rows else 0), [*chain.from_iterable(rows)]
    return _scanned(cells, shape, what)


def _scanned(cells, shape, what):
    """extended_array of the row-major cells of a matrix of the shape, by
    their types: a str or bytes cell is refused by name (numpy would parse
    it), and exact cells are held as Python numbers in an object array."""
    kinds = set(map(type, cells))
    if any(issubclass(kind, (str, bytes)) for kind in kinds):
        k = next(k for k, x in enumerate(cells) if isinstance(x, (str, bytes)))
        raise DataError(f"{what} entry [{k // shape[1]}][{k % shape[1]}] is text, not a number: {cells[k]!r}")
    if _mode(cells, kinds) == FLOAT:
        A = np.array(cells, dtype=np.float64).reshape(shape)
        A.flags.writeable = False
        return A, FLOAT, _check_floats(A, what)
    A = np.array(python_numbers(cells), dtype=object).reshape(shape)
    A.flags.writeable = False
    return A, RATIONAL, None


def _packed(rows, code):
    """The rows as one read-only n x m array of struct code "d" (float64) or
    "q" (int64), or None when a cell does not pack into it."""
    n, m = len(rows), len(rows[0])
    try:
        data = b"".join(starmap(struct.Struct(f"{m}{code}").pack, rows))
    except (struct.error, OverflowError):
        return None
    return np.frombuffer(data, np.float64 if code == "d" else np.int64).reshape(n, m)


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
    """Rational iff every value other than +inf is exact (EXACT).

    +inf is any float equal to it, as is_inf sees it: it marks forbidden
    cells in both modes, so it decides nothing.  Values are told apart by
    type, with no Python call per value.
    """
    values = list(values)
    return _mode(values, set(map(type, values)))


def _mode(values, kinds):
    """infer_mode of the list values, whose set of types is kinds."""
    if all(issubclass(kind, EXACT) for kind in kinds):
        return RATIONAL
    if not all(issubclass(kind, (*EXACT, *FLOATS)) for kind in kinds):
        return FLOAT
    floats = compress(values, map(isinstance, values, repeat(FLOATS)))
    return FLOAT if any(map(partial(ne, INF), floats)) else RATIONAL


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
    """(ints, scale): exact numbers as Python ints over one positive scale.

    scale is the least common multiple of the denominators and ints[k] is
    values[k] * scale, so ints compare, add and multiply as the numbers do.
    When every value is an int they come back as they are with scale 1,
    with no per-value call.  Integers are the ints they equal, and floats
    are read as the binary fractions they are; +inf has no ratio, and
    as_integer_ratio raises OverflowError on it.  With exact, it is None
    unless every value is exact (not even +inf), told apart by type.
    """
    values = list(values)
    return _scaled_ints(values, set(map(type, values)), exact)


def _scaled_ints(values, kinds, exact=False):
    """scaled_ints of the sequence values, whose set of types is kinds."""
    if kinds <= {int}:
        return values, 1
    if exact and not all(issubclass(kind, EXACT) for kind in kinds):
        return None
    try:
        ratios = [x.as_integer_ratio() for x in values]
    except AttributeError:  # numpy integers and bools have no as_integer_ratio
        ratios = [(int(x), 1) if isinstance(x, INTEGERS) else x.as_integer_ratio() for x in values]
    scale = math.lcm(*{q for _, q in ratios})
    return [p * (scale // q) if p else 0 for p, q in ratios], scale


def _floor(tol, scale):
    """floor(tol * scale) as a Python int, exactly, for a positive int scale
    (an infinite tol stays as it is): on integers x, x < -tol * scale
    iff x < -_floor(tol, scale).  A tolerance meets integers here only."""
    if isinstance(tol, FLOATS) and not math.isfinite(tol):
        return tol
    p, q = (int(tol), 1) if isinstance(tol, INTEGERS) else tol.as_integer_ratio()
    return p * scale // q


def default_tol(mode: str, scale=0):
    """0 in rational mode, else FLOAT_TOL * (1 + scale), where scale is the
    largest magnitude a check compares (0 for masses): roundoff grows with it."""
    return 0 if mode == RATIONAL else FLOAT_TOL * (1 + float(scale))


def check_tol(tol, mode: str, scale=None):
    """The tolerance a check compares within: a given tol, which must be a
    nonnegative number (ParameterError on anything else, NaN included), or
    for None default_tol(mode, scale()).  scale, a function of no arguments
    (None for masses, 0), is called only for a float-mode default."""
    if tol is None:
        return default_tol(mode, scale() if scale and mode != RATIONAL else 0)
    if not (isinstance(tol, (*EXACT, *FLOATS)) and tol >= 0):
        raise ParameterError(f"tol must be a nonnegative number, not {tol!r}")
    return tol


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
