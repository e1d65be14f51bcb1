"""Loader for the compiled kernel (_dense.c, called through ctypes).

The shared library is built from _dense.c on first use with the system C
compiler (no Python headers, no Cython) and cached in
$XDG_CACHE_HOME/finiteot/ (default ~/.cache/finiteot/) under a name that
carries the hash of the source and flags, so an edited source gets a new
library.  Concurrent first imports serialize on a lock file and publish the
library with an atomic os.replace; a build then deletes leftover temporary
files and the libraries and lock files of other keys.  A warm load only
hashes the source and opens the cached library, starting no child process.

The one library holds two builds of the same algorithm, the C port of
simplex.transportation_simplex: fot_solve_dense over doubles, and
fot_solve_exact over int64 numbers, which runs the rational problems that
solver._exact_input finds to fit in int64 and hands over as int64 arrays,
forbidden cells marked FORBIDDEN_INT64, which it prices as the float
build prices +inf, and the tolerance floored.  load() returns a kernel
with KERNEL_NAME and solve_dense(a, b, C, tol, rel_tol) -> (X,
iterations, summary), which picks the build by the dtype of C, and
forbidden_cells(C) is the mask of C's forbidden cells in either build's
marking.  Both engines run check_problem first: it refuses what neither
takes, with one text, and gives the block size and the pivot limit both
use.  The kernel reads each array's data pointer from its id, which
needs CPython (_data_offset).  The engine checks and prices its own plan:
summary holds the mass on forbidden cells, the price, the worst row and
column gaps and the least cell, from one pass over X in C (summarize in
_dense.c), the numbers simplex.summary defines.
simplex.transportation_simplex takes the same arrays and returns the same
triple: on the same input, +inf cells included, both builds take its
pivots and return its plan and its summary.  load() raises
KernelUnavailable, whose message is the reason, when the library can be
neither found, built nor used.
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

try:
    import fcntl
except ImportError:  # no flock: concurrent builds still publish atomically
    fcntl = None

KERNEL_NAME = "compiled"
SOURCE = Path(__file__).with_name("_dense.c")
CFLAGS = ("-O3", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")
#: C compilers looked for on PATH, in order
COMPILERS = ("cc", "gcc", "clang")

#: the error returns of fot_solve_dense and fot_solve_exact
_PIVOT_LIMIT = -1
_NO_MEMORY = -2
_NOT_POSITIVE = -3
#: lines of compiler stderr kept in a failure reason
_STDERR_TAIL = 10

#: the mark of a forbidden cell in an int64 cost array, where +inf has no
#: place.  Under solver._exact_input's fit every potential is below 2^60 in
#: magnitude, so the mark less two of them lies between 2^61 and
#: 2^62 + 2^61: above every finite cost and reduced cost, and short of
#: int64's 2^63, so it is priced as it is (see _dense.c)
FORBIDDEN_INT64 = 2**62
#: the dtypes of the float build and the int64 build: a set, which finds
#: a dtype with no comparison of two different dtypes (numpy's is slow cold)
_FLOAT64, _INT64 = np.dtype(np.float64), np.dtype(np.int64)
_BUILDS = {_FLOAT64, _INT64}


#: the ValueError of both engines on a weight that is not positive, or is infinite
NOT_POSITIVE = "the engines need positive weights, none infinite; pass the support"
#: the RuntimeError of both engines past their pivot limit
PIVOT_LIMIT = "the engines stopped at their pivot limit, {limit} pivots, on a {n}x{m} problem"


def forbidden_cells(C):
    """The mask of C's forbidden cells: FORBIDDEN_INT64 in an int64 array, else +inf."""
    return C == (FORBIDDEN_INT64 if C.dtype == _INT64 else np.inf)


def check_problem(a, b, C, objects=False):
    """(n, m, block, limit) of the problem (a, b, C): the one check both
    engines run first, and the one place of the numbers they share.

    a (n,), b (m,) and C (n, m), with n, m >= 1, must share one dtype:
    float64 or int64, or object when objects is true (the Python simplex
    only); else the ValueError of both engines.  block is the block
    search's size, about sqrt(n m) cells (Kovacs, Optim. Methods Softw.
    30(1), 2015) but computed as max(64, floor(exp(log(n m) / 2))), which
    falls one short of the root at most perfect squares: the block size
    decides which entering cell is found first, and the recorded pivots
    rest on it.  limit is the pivot limit, 10000 + 200 (n + m) max(n, m);
    an engine past it raises PIVOT_LIMIT's RuntimeError.
    """
    dtype, shape = C.dtype, C.shape
    if (
        len(shape) != 2 or a.shape != shape[:1] or b.shape != shape[1:] or 0 in shape
        or a.dtype != dtype or b.dtype != dtype
        or not (dtype in _BUILDS or objects and dtype == object)
    ):
        raise ValueError(
            f"the engines need a (n,), b (m,), C (n, m) with n, m >= 1 and one dtype, "
            f"float64 or int64 (or object, in the Python simplex only); got a {a.shape} "
            f"{a.dtype}, b {b.shape} {b.dtype}, C {shape} {dtype}"
        )
    n, m = shape
    block = int(math.exp(0.5 * math.log(n * m)))
    return n, m, block if block > 64 else 64, 10000 + 200 * (n + m) * (n if n > m else m)


class KernelUnavailable(RuntimeError):
    """The compiled kernel cannot be loaded; the message says why."""


def find_compiler():
    """Path of the first C compiler found on PATH, or None."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "finiteot"


def library_path() -> Path:
    # crc32, not hashlib: numpy has loaded zlib already, and importing
    # hashlib would add several milliseconds to every import of finiteot
    key = zlib.crc32(SOURCE.read_bytes() + " ".join(CFLAGS).encode())
    return cache_dir() / f"dense-{key:08x}.so"


def _build(lib: Path, compiler) -> bool:
    """Compile SOURCE into lib under a lock; publish it with os.replace.

    Returns False when another process built lib while this one waited.
    """
    import subprocess

    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        lock = open(lib.parent / (lib.name + ".lock"), "w")
    except OSError as exc:
        raise KernelUnavailable(f"cache not writable: {exc}") from exc
    with lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)
        if lib.exists():
            return False
        try:
            fd, tmp = tempfile.mkstemp(dir=lib.parent, prefix=lib.name, suffix=".tmp")
            os.close(fd)
        except OSError as exc:
            raise KernelUnavailable(f"cache not writable: {exc}") from exc
        try:
            cmd = [compiler, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True)
            except OSError as exc:
                raise KernelUnavailable(f"cannot run {compiler}: {exc}") from exc
            if proc.returncode != 0:
                tail = "\n".join(proc.stderr.strip().splitlines()[-_STDERR_TAIL:])
                raise KernelUnavailable(
                    f"compile error ({' '.join(cmd)}, exit {proc.returncode}):\n{tail}"
                )
            os.replace(tmp, lib)
            _sweep(lib)
            return True
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _sweep(keep: Path):
    """Delete the cache's other dense-* libraries, lock files and temporaries.

    Runs after keep is published, under its lock, so a temporary of keep's
    own key is left over from a killed build.  Another key's files go only
    when its lock can be taken without waiting: a build of another source
    that is under way keeps them.
    """
    if fcntl is None:
        return
    folder = keep.parent
    for stem in {p.name.partition(".so")[0] for p in folder.glob("dense-*")}:
        base = stem + ".so"
        if base == keep.name:
            for tmp in folder.glob(base + "*.tmp"):
                tmp.unlink(missing_ok=True)
            continue
        try:
            with open(folder / (base + ".lock"), "a") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                for path in folder.glob(base + "*"):
                    path.unlink(missing_ok=True)
        except OSError:  # locked by a build in progress, or not removable
            continue


class CompiledKernel:
    """ctypes binding of fot_solve_dense and fot_solve_exact from one shared library."""

    KERNEL_NAME = KERNEL_NAME

    def __init__(self, path: Path, built: bool):
        self._data_at = _data_offset()
        if self._data_at is None:
            raise KernelUnavailable(
                "the kernel reads each array's data pointer from its id, which needs CPython"
            )
        self.path = path
        self.built = built
        lib = ctypes.CDLL(str(path))
        self._fns = {
            _FLOAT64: _bind(lib.fot_solve_dense, ctypes.c_double),
            _INT64: _bind(lib.fot_solve_exact, ctypes.c_int64),
        }

    def solve_dense(self, a, b, C, tol, rel_tol=0.0):
        """Minimize <C, X> over the transportation polytope; +inf cells are forbidden.

        a, b and C pass check_problem; an int64 C runs the exact build, on
        an int tol, with FORBIDDEN_INT64 marking a forbidden cell, and a
        float64 C the float build.  Each array goes to the kernel in C
        order (one that is not is copied), as its id and the offset
        _data_offset found, so the call builds no Python object per array,
        and the kernel needs CPython.  A cell enters when its reduced cost
        r = c - u - v is below -tol and, in the float build, below
        -rel_tol (|c| + |u| + |v|) (see _dense.c).  Every weight must be
        positive, as the strongly feasible start needs, and finite:
        ValueError otherwise, as from transportation_simplex.  On a problem
        with no finite-cost plan, X puts the least possible mass on
        forbidden cells, as transportation_simplex does.  Returns (X,
        iterations, summary), summary a list of five Python numbers of X's
        type: [forbidden mass, price, worst row gap, worst column gap,
        least cell] (see simplex.summary).
        """
        n, m, block, limit = check_problem(a, b, C)
        # the arrays outlive the call, which reads their data through their ids
        a, b, C = np.ascontiguousarray(a), np.ascontiguousarray(b), np.ascontiguousarray(C)
        X, summary = np.empty((n, m), C.dtype), np.empty(5, C.dtype)
        iterations = self._fns[C.dtype](
            n, m, block, limit, id(a), id(b), id(C), tol, rel_tol, id(X), id(summary), self._data_at
        )
        if iterations == _PIVOT_LIMIT:
            raise RuntimeError(PIVOT_LIMIT.format(limit=limit, n=n, m=m))
        if iterations == _NO_MEMORY:
            raise MemoryError(f"dense kernel could not allocate for {n}x{m}")
        if iterations == _NOT_POSITIVE:
            raise ValueError(NOT_POSITIVE)
        return X, iterations, summary.tolist()


def _data_offset():
    """The offset from an ndarray's id of the data pointer PyArray_DATA reads
    (part of numpy's ABI), found on a probe; None outside CPython, where
    id() need not be an address, and the kernel is then unavailable.
    Passing ids builds no Python object per array, where .ctypes and
    __array_interface__ build several: benchmark ops ran 2.7% to 10.3%
    longer per pass with __array_interface__ (BENCH_input_checks.json,
    ablation_address_read)."""
    if sys.implementation.name != "cpython":
        return None
    probe, read = np.zeros(4), ctypes.c_void_p.from_address
    for offset in range(0, 64, ctypes.sizeof(ctypes.c_void_p)):
        if read(id(probe) + offset).value == probe.ctypes.data:
            return offset
    return None


def _bind(fn, number):
    """fn with the argument types of fot_solve_dense over one number type:
    n, m, block and limit, then each array as the id the kernel reads its
    data pointer from, at the offset that is the last argument."""
    size, array = ctypes.c_int64, ctypes.c_void_p
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        size, size, size, size, array, array, array, number, ctypes.c_double, array, array, size,
    ]
    return fn


def load() -> CompiledKernel:
    """The compiled kernel, built into the cache first if it is not there."""
    lib = library_path()
    built = False
    if not lib.exists():
        compiler = find_compiler()
        if compiler is None:
            raise KernelUnavailable(
                f"no C compiler ({', '.join(COMPILERS)}) found on PATH to build {lib.name}"
            )
        built = _build(lib, compiler)
    try:
        return CompiledKernel(lib, built)
    except OSError as exc:
        raise KernelUnavailable(f"cannot load {lib}: {exc}") from exc
