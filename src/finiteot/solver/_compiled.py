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
forbidden cells marked FORBIDDEN_INT64 and the tolerance floored.  load()
returns a kernel with KERNEL_NAME and solve_dense(a, b, C, tol, rel_tol)
-> (X, iterations, summary), which picks the build by the dtype of C, and
forbidden_cells(C) is the mask of C's forbidden cells in either build's
marking.  The engine checks and prices its own plan: summary holds
the mass on forbidden cells, the price, the worst row and column gaps and
the least cell, from one pass over X in C (summarize in _dense.c), as
simplex.plan_summary computes them.  On the same input, +inf cells
included, both builds take the Python simplex's pivots and return its plan
and its summary.  load() raises
KernelUnavailable, whose message is the reason, when the library can be
neither found nor built.
"""

from __future__ import annotations

import ctypes
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
#: place; the caller keeps every finite cost below it (see _dense.c)
FORBIDDEN_INT64 = np.iinfo(np.int64).max


def forbidden_cells(C):
    """The mask of C's forbidden cells: FORBIDDEN_INT64 in an int64 array, else +inf."""
    return C == (FORBIDDEN_INT64 if C.dtype == np.int64 else np.inf)


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
        self.path = path
        self.built = built
        lib = ctypes.CDLL(str(path))
        self._fns = {
            np.float64: _bind(lib.fot_solve_dense, ctypes.c_double),
            np.int64: _bind(lib.fot_solve_exact, ctypes.c_int64),
        }
        self._data_at = _data_offset()

    def solve_dense(self, a, b, C, tol, rel_tol=0.0):
        """Minimize <C, X> over the transportation polytope; +inf cells are forbidden.

        An int64 array C runs the exact build, on int64 weights and an int
        tol, with FORBIDDEN_INT64 marking a forbidden cell; any other C runs
        the float build on float64 arrays.  A cell enters when its reduced
        cost r = c - u - v is below -tol and, in the float build, below
        -rel_tol (|c| + |u| + |v|) (see _dense.c).  Every weight must be
        positive, as the strongly feasible start needs, and finite (ValueError
        otherwise, as from transportation_simplex).  On a problem with no
        finite-cost plan, X puts the least possible mass on forbidden
        cells, as transportation_simplex does.  Returns (X,
        iterations, summary), summary a list of five Python numbers of X's
        type: [forbidden mass, price, worst row gap, worst column gap, least
        cell] (see simplex.plan_summary).
        """
        dtype = np.int64 if getattr(C, "dtype", None) == np.int64 else np.float64
        a = np.ascontiguousarray(a, dtype)
        b = np.ascontiguousarray(b, dtype)
        C = np.ascontiguousarray(C, dtype)
        n, m = C.shape
        if n == 0 or m == 0 or a.shape != (n,) or b.shape != (m,):
            raise ValueError(
                f"solve_dense needs a (n,), b (m,), C (n, m) with n, m >= 1; "
                f"got {a.shape}, {b.shape}, {C.shape}"
            )
        X, summary = np.empty((n, m), dtype), np.empty(5, dtype)
        # the arrays pass as bare addresses: ascontiguousarray and empty have
        # fixed their dtype and layout, and they outlive the call
        arrays, at = (a, b, C, X, summary), self._data_at
        if at is None:
            p = [x.__array_interface__["data"][0] for x in arrays]
        else:
            p = [ctypes.c_void_p.from_address(id(x) + at).value for x in arrays]
        iterations = self._fns[dtype](n, m, p[0], p[1], p[2], tol, rel_tol, p[3], p[4])
        if iterations == _PIVOT_LIMIT:
            raise RuntimeError(f"compiled simplex exceeded its pivot limit on a {n}x{m} problem")
        if iterations == _NO_MEMORY:
            raise MemoryError(f"dense kernel could not allocate for {n}x{m}")
        if iterations == _NOT_POSITIVE:
            raise ValueError("the engines need positive weights, none infinite; pass the support")
        return X, iterations, summary.tolist()


def _data_offset():
    """The offset from an ndarray's id of the data pointer PyArray_DATA reads
    (part of numpy's ABI), found on a probe; None outside CPython, where
    id() need not be an address.  Read there, an address costs a fraction of what
    .ctypes or __array_interface__ cost, which build Python objects.

    Measured end to end (BENCH_input_checks.json, ablation_address_read):
    benchmark ops run in one process with the two reads interleaved, 40
    passes a side, took longer per pass with __array_interface__ by a
    median 4.7% (float-dense) and 9.9% (rational-forbidden) with the
    caches cold, and by 2.7% and 10.3% with them warm; the address read
    was faster in 38 to 40 of the 40 passes of each."""
    if sys.implementation.name != "cpython":
        return None
    probe, read = np.zeros(4), ctypes.c_void_p.from_address
    for offset in range(0, 64, ctypes.sizeof(ctypes.c_void_p)):
        if read(id(probe) + offset).value == probe.ctypes.data:
            return offset
    return None


def _bind(fn, number):
    """fn with the argument types of fot_solve_dense over one number type."""
    array = ctypes.c_void_p
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64, ctypes.c_int64, array, array, array, number, ctypes.c_double, array, array
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
