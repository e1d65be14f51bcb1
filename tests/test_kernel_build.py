"""The compiled kernel's import-time build, in fresh interpreters.

Each case starts `python -c "import finiteot"` with XDG_CACHE_HOME pointed
at a new, empty directory and reads back finiteot.KERNEL_INFO.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finiteot
from finiteot.solver import _compiled

from test_solver import FLOAT_PINS

SRC = str(Path(finiteot.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

REPORT = (
    "import dataclasses, json, finiteot; "
    "print(json.dumps(dataclasses.asdict(finiteot.KERNEL_INFO)))"
)
#: REPORT, with the pivots and cost of a criterion-10 solve under "solved"
SOLVE = (
    "import dataclasses, json, finiteot; from test_solver import criterion10_instance; "
    "sol = finiteot.solve_kantorovich(*criterion10_instance(120), mode='float'); "
    "print(json.dumps({**dataclasses.asdict(finiteot.KERNEL_INFO), "
    "'solved': [sol.iterations, repr(sol.optimal_cost)]}))"
)

needs_compiler = pytest.mark.skipif(
    _compiled.find_compiler() is None, reason="no C compiler found"
)


def start(cache, script=REPORT, **env):
    full = dict(os.environ)
    full.pop("FINITEOT_FORCE_PURE", None)
    full.update(env, XDG_CACHE_HOME=str(cache))
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, TESTS, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", script],
        env=full,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def report(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def libraries(cache):
    folder = cache / "finiteot"
    if not folder.exists():
        return []
    suffix = _compiled.library_path().suffix
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(suffix))


@needs_compiler
def test_concurrent_first_imports_build_one_library(tmp_path):
    cache = tmp_path / "cache"
    procs = [start(cache), start(cache)]
    infos = [report(p) for p in procs]
    assert [info["kernel"] for info in infos] == ["compiled", "compiled"], infos
    if _compiled.fcntl is not None:  # the lock lets only one of them compile
        reasons = sorted(info["reason"] for info in infos)
        assert reasons == ["built into the cache", "loaded from the cache"], infos
    assert len(libraries(cache)) == 1, os.listdir(cache / "finiteot")
    assert {info["library"] for info in infos} == {
        str(cache / "finiteot" / libraries(cache)[0])
    }
    # a warm import finds the library and builds nothing
    warm = report(start(cache))
    assert warm["kernel"] == "compiled"
    assert warm["reason"] == "loaded from the cache"


@needs_compiler
@pytest.mark.skipif(_compiled.fcntl is None, reason="the sweep needs flock")
def test_build_deletes_stale_cache_files(tmp_path):
    folder = tmp_path / "cache" / "finiteot"
    folder.mkdir(parents=True)
    current = _compiled.library_path().name
    stale = ["dense-00000000.so", "dense-00000000.so.lock", "dense-00000000.soq1w2e3r4.tmp",
             current + "z9x8c7v6.tmp"]
    for name in stale:
        (folder / name).write_text("stale")
    info = report(start(tmp_path / "cache"))
    assert info["reason"] == "built into the cache", info
    assert sorted(os.listdir(folder)) == [current, current + ".lock"]


def test_force_pure_compiles_nothing(tmp_path):
    cache = tmp_path / "cache"
    info = report(start(cache, SOLVE, FINITEOT_FORCE_PURE="1"))
    # the Python simplex repeats the compiled kernel's pivots and plan
    iterations, cost = FLOAT_PINS["criterion10_120"][1]
    assert info["solved"] == [iterations, repr(cost)]
    assert info["kernel"] == "python"
    assert info["library"] is None
    assert "forced" in info["reason"]
    assert libraries(cache) == []


#: REPORT, with a rational solve's engine, pivots, cost and plan under "solved"
RATIONAL_SOLVE = (
    "import dataclasses, json, finiteot; from test_kernels import rational_instance; "
    "sol = finiteot.solve_kantorovich(*rational_instance(12)); "
    "print(json.dumps({**dataclasses.asdict(finiteot.KERNEL_INFO), 'solved': [sol.engine, "
    "sol.iterations, str(sol.optimal_cost), [list(map(str, r)) for r in sol.plan.matrix]]}))"
)
#: the entry points of the cached library, as [float build, int64 build]
EXPORTS = (
    "import ctypes, json, finiteot; lib = ctypes.CDLL(finiteot.KERNEL_INFO.library); "
    "print(json.dumps([hasattr(lib, 'fot_solve_dense'), hasattr(lib, 'fot_solve_exact')]))"
)


@needs_compiler
def test_one_library_exports_both_builds(tmp_path):
    cache = tmp_path / "cache"
    assert report(start(cache))["reason"] == "built into the cache"
    # a warm import loads the one library, which holds both entry points
    assert report(start(cache, EXPORTS)) == [True, True]
    assert len(libraries(cache)) == 1


@needs_compiler
def test_force_pure_rational_solve_compiles_nothing(tmp_path):
    compiled = report(start(tmp_path / "warm", RATIONAL_SOLVE))
    assert compiled["solved"][0] == "compiled"
    cache = tmp_path / "cache"
    pure = report(start(cache, RATIONAL_SOLVE, FINITEOT_FORCE_PURE="1"))
    assert pure["solved"] == ["python", *compiled["solved"][1:]]
    assert libraries(cache) == []


def test_missing_compiler_falls_back_with_reason(tmp_path):
    cache = tmp_path / "cache"
    info = report(start(cache, PATH=str(tmp_path)))
    assert info["kernel"] == "python"
    assert "no C compiler" in info["reason"]
    assert libraries(cache) == []


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
def test_compile_error_falls_back_with_reason(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\necho 'broken-cc: cannot compile' >&2\nexit 3\n")
    cc.chmod(0o755)
    cache = tmp_path / "cache"
    info = report(start(cache, PATH=str(bin_dir)))
    assert info["kernel"] == "python"
    assert "compile error" in info["reason"]
    assert "broken-cc: cannot compile" in info["reason"]
    assert libraries(cache) == []


@needs_compiler
def test_unwritable_cache_falls_back_with_reason(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    info = report(start(blocker))
    assert info["kernel"] == "python"
    assert "cache not writable" in info["reason"]


@needs_compiler
def test_kernel_compiles_clean_under_strict_warnings(tmp_path):
    # the loader's flags plus every warning of -Wall -Wextra -pedantic, as errors
    lib = tmp_path / "dense.so"
    cmd = [_compiled.find_compiler(), *_compiled.CFLAGS, "-Wall", "-Wextra", "-pedantic",
           "-Werror", "-o", str(lib), str(_compiled.SOURCE), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert lib.exists()


#: the twin battery through the library at sys.argv[1]: every identity
#: family on both builds, then rational and zero-weight solves through
#: solve_kantorovich; prints the number of kernel runs
BATTERY = """
import sys
from pathlib import Path
from unittest import mock
import test_kernels as tk
from finiteot import solver
from finiteot.solver import _compiled

kernel = _compiled.CompiledKernel(Path(sys.argv[1]), False)
runs = 0
for family in tk.TWIN_FAMILIES:
    for a, b, C, tol, *rel_tol in tk.identity_instances(family):
        tk.check_same_pivots(kernel, a, b, C, tol, *rel_tol)
        runs += 1
problems = tk.rational_problems(300) + [(*p, None) for p in tk.zero_weight_problems(150)]
with mock.patch.object(solver, "_kernel", kernel):
    for mu1, mu2, cost, tol in problems:
        assert tk.outcome(mu1, mu2, cost, tol)[0] == "compiled"
        runs += 1
print(runs)
"""


def sanitized_kernel(tmp_path, flags, runtime):
    """_dense.c built by the loader's flags plus flags, in tmp_path; skips
    the test when the compiler cannot build a library with flags (the
    sanitizer's runtime is missing)."""
    compiler = _compiled.find_compiler()
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x + 1; }\n")
    cmd = [compiler, "-shared", "-fPIC", *flags, "-o", str(tmp_path / "probe.so"), str(probe)]
    if subprocess.run(cmd, capture_output=True, timeout=120).returncode != 0:
        pytest.skip(f"the C compiler cannot build with {flags[0]} (no {runtime})")
    lib = tmp_path / "dense-sanitized.so"
    cmd = [compiler, *_compiled.CFLAGS, *flags, "-o", str(lib), str(_compiled.SOURCE), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return lib


def run_battery(lib, **env):
    full = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, TESTS)), **env)
    full.pop("FINITEOT_FORCE_PURE", None)
    proc = subprocess.run([sys.executable, "-c", BATTERY, str(lib)], env=full,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert int(proc.stdout.split()[-1]) > 1000
    return proc


@needs_compiler
def test_kernel_runs_the_twin_battery_free_of_undefined_behaviour(tmp_path):
    # the loader's build with every undefined-behaviour check on: a signed
    # overflow, an out-of-bounds shift or a misaligned read in either build
    # stops the battery with the sanitizer's report
    lib = sanitized_kernel(tmp_path, ("-fsanitize=undefined", "-fno-sanitize-recover=undefined"),
                           "libubsan")
    proc = run_battery(lib)
    assert "runtime error" not in proc.stderr, proc.stderr[-3000:]


@needs_compiler
def test_kernel_runs_the_twin_battery_inside_its_memory(tmp_path):
    # the loader's build under AddressSanitizer, whose runtime is preloaded
    # into an interpreter built without it; leaks are not checked, since the
    # interpreter keeps memory to its exit.  fot_solve allocates one block
    # for all its working arrays, so the sanitizer stops a read or write
    # past that block, but not one from one array into the next inside it
    lib = sanitized_kernel(tmp_path, ("-fsanitize=address",), "libasan")
    runtime = subprocess.run([_compiled.find_compiler(), "-print-file-name=libasan.so"],
                             capture_output=True, text=True, timeout=120).stdout.strip()
    env = {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    preloaded = os.path.isabs(runtime) and subprocess.run(
        [sys.executable, "-c", "pass"], env=dict(os.environ, **env), capture_output=True, timeout=120
    ).returncode == 0
    if not preloaded:
        pytest.skip("the AddressSanitizer runtime cannot be preloaded")
    proc = run_battery(lib, **env)
    assert "AddressSanitizer" not in proc.stderr, proc.stderr[-3000:]
