"""Prints one verdict line per acceptance criterion at the end of the run,
and holds count_python_calls and count_calls, the helpers of the tests that
bound a routine's calls."""

import sys

from finiteot import solver

CRITERIA = {
    "test_criterion_01_oracle_equivalence": (1, "oracle equivalence"),
    "test_criterion_02_feasibility_invariant": (2, "feasibility invariant"),
    "test_criterion_03_coupling_characterization": (3, "coupling characterization"),
    "test_criterion_04_metric_suite": (4, "metric suite"),
    "test_criterion_05_gluing": (5, "gluing"),
    "test_criterion_06_restriction_optimality": (6, "restriction optimality"),
    "test_criterion_07_moreau_yosida": (7, "moreau-yosida"),
    "test_criterion_08_tail_bound": (8, "tail bound"),
    "test_criterion_09_liminf": (9, "liminf inequality"),
    "test_criterion_10_scale": (10, "scale"),
}

_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    if name in CRITERIA:
        _RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for name, (number, label) in sorted(CRITERIA.items(), key=lambda kv: kv[1][0]):
        if name not in _RESULTS:
            continue
        verdict = "PASS" if _RESULTS[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} ({label}): {verdict}")


def count_python_calls(monkeypatch, *solves):
    """[(calls, result)] of each solve(): its Python-level calls, as "call"
    events of sys.setprofile, and what it returned.

    Counting calls, unlike timing them, does not depend on the host's
    speed.  The engine runs uncounted, its pivots being its own work: the C
    kernel when it is loaded, else the Python simplex.  So with the kernel
    loaded, a solve sent to the Python simplex instead counts its calls for
    every pivot.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    def uncounted(engine):
        def run(*args, **kwargs):
            sys.setprofile(None)
            try:
                return engine(*args, **kwargs)
            finally:
                sys.setprofile(count)

        return run

    if solver._kernel is not None:
        kernel = solver._kernel

        class Uncounted:
            solve_dense = staticmethod(uncounted(kernel.solve_dense))

        monkeypatch.setattr(solver, "_kernel", Uncounted)
    else:
        monkeypatch.setattr(
            solver, "transportation_simplex", uncounted(solver.transportation_simplex)
        )
    counts = []
    for solve in solves:
        calls = 0
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = solve()
        finally:
            sys.setprofile(previous)
        counts.append((calls, result))
    return counts


def count_calls(monkeypatch, *solves):
    """[(calls, result)] of each solve(): its "call" and "c_call" events of
    sys.setprofile, and what it returned.

    Unlike count_python_calls, this also counts each call of a function or
    method written in C: len, isinstance, np.empty, an ndarray method such
    as tolist, a ufunc method such as np.add.reduce.  Calling a ufunc itself
    (np.abs(X)) and operators on arrays (X != 0, X[mask], a - b) raise no
    profiler event, so they are not counted.  The engine runs uncounted: the
    C kernel's ctypes call raises no event, and when the kernel is not
    loaded the Python simplex runs with the profiler off.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" or event == "c_call"

    if solver._kernel is None:
        engine = solver.transportation_simplex

        def uncounted(*args, **kwargs):
            sys.setprofile(None)
            try:
                return engine(*args, **kwargs)
            finally:
                sys.setprofile(count)

        monkeypatch.setattr(solver, "transportation_simplex", uncounted)
    counts = []
    for solve in solves:
        calls = 0
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = solve()
        finally:
            sys.setprofile(previous)
        counts.append((calls, result))
    return counts
