"""Host speed calibration for the benchmark's latencies.

On a shared 2-core Intel Xeon host the speed of one core switches between
two levels about 2x apart, from within a second to minutes at a time
(presumably other load on the same physical core); CPU time does not
leave this out, because the core itself runs slower.  So the benchmark
times a fixed piece of work of its own, the mix of interpreted loops and
small numpy array operations that finiteot's solvers do, next to every op,
and reports each op in reference seconds: its CPU time scaled by
REFERENCE_S / (the calibration's CPU time around it).
A reference second is a second of a core on which calibrate() takes
REFERENCE_S.  The work never touches finiteot, so no library change can
move it.
"""

from __future__ import annotations

from time import process_time

import numpy as np

#: a round figure between calibrate()'s CPU time at the two speeds of that
#: host (about 2.5 ms and 4.3 ms); it only sets the unit
REFERENCE_S = 0.003

_N = 100
_RNG = np.random.default_rng(0)
_C = _RNG.random((_N, _N))
_U = _RNG.random(_N)
_V = _RNG.random(_N)
_X = [float(i % 97) for i in range(512)]


def _work():
    """Pricing scans over a dense matrix, a tree walk and a float loop."""
    acc = 0.0
    for _ in range(16):
        reduced = _C - _U[:, None] - _V[None, :]
        acc += int(np.argmin(reduced))
        seen = [False] * (2 * _N)
        stack = [0]
        seen[0] = True
        while stack:
            x = stack.pop()
            for y in ((x * 7 + 1) % (2 * _N), (x * 13 + 5) % (2 * _N), (x + 1) % (2 * _N)):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        for i in range(1, 512):
            acc += _X[i] * _X[i - 1] - _X[(i * 7) % 512]
    return acc


def calibrate() -> float:
    """CPU seconds of one run of the fixed work."""
    start = process_time()
    _work()
    return process_time() - start
