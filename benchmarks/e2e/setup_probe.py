"""One fresh-interpreter start: import finiteot, then one warm-up op.

Run by run.py with src/ on PYTHONPATH:

    python3 benchmarks/e2e/setup_probe.py --workload float-dense --seed 1

Prints {"import_s": ..., "setup_s": ...}: the CPU time of this process,
and of any process it waits for, from just before `import finiteot` to
after the import and to the end of the warm-up op, in reference seconds
(see calibration.py).  CPU time leaves out the time this process spends
descheduled, and a kernel built or loaded by a child process at import
still counts.  The host calibration runs only after the clock stops,
because it imports numpy, which finiteot's own import must pay for.  The
warm-up input is generated before the clock starts; building the
workload's metric spaces counts as set-up.
"""

import argparse
import json
import resource
import statistics
import time

from instances import make_workload

#: calibrations averaged; the host's speed changes within a second
CALIBRATIONS = 3


def cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = make_workload(args.workload, args.seed)

    start = cpu_seconds()
    import finiteot  # noqa: F401

    imported = cpu_seconds()
    from ops import Ops

    Ops(workload).run(workload.warmup)
    done = cpu_seconds()
    from calibration import REFERENCE_S, calibrate

    calibrate()  # the first call pays for warming its code and data
    scale = REFERENCE_S / statistics.mean(calibrate() for _ in range(CALIBRATIONS))
    print(json.dumps({
        "import_s": (imported - start) * scale,
        "setup_s": (done - start) * scale,
    }))


if __name__ == "__main__":
    main()
