"""Set-up probe, started in a fresh interpreter by run.py.

    python3 bench/probe.py WORKLOAD

Prints two figures: the seconds spent importing ``gmacdist`` and
``gmacdist.cli`` plus the seconds spent on the workload's warm-up op, and
then the process's peak RSS in KiB.  The benchmark's own imports (JSON
schemas) are left out of the time.
"""
import resource
import sys
import time

import run


def main(argv) -> int:
    name = argv[0]
    run._import_library()
    t0 = time.perf_counter()
    import gmacdist  # noqa: F401
    import gmacdist.cli  # noqa: F401
    imported = time.perf_counter() - t0

    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    t1 = time.perf_counter()
    for step in workload.op(run.WARMUP_SEED, -1).steps:
        step.run()
    warm = time.perf_counter() - t1
    print(f"{imported + warm:.9f} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
