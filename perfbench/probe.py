"""Set-up probe: import homlab and build one workload's parsed inputs, then exit.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>

``run.py`` times whole runs of this script in fresh interpreters; that wall
time is what every CLI call pays before it starts working.  The probe times
the reference work just before and just after the set-up and prints both
times and what they cost, so that ``run.py`` can take host speed out.
"""

import sys
import time

from speed import reference_time

t0 = time.perf_counter()
before = reference_time()
spent = time.perf_counter() - t0

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))

t0 = time.perf_counter()
after = reference_time()
spent += time.perf_counter() - t0
print(before, after, spent)
