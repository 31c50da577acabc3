"""Set-up probe: a fresh interpreter that imports the package, builds one
workload's inputs and prints the monotonic clock, then exits.

``run.py`` reads the same clock just before starting this process, so the
difference is the set-up a user pays before the first timed call.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time

import workloads

workloads.prepare(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
