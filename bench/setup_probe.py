"""Set up one workload in a fresh process, then print the time it was ready.

    python3 bench/setup_probe.py <workload> <seed>

`bench/run.py` spawns this to measure `setup_s`: interpreter start, the
package import chain, input generation from the seed and warm-up.  The
printed value is `time.perf_counter_ns()`, which on Linux reads the
system-wide monotonic clock that the parent started its timer on.
"""

import sys
import time

import workloads

workload = workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter_ns(), flush=True)
workload.close()
