"""Entry point: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process and prints its result as the last line
of standard output. See README.md in this directory.
"""

import os
import sys

# One BLAS thread: the workloads are single-threaded Python, and a thread
# pool sized to the machine only adds scheduling noise to small solves.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

if __name__ == "__main__":
    import bench_core

    sys.exit(bench_core.main())
