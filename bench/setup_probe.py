"""Fresh-process set-up probe for one workload.

Imports clfqp, readies the workload exactly as the benchmark does (see
workloads.setup), then prints time.monotonic() at the moment it is ready.
The caller subtracts its own monotonic reading taken before the process
was started, so the figure covers interpreter start, imports and set-up.

Usage, from the repository root:
    python3 bench/setup_probe.py WORKLOAD SEED SCALE
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (needs the source path above)


def main() -> None:
    workload, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.setup(workloads.plan(workload, seed, scale))
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
