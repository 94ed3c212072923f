"""Cold start of one workload, run by `run.py` in a fresh interpreter.

Usage: python3 bench/probe.py <workload> <seed> <tmp dir>

Sets the workload up, runs its first op, checks it, and prints
`time.perf_counter()` at that moment.  On Linux that clock is
CLOCK_MONOTONIC, shared by every process, so the parent subtracts its own
reading from just before the spawn to get interpreter start to first op.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402 - needs the path above

workload = workloads.make(sys.argv[1], sys.argv[3])
workload.setup(int(sys.argv[2]))
try:
    sent, got, _ = workload.op(0)
    done = time.perf_counter()
finally:
    workload.teardown()
if got != sent:
    sys.exit(f"{sys.argv[1]}: op 0 decoded {got!r}, sent {sent!r}")
print(repr(done))
