"""Time one workload set-up in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <work dir>

Set-up is the import of hamca (and numpy through it), seeded input
generation and, for the CLI workloads, writing and loading the config.
Prints the raw seconds and the host kernel's mean sample during them;
run.py starts this several times per run and reports the median.
"""

import importlib
import sys

from hostclock import HostClock


def setup():
    workloads = importlib.import_module("workloads")
    workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3]).setup()


clock = HostClock()
((i, _),) = clock.time_each([setup])
print(clock.intervals[i][0], clock.intervals[i][1])
