"""Time one workload set-up in a fresh process; print its seconds and a calibration time.

Set-up is importing numpy and d2dsched plus building the workload's configs,
group structures and weights.  Right after it, the process times
``workloads.calibrate()`` (after one warm-up call), so that ``run.py`` can
scale this set-up to the reference speed with a host-speed sample taken in
the same second.  Usage (from the checkout root; ``run.py`` starts it with
one BLAS thread):

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
setup_s = time.perf_counter() - T0
workloads.calibrate()   # warm-up: the first call pays for page faults and RNG set-up
cal_s = (workloads.calibrate() + workloads.calibrate()) / 2.0
print(repr(setup_s), repr(cal_s))
