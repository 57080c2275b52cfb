"""Host-speed gauge and environment record.

The host this benchmark was sized on changes speed in steps that last
seconds to minutes (the gauge below read 6.5-14 ms within one run, with
CPU time equal to wall time and no steal), so each run times a fixed
reference kernel before every op, after the last op and after every
set-up, outside the timers.  The end-to-end times are scaled by
``REF_NOMINAL_S`` over the gauge read around each of them, and the
gauge's median is reported, so a run that caught a fast or slow stretch
shows it.
"""

import os
import platform
import time
from pathlib import Path

import numpy as np

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_REF_DATA = np.sin(np.arange(20000.0) * 0.37)
# The gauge's typical reading on the sizing host (2-vCPU Xeon, 2.1 GHz):
# scaled op times read as seconds on that host at that speed.
REF_NOMINAL_S = 0.008
_REF_REPS = 3  # the fastest of three passes drops a pass that was preempted


def _reference_pass():
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += (i * i) % 7
    for _ in range(15):
        np.sort(_REF_DATA)
        np.cumsum(_REF_DATA * _REF_DATA)
    return time.perf_counter() - t0


def reference_kernel():
    """Seconds for a fixed mix of interpreter and numpy work with no vacmirror code."""
    return min(_reference_pass() for _ in range(_REF_REPS))


def speed_scale(before, after):
    """Factor that takes an op's latency to the nominal host speed."""
    return 2.0 * REF_NOMINAL_S / (before + after)


def cpu_ticks():
    """(steal, total) jiffies of the aggregate cpu line in /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user and nice
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_fraction(before, after):
    if before is None or after is None or after[1] == before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def git_sha(root):
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = Path(root) / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    import scipy

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "client_threads": 1,
    }
