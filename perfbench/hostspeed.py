"""Host speed probes, and the correction of measured times by them.

The 2-vCPU VM this benchmark was built on slows by 20 to 100% for stretches
of a fraction of a second to minutes, whatever runs on it, because other
tenants share its cores and memory.  Fastest-of-N filters out the short
stretches but not one that lasts a whole run, and ten runs of a workload
span several minutes.  So every timed span (an operation, a set-up) is
paired with a probe: a fixed piece of work that is not qdp4 code, timed just
before and just after the span.  The span's time is scaled by the probe's
reference time over the probe's mean time, so that it reads as on a host
that runs the probe in its reference time.  A change to qdp4 moves
the corrected time and not the scale.

Two probes, because the host's slowdowns do not hit all work alike: PYTHON
does interpreter work of the kind qdp4's invariants do, NUMPY does table
gathers over arrays of a few MB, as the point-count kernel does.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from fractions import Fraction


class Probe:
    def __init__(self, name, work, ref_ns):
        self.name, self.work, self.ref_ns = name, work, ref_ns

    def once(self):
        """Nanoseconds one run of the work takes, with the garbage collector
        held off, so that the probe measures the host and not the heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            self.work()
            return time.perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()

    def host_ns(self, n):
        """Mean of n runs.  The host switches between a fast and a slow
        state every few seconds, so a probe's time is bimodal; the mean, not
        the median, follows the share of time spent slow."""
        return statistics.mean(self.once() for _ in range(n))

    def corrected(self, ns, host):
        """`ns` as it would read on a host that runs the probe in ref_ns,
        given the probe's time `host` around the measurement."""
        return ns * self.ref_ns / host


def _python_work():
    x, seen, acc = Fraction(1, 3), {}, 0
    for i in range(1, 120):
        x = (x * Fraction(i, i + 1) + 1) / 2
        seen[(i % 13, i % 7)] = acc
        acc += i * i % 7


@functools.cache
def _numpy_inputs():
    # numpy is imported here, not at the top, so that a fresh process that
    # times `import qdp4` still pays for importing numpy.
    import numpy as np
    rng = np.random.default_rng(0)
    table = rng.integers(0, 81, size=(81, 81))
    return np, table, rng.integers(0, 81, size=300_000), rng.integers(0, 81, size=300_000)


def _numpy_work():
    np, table, a, b = _numpy_inputs()
    for _ in range(4):
        a = table[a, b]
    int(np.count_nonzero(a == 0))


# Reference times: about the fastest runs on an idle 2-vCPU VM (x86-64 Xeon
# at 2.1 GHz, Python 3.11, numpy 2.4).
PYTHON = Probe("python", _python_work, 550_000)
NUMPY = Probe("numpy", _numpy_work, 4_400_000)
