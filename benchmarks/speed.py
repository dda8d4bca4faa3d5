"""Reference speed probe: scales timings to a fixed machine speed.

Shared hosts of the kind the benchmark runs on lend their cores to other
work, and their speed swings by up to a factor of two within seconds; the
raw wall time of a pass then spreads far more between runs than any
change worth measuring.  So every timed piece of work is bracketed by a
probe, a fixed piece of pure-Python ``Fraction`` arithmetic that calls no
linnij code, run in the same process just before and just after it.  The
work's wall time is multiplied by ``PROBE_REF_S`` over the mean of the two
probe times.  A scaled time reads as the wall time the work takes on a
host where the probe takes ``PROBE_REF_S``; it moves when the program
does, not when the host's load does.
"""

import time
from fractions import Fraction

#: The probe's time on an unloaded 2-CPU KVM guest (Intel Xeon at 2.1 GHz)
#: under Python 3.11.  Only the scale of the reported times depends on it.
PROBE_REF_S = 0.88e-3


def _work():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


def probe():
    """Seconds one run of the reference work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def warm_up():
    """Run the probe a few times, so the interpreter's first-call costs
    stay out of the first measured probe."""
    for _ in range(3):
        probe()


def scale(seconds, probe_before, probe_after):
    """``seconds`` of work bracketed by two probes, at the reference speed."""
    return seconds * 2.0 * PROBE_REF_S / (probe_before + probe_after)
