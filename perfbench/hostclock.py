"""Host-corrected timing.

On a shared host the same Python work can run tens of percent slower in
one process than in the next, and process CPU time slows with it, so raw
seconds do not repeat.  A fixed reference loop, timed again and again
through set-up and the timed phase, reads how fast the host runs this
process; every timing is scaled by ``NOMINAL_REF_S / median(samples)``,
which reports it in seconds of a host that runs the loop in
``NOMINAL_REF_S``.  The loop runs only this module's code, with the
garbage collector off, and allocates no containers.

The host's speed changes within seconds, so the samples are spread
evenly in time: an interval timer interrupts the work every
``SAMPLE_EVERY_S`` and the signal handler takes one sample.  The time
the samples take is kept in ``spent``, and the phases leave it out.
"""

import gc
import signal
import statistics
import time

REF_STEPS = 40_000

# Median of the reference loop on the calibration host (see README.md).
NOMINAL_REF_S = 0.007

SAMPLE_EVERY_S = 0.1


def reference_loop():
    x = 1
    i = 0
    while i < REF_STEPS:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i += 1
    return x


class HostClock:
    """Reference samples of one process, plus the time they took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def sample(self, count=1):
        if self._busy:  # a timer signal during a sample
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                reference_loop()
                t1 = time.perf_counter()
                self.samples.append(t1 - t0)
                self.spent += t1 - t0
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def start(self):
        """Sample every SAMPLE_EVERY_S until stop()."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def correction(ref_samples):
    """Factor that turns raw seconds of a process into nominal seconds."""
    return NOMINAL_REF_S / statistics.median(ref_samples)
