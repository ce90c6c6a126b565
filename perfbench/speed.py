"""Machine-speed calibration of the timed window.

On a share of a busy host the speed of the same Python code drifts by tens of
per cent over seconds to minutes, so two runs of one commit can differ more
than any useful bound.  While the timed loop runs, a real-time interval timer
interrupts it every ``INTERVAL_S`` and the signal handler runs a fixed
pure-Python reference loop; this works inside a single long call as well as
between short ones.  The loop does integer arithmetic and allocates tuples,
lists and dict entries, as the package does: code that only computes is
slowed less by a busy host than code that allocates.  The collector is off
during a reference run, so the run neither does nor triggers collections of
the program's objects.  A reference run is the fastest of ``REF_PASSES``
passes over the loop, so a pass that the scheduler interrupts does not count
as a slow machine.  Each stretch of work between two reference runs is weighted
by the mean speed the two runs measured.  The sum is the time the work would
have taken on a machine where one pass takes ``REF_NOMINAL_S``: reference
seconds.  The program under test never runs the loop, so a change to the
program moves reference seconds exactly as it moves wall seconds.
"""

import gc
import signal
import statistics
import time

INTERVAL_S = 0.5         # wall time between two reference runs
REF_PASSES = 3           # passes per reference run; the fastest one counts
REF_ITERS = 8_000        # about 3 ms per pass
REF_NOMINAL_S = 0.003    # the reference speed: one pass's time at speed 1.0


def reference_loop(n=REF_ITERS):
    groups, s = {}, 0
    for i in range(n):
        t = (i, i * i % 7, i % 50)
        groups.setdefault(t[2], []).append(t)
        s += t[1]
    return s, sorted(groups)


class SpeedMeter:
    """Reference runs on a timer during the timed work.

    Use as a context manager around the timed loop; ``ref_s`` grows by the
    time spent in reference runs, which a caller timing one answer subtracts.
    ``repeat`` times one set-up step.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.speeds = []         # speed of each reference run, 1.0 = nominal
        self.work_s = 0.0        # wall time between reference runs
        self.ref_s = 0.0         # wall time inside reference runs
        self.reference_s = 0.0   # work_s, each stretch scaled by its speed
        self._end = None         # when the last reference run ended
        self._sampling = False   # a reference run is in progress
        self._old = None

    def sample(self):
        """One reference run; the work since the previous one is credited."""
        self._sampling = True
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        passes = []
        for _ in range(REF_PASSES):
            t = time.perf_counter()
            reference_loop()
            passes.append(time.perf_counter() - t)
        if collecting:
            gc.enable()
        t1 = time.perf_counter()
        speed = REF_NOMINAL_S / min(passes)
        if self._end is not None:
            work = t0 - self._end
            self.work_s += work
            self.reference_s += work * (self.speeds[-1] + speed) / 2
        self.ref_s += t1 - t0
        self.speeds.append(speed)
        self._end = t1
        self._sampling = False

    def repeat(self, fn, n):
        """Reference seconds of one call ``fn()``, and the wall seconds of each.

        ``fn`` is called ``n`` times, with a reference run before the first
        call and after each.  The median wall time (reference runs inside a
        call taken out) is scaled by the mean speed over all ``n`` calls.
        """
        self.sample()
        ref0, work0, walls = self.reference_s, self.work_s, []
        for _ in range(n):
            runs0, t0 = self.ref_s, time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0 - (self.ref_s - runs0))
            self.sample()
        speed = (self.reference_s - ref0) / (self.work_s - work0)
        return statistics.median(walls) * speed, walls

    def _on_alarm(self, signum, frame):
        # the timer can fire during a run that ``repeat`` started
        if not self._sampling:
            self.sample()

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()
        return False
