"""A host-speed probe that runs in between the program's own steps.

On a shared host the same pure-Python work can take 40% longer for minutes
at a time, as neighbours come and go.  Timing the program alone then
measures the neighbours.  The probe measures them instead: while it is
active, a timer signal interrupts the program every ``INTERVAL_S``, between
two of its bytecodes, and runs a fixed piece of the benchmark's own oracle
work (``WORK``), which imports nothing from semwalk, timing it.  Because the
probe runs inside the same stretch of time as the program, a slow spell
slows both.

The benchmark takes the probe's time out of each request's latency, then
scales each pass by ``NOMINAL_S`` over the median probe duration in that
pass.  A reported time is thus the time the request would take on a host
that runs the probe in ``NOMINAL_S``; a change to the program moves it, a
change in the host's speed does not.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

import oracle

INTERVAL_S = 0.25
# The probe's median duration on the baseline machine (see README.md).
NOMINAL_S = 0.002
# Right congruences closed from fixed pairs, then their reset codes: the
# same dict-, set- and string-heavy work the program does, about 1 ms a round.
WORK = (
    ("ab", 5, [("aabab", "babab")]),
    ("ab", 5, [("abbba", "aabba"), ("babab", "bbbab")]),
    ("abc", 3, [("abc", "cbc")]),
)
ROUNDS = 3
# A request during which fewer probes ran is scaled by this many probes
# nearest to it in time: about two seconds of the host's speed.
NEAREST = 9


class Probe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.total_s = 0.0  # time spent in the probe so far
        self._running = False

    def sample(self, *_signal_args) -> None:
        """Run the probe work once and record its start and duration.

        The collector is paused meanwhile: a collection started by the
        probe's allocations would traverse the program's heap and time the
        program's memory, not the host."""
        if self._running:  # the timer fired during a sample taken by hand
            return
        self._running = True
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        for _ in range(ROUNDS):
            for alphabet, k, pairs in WORK:
                oracle.reset_code(alphabet, k, oracle.closure(alphabet, k, pairs))
        dt = perf_counter() - t0
        if was_enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(dt)
        self.total_s += dt
        self._running = False

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median duration of the probes that started
        between ``start`` and ``end``, or of the NEAREST probes to that
        interval when fewer did."""
        i, j = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
        if j - i < NEAREST:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            i = max(0, min(middle - NEAREST // 2, len(self.starts) - NEAREST))
            j = i + NEAREST
        return NOMINAL_S / statistics.median(self.durations[i:j])

    def __enter__(self) -> Probe:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
