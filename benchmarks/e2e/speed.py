"""Host speed, probed while a workload runs: timings in reference seconds.

The reference machine is a 2-core VM on a shared host, and its speed
changes in episodes of seconds to minutes: a fixed pure-Python loop
takes 0.9 ms in one stretch and up to 1.7 ms in another, and the
program slows with it.  A wall time taken across such episodes measures the
neighbours as much as the program.

So a workload probes the host while it runs.  A probe times
:func:`probe_loop`, a fixed pure-Python loop that belongs to the
benchmark, not the program, and takes :data:`REFERENCE_SECONDS` on the
reference machine in a calm stretch.  Between two probes the host ran
at ``REFERENCE_SECONDS / probe seconds`` of that speed (the mean of
the two probes' rates).  Integrating that rate over an interval gives
its *reference seconds*: what the same work would have taken on the
calm reference machine.  Time spent in probes counts for nothing.

On the reference machine, 209 back-to-back repeats of a 1.6 s replay
spread (quartile distance over median) 31% in wall seconds and 6% in
reference seconds, and their reference seconds did not drift with the
host's speed.  A change to the program moves its reference seconds as
it moves its wall time on a steady machine; the probe loop does not
change with it.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Iterations of the probe loop.
PROBE_LOOPS = 8000
#: Seconds one probe takes on the reference machine (2-core Xeon VM,
#: 2.1 GHz, CPython 3.11) in a calm stretch.
REFERENCE_SECONDS = 0.001
#: Seconds between timer-driven probes: about 1.5% of the run.
INTERVAL = 0.1

Interval = Tuple[float, float]


def probe_loop() -> int:
    """The fixed work a probe times: dictionary updates in a loop."""
    table: Dict[int, int] = {}
    for index in range(PROBE_LOOPS):
        key = index % 1000
        table[key] = table.get(key, 0) + index
    return len(table)


class SpeedLog:
    """Probes of the host's speed (``perf_counter`` start and end of
    each), and intervals converted to reference seconds with them.

    ``perf_counter`` reads the system-wide monotonic clock, so a log
    taken in one process converts intervals timed in another.
    """

    def __init__(self, probes: Sequence[Interval] = ()) -> None:
        self.probes: List[Interval] = [(start, end) for start, end in probes]
        self._busy = False
        self._knots: Optional[Tuple[List[float], List[float],
                                    List[float]]] = None

    def sample(self) -> None:
        """Time one probe now."""
        if self._busy:   # a timer tick that arrived during a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            probe_loop()
            self.probes.append((start, time.perf_counter()))
            self._knots = None
        finally:
            self._busy = False

    @contextmanager
    def sampling(self, interval: float = INTERVAL) -> Iterator[None]:
        """Probe every *interval* seconds from a ``SIGALRM`` timer.

        A signal handler runs between two bytecodes of the main thread,
        so this suits work done in this process's main thread; work in
        other processes needs probes of its own.
        """
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            self.sample()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    # -- conversion -------------------------------------------------------
    def _curve(self) -> Tuple[List[float], List[float], List[float]]:
        """Knot times, reference seconds at each knot, and the rate
        from each knot to the next (the last rate runs on)."""
        if self._knots is None:
            if not self.probes:
                raise RuntimeError("no speed probes were taken")
            rates = [REFERENCE_SECONDS / (end - start)
                     for start, end in self.probes]
            times: List[float] = []
            slopes: List[float] = []
            for index, (start, end) in enumerate(self.probes):
                following = rates[min(index + 1, len(rates) - 1)]
                times += [start, end]
                slopes += [0.0, (rates[index] + following) / 2]
            values = [0.0]
            for index in range(1, len(times)):
                values.append(values[-1] + slopes[index - 1]
                              * (times[index] - times[index - 1]))
            self._knots = times, values, slopes
        return self._knots

    def _clock(self, moment: float) -> float:
        times, values, slopes = self._curve()
        index = bisect_right(times, moment) - 1
        if index < 0:   # before the first probe: the first gap's rate
            return (moment - times[0]) * slopes[1]
        return values[index] + (moment - times[index]) * slopes[index]

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` (``perf_counter`` readings) in
        reference seconds."""
        return self._clock(end) - self._clock(start)

    def seconds(self, intervals: Sequence[Interval]) -> List[float]:
        return [self.reference_seconds(start, end) for start, end in intervals]

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 on the calm
        reference machine, up to 1.7 in a slow stretch of it."""
        return statistics.median(end - start for start, end
                                 in self.probes) / REFERENCE_SECONDS
