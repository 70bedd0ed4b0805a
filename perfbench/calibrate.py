"""A clock that does not drift with the host's CPU speed.

On a shared VM the speed of one vCPU wanders by a quarter either way over
seconds to minutes: the same batch took 1.6x as long from one minute to the
next. Worker CPU time drifts the same way, and so does a probe run on the
other vCPU. What does track it is a fixed probe run on the same CPU, in the
same process, interleaved finely with the program: the ratio of a word's
time to the neighbouring probes' time stayed within a few per cent while
the word's own time moved by half.

`Clock` installs an interval timer. Every PERIOD_S seconds the timer
interrupts the program (between bytecodes, on the main thread) and runs
`probe`, a fixed piece of stdlib-only work of the kind spinlink spends its
time on: dict updates with tuple keys, int arithmetic and a sort. Each probe's
raw start and end are kept.

`Timeline` turns those into normalized time. Probes do not count, and the gap
between two probes is scaled by REF_PROBE_S / (mean of the two probe times),
so a normalized time reads as seconds on a host where one probe takes
REF_PROBE_S. Before the first probe and after the last, the nearest two probes
set the scale. Every end-to-end time is a difference of two `Timeline.at`
readings.

`Clock.now` is the same clock read live, for the traced run's spans: it
cannot see the next probe, so it scales the time since the last probe by the
median of the last SMOOTH probes. It is monotonic and never counts a probe.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
REF_PROBE_S = 0.0035
SMOOTH = 5


def probe() -> int:
    d: dict[tuple[int, int], int] = {}
    for i in range(10_000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * (i + 1)
    return len(sorted((a, b * 3) for a, b in d.items()))


class Clock:
    """Probes the host's speed while the program runs."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # raw (start, end) of each probe
        self.base = 0.0      # live reading at the end of the last probe
        self.last_end = 0.0
        self.rate = 1.0      # live normalized seconds per raw second since then

    def _probe(self, *_) -> None:
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        if self.probes:
            self.base += (t0 - self.last_end) * self.rate
        self.probes.append((t0, t1))
        self.last_end = t1
        self.rate = REF_PROBE_S / statistics.median(e - s for s, e in self.probes[-SMOOTH:])

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def now(self) -> float:
        return self.base + (perf_counter() - self.last_end) * self.rate

    def stop(self) -> list[tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe()
        return self.probes


class Timeline:
    """Normalized time at any raw `perf_counter` reading, from a worker's probes."""

    def __init__(self, probes: list[tuple[float, float]]):
        self.starts = [s for s, _ in probes]
        self.ends = [e for _, e in probes]
        durations = [e - s for s, e in probes]
        pairs = list(zip(durations, durations[1:])) or [(durations[0], durations[0])]
        # rates[i]: the gap after probe i; the first and last extend to either side
        self.rates = [2 * REF_PROBE_S / (a + b) for a, b in pairs]
        self.cum = [0.0]  # reading at the end of each probe
        for i, rate in enumerate(self.rates[:len(probes) - 1]):
            self.cum.append(self.cum[-1] + (self.starts[i + 1] - self.ends[i]) * rate)
        self.probe_s = statistics.median(durations)

    def at(self, t: float) -> float:
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self.rates[0]
        return self.cum[i] + max(t - self.ends[i], 0.0) * self.rates[min(i, len(self.rates) - 1)]

    def between(self, a: float, b: float) -> float:
        return self.at(b) - self.at(a)
