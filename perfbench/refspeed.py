"""A fixed reference probe that tracks the speed of the machine.

On a small shared machine the same code runs at two speeds about 1.6x
apart and can hold either for tens of seconds, so a 30 s reading of any
timed step depends on how long the machine spent in each. The probe below
does a fixed piece of pure-Python work shaped like the program's tape
(small objects linked to their parents, float arithmetic) and takes about
0.5 ms at full speed. Of the probes tried it tracked the program best: over
40 s, 2 s windows of one-window `anticipate` calls varied 1.47x raw and
1.06x scaled; a probe with small numpy calls left 1.10x, a bare integer
loop 1.19x.

A run probes at every phase boundary. Each timed interval is scaled by
NOMINAL_PROBE_S over the mean of the two probes that bracket it, so the
reported times are those of a machine on which the probe takes
NOMINAL_PROBE_S. The scaled and the raw figures are both recorded.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_PROBE_S = 0.0005
PROBE_STEPS = 1500


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents, backward):
        self.value = value
        self.parents = parents
        self.backward = backward


def _work() -> float:
    start = time.perf_counter()
    node = None
    acc = 0.0
    for i in range(PROBE_STEPS):
        node = _Node(acc, (node,), None)
        acc = acc * 0.5 + i
    return time.perf_counter() - start


def probe() -> float:
    """Seconds for the reference work; the faster of two tries drops interrupts."""
    return min(_work(), _work())


def scale(probe_s: float) -> float:
    """Factor for a time measured while the probe took `probe_s` seconds."""
    return NOMINAL_PROBE_S / probe_s


def reference_times(count: int = 50) -> dict[str, float]:
    """Probe times at one moment of a run (its start or its end)."""
    times = [probe() for _ in range(count)]
    return {"median_s": statistics.median(times), "min_s": min(times), "max_s": max(times)}


class SpeedMeter:
    """Probes taken at interval boundaries, and the scale of each interval.

    Interval k runs from the end of probe k to the start of probe k + 1; its
    scale is `scale` of the mean of those two probes.
    """

    def __init__(self):
        self.before: list[float] = []
        self.after: list[float] = []
        self.probes: list[float] = []

    def mark(self) -> None:
        self.before.append(time.perf_counter())
        self.probes.append(probe())
        self.after.append(time.perf_counter())

    def factor(self, k: int) -> float:
        if len(self.probes) < 2:
            return 1.0
        k = min(max(k, 0), len(self.probes) - 2)
        return scale(0.5 * (self.probes[k] + self.probes[k + 1]))

    def between(self, start: float, end: float, scaled: bool = True) -> float:
        """Seconds from start to end outside the probes, each interval scaled."""
        total = 0.0
        t = start
        while t < end:
            k = bisect.bisect_right(self.after, t) - 1
            if k + 1 < len(self.before):
                stop, resume = self.before[k + 1], self.after[k + 1]
            else:
                stop = resume = end
            if min(end, stop) > t:
                total += (min(end, stop) - t) * (self.factor(k) if scaled else 1.0)
            t = resume
        return total
