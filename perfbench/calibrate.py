"""Host-speed calibration of the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by a
third within seconds (a fixed pure-Python loop, timed for 8 s at a time,
spreads 17% between its quartiles on a 2-core VM).  No run length
averages that out, so the end-to-end host timings are calibrated: a
fixed reference workload, the :class:`Probe`, is timed between stretches
of about :data:`SEGMENT_S` of the campaign, and each stretch's wall time
is scaled by ``REFERENCE_PROBE_S`` over the mean of the probe times at
its two ends, each a running median of :data:`SMOOTH` probes.  A
calibrated second is the time the stretch would have taken on a host
that runs the probe in :data:`REFERENCE_PROBE_S`.

The probe runs outside every timed stretch, with the garbage collector
off, so neither its own time nor a collection of the program's heap is
charged to it.  The wall-clock figures are kept beside the calibrated
ones in the benchmark's record.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import time
from typing import List, Sequence

#: Probe time, in seconds, of the host that calibrated seconds refer to
#: (a round figure near the fastest a 2-core x86-64 VM with Python 3.11
#: ran it).
REFERENCE_PROBE_S = 0.7e-3
#: Wall time between probes inside a campaign loop.
SEGMENT_S = 0.25
#: Probes in the running median a stretch's probe time is taken from:
#: single probes are noisy, and over 18 processes of three workloads
#: a median of five scaled the loops more steadily than one probe, a
#: median of three or nine, or the run's median.
SMOOTH = 5


def _rss_mb() -> float:
    """The process's resident set now, in MB (0 where /proc is missing)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError):
        return 0.0


def _best_of_three(work) -> float:
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        work()
        best = min(best, clock() - t0)
    return best


class Probe:
    """The reference workload.  Calling it returns its time now, in s.

    It times two fixed works and takes the geometric mean of their
    times: 10,000 random lookups in a dict of 300,000 ints, a working set
    beyond the core's private caches like the program's node tables, and
    filling a dict of 2048 shuffled keys, which stays in the first-level
    caches.  Timed beside campaigns of ``churn-default`` and
    ``replay-deep`` in 22 processes, the mean of the two tracked the
    loops' speed closer than either work alone.
    """

    def __init__(self) -> None:
        before = _rss_mb()
        rng = random.Random(0)
        self._table = {i: (i * 7919) % 1_000_003 for i in range(300_000)}
        self._keys = tuple(rng.randrange(300_000) for _ in range(10_000))
        small = list(range(2048))
        rng.shuffle(small)
        self._small = tuple(small)
        #: Resident memory the probe's data take (``peak_rss_mb`` leaves
        #: them out).
        self.rss_mb = _rss_mb() - before

    def _lookups(self) -> int:
        table = self._table
        total = 0
        for k in self._keys:
            total += table[k]
        return total

    def _fill(self) -> int:
        d = {}
        for k in self._small:
            d[k] = k
        return len(d)

    def __call__(self) -> float:
        """Geometric mean of the least of three runs of each work."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return math.sqrt(
                _best_of_three(self._lookups) * _best_of_three(self._fill)
            )
        finally:
            if was_enabled:
                gc.enable()


def factor(before: float, after: float) -> float:
    """Scale from wall to calibrated time for a stretch between two probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


class LoopClock:
    """Per-event wall times of a campaign loop, probed every :data:`SEGMENT_S`.

    :meth:`start` probes and starts the clock; :meth:`stamp` (called from
    ``on_round``) closes one event; :meth:`stop` closes the stretch after
    the last event (mirror drain and audit) and probes once more.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.clock = time.perf_counter_ns
        #: Wall time of each event, in ns, probes excluded.
        self.events: List[int] = []
        #: Wall time from the last event to :meth:`stop`, in ns.
        self.tail = 0
        #: Probe times (s); probe ``j`` follows event ``cuts[j] - 1``.
        self.probes: List[float] = []
        self.cuts: List[int] = []
        self._last = 0
        self._segment = 0

    def start(self) -> None:
        self.probes.append(self.probe())
        self.cuts.append(0)
        self._last = self._segment = self.clock()

    def stamp(self) -> None:
        now = self.clock()
        self.events.append(now - self._last)
        self._last = now
        if now - self._segment >= SEGMENT_S * 1e9:
            self.probes.append(self.probe())
            self.cuts.append(len(self.events))
            self._last = self._segment = self.clock()

    def stop(self) -> None:
        self.tail = self.clock() - self._last
        self.probes.append(self.probe())
        self.cuts.append(len(self.events))

    @property
    def wall_s(self) -> float:
        """Loop wall time, probes excluded."""
        return (sum(self.events) + self.tail) / 1e9

    def smoothed(self) -> List[float]:
        """Each probe time replaced by the median of :data:`SMOOTH` around it."""
        half = SMOOTH // 2
        p = self.probes
        return [statistics.median(p[max(0, i - half):i + half + 1])
                for i in range(len(p))]

    def calibrated_event_ms(self) -> List[float]:
        """Each event's calibrated time in ms."""
        p = self.smoothed()
        out: List[float] = []
        for j in range(len(self.cuts) - 1):
            scale = factor(p[j], p[j + 1]) / 1e6
            out.extend(ns * scale for ns in self.events[self.cuts[j]:self.cuts[j + 1]])
        return out

    def calibrated_s(self) -> float:
        """Calibrated loop time in s: the events plus the tail."""
        p = self.smoothed()
        tail = self.tail * factor(p[-2], p[-1]) / 1e9
        return sum(self.calibrated_event_ms()) / 1e3 + tail


def calibrated(wall_s: float, probes: Sequence[float]) -> float:
    """A stretch's calibrated time from its wall time and bracketing probes."""
    return wall_s * factor(probes[0], probes[-1])
