"""Host-speed normalisation for the end-to-end timings.

The benchmark's host is a few CPUs of a shared machine whose speed drifts:
a fixed pure-Python loop takes anywhere from 1x to 2x its fastest time, in
phases that last seconds.  Run-level medians of raw wall time inherit that
drift, so two runs of the same code can differ by more than any useful
regression bound.

Every process that does measured work therefore samples the host's speed
as it goes: about every :data:`INTERVAL_NS` it runs :func:`reference`, a
fixed loop that touches no program code, and records how much CPU time it
took.  A :class:`Timeline` turns those samples into a *speed factor*
``(NOMINAL_NS / reference time) ** SENSITIVITY`` (smoothed over
neighbouring samples) and converts measured durations into **reference
time**: about what the same work would take in the host's fast mode,
where :func:`reference` costs :data:`NOMINAL_NS` of CPU.  The factors do
not depend on the program, so a change that does more or less work moves
reference time just as it moves wall time; the host's drift is divided
out.  The calibration pauses themselves are cut out of the intervals of
the process that ran them.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter_ns, thread_time_ns
from typing import Iterable, List, Optional, Sequence, Tuple

#: CPU time of :func:`reference` on the reference host (about its fastest
#: time on the 2-CPU baseline host, so reference seconds read like wall
#: seconds there in a fast phase)
NOMINAL_NS = 1_000_000
#: a process samples the host's speed at most this often
INTERVAL_NS = 100_000_000
#: each factor is the median of this many neighbouring samples
SMOOTHING = 3
#: how strongly the program's speed follows the reference loop's: the
#: factor is ``(NOMINAL_NS / reference time) ** SENSITIVITY``.  On the
#: baseline host the reference loop runs in two modes, about 1.0 ms and
#: 1.8-2.1 ms, switching every few seconds; the campaign slows less
#: between them (log-log slope 0.61 for small statements, about 0.4 for
#: the huge-literal ones), so a full correction (1.0) over-corrects
#: and doubles the run-to-run spread instead of removing it
SENSITIVITY = 0.5

#: (wall start ns, wall end ns, CPU ns of the reference loop)
Sample = Tuple[int, int, int]


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: str) -> None:
        self.key = key
        self.value = value

    def pick(self, other: int) -> str:
        return self.value if self.key & 1 else self.value[:1] + str(other)


#: the reference loop's working set, built once (the table's contents
#: never change after the first call): the loop itself allocates no
#: object the cyclic garbage collector tracks, so sampling at
#: time-dependent moments does not move the program's collections
_CELLS = [_Cell(i, str(i & 63)) for i in range(64)]
_TABLE: dict = {str(i): "" for i in range(64)}


def reference() -> int:
    """A fixed piece of interpreter work (method calls, attribute and dict
    access, small strings, integer arithmetic); returns its CPU time in ns."""
    start = thread_time_ns()
    cells = _CELLS
    table = _TABLE
    total = 0
    for i in range(4200):
        cell = cells[i & 63]
        value = cell.pick(i)
        table[cell.value] = value
        total += len(value) * (i % 7)
    return thread_time_ns() - start


class Calibrator:
    """The speed samples of one process."""

    def __init__(self) -> None:
        # three parallel lists: appending ints allocates nothing the
        # garbage collector counts
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.cpus: List[int] = []
        self.next_ns = 0

    def sample(self) -> None:
        start = perf_counter_ns()
        cpu = reference()
        end = perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self.cpus.append(cpu)
        self.next_ns = end + INTERVAL_NS

    def maybe(self, now_ns: int) -> None:
        """Sample if the last sample is at least INTERVAL_NS old."""
        if now_ns >= self.next_ns:
            self.sample()

    @property
    def samples(self) -> List[Sample]:
        return list(zip(self.starts, self.ends, self.cpus))


class Timeline:
    """Speed factors over time, and the conversion to reference time.

    *samples* may come from several processes (their wall clocks agree:
    ``perf_counter_ns`` is the system-wide monotonic clock); *pauses* are
    the samples of the process whose intervals are converted (default: all
    of *samples*), whose wall spans count as no time at all.
    """

    def __init__(
        self,
        samples: Iterable[Sequence[int]],
        pauses: Optional[Iterable[Sequence[int]]] = None,
        sensitivity: float = SENSITIVITY,
    ) -> None:
        ordered = sorted((int(s), int(e), int(c)) for s, e, c in samples)
        if not ordered:
            raise ValueError("a timeline needs at least one speed sample")
        half = SMOOTHING // 2
        cpus = [c for _s, _e, c in ordered]
        self.knots: List[int] = [(s + e) // 2 for s, e, _c in ordered]
        self.factors: List[float] = []
        for i in range(len(cpus)):
            window = sorted(cpus[max(0, i - half): i + half + 1])
            speed = NOMINAL_NS / max(1, window[len(window) // 2])
            self.factors.append(speed ** sensitivity)
        # cumulative reference time at each knot
        self.cum: List[float] = [0.0]
        for i in range(1, len(self.knots)):
            step = (self.knots[i] - self.knots[i - 1]) * self.factors[i - 1]
            self.cum.append(self.cum[-1] + step)
        spans = ordered if pauses is None else sorted(
            (int(s), int(e)) for s, e, *_c in pauses
        )
        self.pause_starts: List[int] = [p[0] for p in spans]
        self.pause_ends: List[int] = [p[1] for p in spans]
        self.pause_cum: List[float] = [0.0]
        for start, end in zip(self.pause_starts, self.pause_ends):
            self.pause_cum.append(self.pause_cum[-1] + self._integral(end) - self._integral(start))

    def factor(self, t_ns: int) -> float:
        """Reference ns per wall ns around *t_ns*."""
        return self.factors[max(0, bisect_right(self.knots, t_ns) - 1)]

    def _integral(self, t_ns: int) -> float:
        i = bisect_right(self.knots, t_ns) - 1
        if i < 0:
            return (t_ns - self.knots[0]) * self.factors[0]
        return self.cum[i] + (t_ns - self.knots[i]) * self.factors[i]

    def at(self, t_ns: int) -> float:
        """Reference ns elapsed at wall time *t_ns* (pauses excluded),
        relative to an arbitrary origin."""
        j = bisect_right(self.pause_starts, t_ns)
        paused = self.pause_cum[j]
        if j and t_ns < self.pause_ends[j - 1]:
            # inside a pause: only its part up to t_ns is cut
            paused = self.pause_cum[j - 1] + self._integral(t_ns) - self._integral(
                self.pause_starts[j - 1]
            )
        return self._integral(t_ns) - paused

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """Reference seconds between two wall-clock readings."""
        return (self.at(end_ns) - self.at(start_ns)) / 1e9

    def scale(self, durations_ns: Sequence[int], at_ns: Sequence[int]) -> List[float]:
        """CPU durations (ns) ending at *at_ns*, in reference ns."""
        return [d * self.factor(t) for d, t in zip(durations_ns, at_ns)]
