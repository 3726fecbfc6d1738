"""Host-speed calibration: a fixed pure-Python kernel, sampled during a rep.

The benchmark's host shares its cores with other machines, and its speed
swings by up to 2x over a few seconds.  :func:`kernel` does a fixed
amount of the interpreter work a discrete-event simulator does (heap
pushes and pops, dict updates, attribute reads, method calls, small
objects, float arithmetic) and calls no code of the program, so no
change to the program can change its duration.

:class:`SpeedSampler` times the kernel every ``PERIOD_S`` of wall time
from a ``SIGALRM`` handler, while the rep runs.  The handler interrupts
the program between two bytecodes and leaves its state alone.  A host
time is then reported as ``(elapsed - kernel time spent inside the
interval) * speed``, where ``speed = REFERENCE_S / mean kernel time``:
the time the interval would have taken at the reference host's speed.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Kernel size of one sample, and how often a sample is taken.
SAMPLE_N = 1_000
PERIOD_S = 0.05
#: Median time of ``kernel(SAMPLE_N)`` on the reference host (a 2-core
#: x86-64 VM shared with other machines, Python 3.11).
REFERENCE_S = 0.0017


class _Event:
    __slots__ = ("time", "key", "weight")

    def __init__(self, time: float, key: int) -> None:
        self.time = time
        self.key = key
        self.weight = (key % 7) * 0.25

    def cost(self, now: float) -> float:
        return (now - self.time) * self.weight + 1.0


def kernel(n: int = SAMPLE_N) -> float:
    heap: list = []
    table: dict[int, _Event] = {}
    acc = 0.0
    for i in range(n):
        event = _Event(i * 0.37 % 101.0, i)
        heapq.heappush(heap, (event.time, i, event))
        table[i & 511] = event
        if len(heap) > 64:
            when, _, popped = heapq.heappop(heap)
            acc += popped.cost(when) + len(table)
    return acc


class SpeedSampler:
    """Context manager sampling the kernel's time while the body runs.

    ``on_sample(duration)`` is called after each sample; the layer
    tracer uses it to keep sample time out of the open span.  One
    sample is also taken on entry and one on exit, so even a body
    shorter than ``PERIOD_S`` gets a speed.
    """

    def __init__(self, on_sample=None) -> None:
        #: (start, duration) of every sample.
        self.samples: list[tuple[float, float]] = []
        self._on_sample = on_sample
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        if self._on_sample is not None:
            self._on_sample(duration)

    def _handler(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "SpeedSampler":
        kernel()  # warm-up: the first call pays one-time costs
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def spent(self, start: float, end: float) -> float:
        """Kernel time of the samples taken inside ``[start, end)``."""
        return sum(d for s, d in self.samples if start <= s < end)

    def speed(self) -> float:
        """Reference kernel time over the mean sampled kernel time.

        The mean over the whole rep, not over a short interval's few
        samples: the host's speed changes over seconds, and fewer
        samples would add their own noise."""
        return REFERENCE_S / statistics.fmean(d for _, d in self.samples)

    def host_time(self, start: float, end: float) -> float:
        """``end - start`` without sample time, at the reference speed."""
        return (end - start - self.spent(start, end)) * self.speed()
