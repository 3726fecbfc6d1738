"""Deterministic discrete-event simulation core.

:class:`SimulationEngine` is the one event loop.  Every event has a
``(time, seq)`` key; ``seq`` is a monotone counter so simultaneous
events fire in scheduling order, making every run bit-reproducible for
a given seed.  Events live in two places:

* A binary heap of plain ``(time, seq, handle)`` tuples.  ``seq`` is
  unique, so CPython's heapq orders them entirely in C -- no
  Python-level ``__lt__`` on the hot path -- and never compares the
  handles themselves.  Cancellation is lazy: the handle is flagged and
  skipped when it reaches the head, which keeps every heap operation
  O(log n).

* A slab run for bulk submissions.  :meth:`SimulationEngine.schedule_batch`
  with ``handles=False`` stores the sorted times, seqs and callbacks as
  parallel arrays consumed by an index cursor, so a million arrivals
  cost a few numpy passes and no per-event object.  ``step``,
  ``peek_time`` and ``run`` merge the cursor with the heap head on
  ``(time, seq)``, so the firing order is exactly that of a
  :meth:`~SimulationEngine.schedule_at` loop; a differential property
  test pins this.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Sequence

import numpy as np


class SimulationError(RuntimeError):
    """Illegal engine operation (scheduling in the past, etc.)."""


class EventHandle:
    """Handle to a scheduled event; :meth:`cancel` stops it firing."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimulationEngine:
    """Tuple heap plus slab run, merged on ``(time, seq)``.

    ``now`` only moves forward; callbacks may schedule further events.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.processed_events = 0
        self._next_seq = 0
        self._heap: list[tuple[float, int, EventHandle]] = []
        #: The slab run: parallel (times, seqs, callbacks) plus cursor.
        self._run_times: list[float] = []
        self._run_seqs: Sequence[int] = ()
        self._run_cbs: Sequence[Callable[[], None]] = ()
        self._run_i = 0
        self._run_len = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* to fire *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* at absolute simulation time *time*."""
        if not math.isfinite(time):
            # NaN compares False against everything, so without this
            # check a NaN time would sail past the past-guard below and
            # silently corrupt the heap's partial order; inf would hang
            # run(until=...) at an event that never becomes due.
            raise SimulationError(f"cannot schedule at non-finite time {time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; simulation clock is at {self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_batch(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[[], None]],
        *,
        handles: bool = True,
    ) -> list[EventHandle] | None:
        """Bulk insert; equivalent to a :meth:`schedule_at` loop
        (``seq`` is assigned in submission order).

        The whole batch is validated before anything is queued, so a
        rejected batch leaves the engine untouched.  With
        ``handles=False`` the batch becomes the slab run: the times and
        callbacks are kept as (stably sorted, only if needed) parallel
        arrays and no per-event object is allocated.  Slab events cannot
        be cancelled and nothing is returned.  Installing a run first
        moves the unconsumed tail of the previous one into the heap.
        """
        n = len(times)
        if n != len(callbacks):
            raise ValueError("need exactly one callback per time")
        if n == 0:
            return [] if handles else None
        t = np.ascontiguousarray(times, dtype=np.float64)
        if not np.isfinite(t).all():
            bad = float(t[~np.isfinite(t)][0])
            raise SimulationError(f"cannot schedule at non-finite time {bad}")
        t_min = float(t.min())
        if t_min < self.now:
            raise SimulationError(
                f"cannot schedule at {t_min}; simulation clock is at {self.now}"
            )
        if handles:
            return [self.schedule_at(tm, cb) for tm, cb in zip(t.tolist(), callbacks)]

        seq0 = self._next_seq
        self._next_seq = seq0 + n
        if self._run_i < self._run_len:
            self._spill_run()
        if n == 1 or bool((np.diff(t) >= 0).all()):
            # Already sorted (the common case: cumulative arrival
            # times): reference the caller's callbacks in place.
            self._run_times = t.tolist()
            self._run_seqs = range(seq0, seq0 + n)
            self._run_cbs = callbacks
        else:
            order = np.argsort(t, kind="stable")
            self._run_times = t[order].tolist()
            olist = order.tolist()
            self._run_seqs = [seq0 + j for j in olist]
            self._run_cbs = [callbacks[j] for j in olist]
        self._run_i = 0
        self._run_len = n
        return None

    def _spill_run(self) -> None:
        """Move the unconsumed tail of the slab run into the heap; the
        ``(time, seq)`` keys carry over, so ordering is unaffected."""
        heap = self._heap
        times, seqs, cbs = self._run_times, self._run_seqs, self._run_cbs
        for j in range(self._run_i, self._run_len):
            heap.append((times[j], seqs[j], EventHandle(times[j], seqs[j], cbs[j])))
        heapq.heapify(heap)
        self._run_times = []
        self._run_seqs = ()
        self._run_cbs = ()
        self._run_i = self._run_len = 0

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        live = sum(1 for entry in self._heap if not entry[2].cancelled)
        return live + (self._run_len - self._run_i)

    def _heap_head(self) -> tuple[float, int, EventHandle] | None:
        """The heap's next live entry (cancelled heads are dropped)."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _run_is_next(self, head: tuple[float, int, EventHandle] | None) -> bool:
        """Whether the slab cursor holds the next event (vs *head*)."""
        ri = self._run_i
        if ri >= self._run_len:
            return False
        if head is None:
            return True
        rt = self._run_times[ri]
        return rt < head[0] or (rt == head[0] and self._run_seqs[ri] < head[1])

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is dry."""
        head = self._heap_head()
        if self._run_is_next(head):
            return self._run_times[self._run_i]
        return head[0] if head is not None else None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        head = self._heap_head()
        if self._run_is_next(head):
            ri = self._run_i
            self._run_i = ri + 1
            self.now = self._run_times[ri]
            self.processed_events += 1
            self._run_cbs[ri]()
            return True
        if head is None:
            return False
        heapq.heappop(self._heap)
        self.now = head[0]
        self.processed_events += 1
        head[2].callback()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the queue (optionally bounded); returns the final clock.

        ``until`` stops *before* firing any event later than it and
        advances the clock exactly to ``until``; it may not lie before
        ``now``.  ``max_events`` bounds the number of callbacks fired
        (guard against runaway feedback).  The loop body inlines
        :meth:`step`; the slab attributes are re-read every iteration
        because a callback may install a new run.
        """
        if until is not None and not until >= self.now:
            # ``not >=`` also catches a NaN ``until``.
            raise SimulationError(
                f"cannot run until {until}; simulation clock is at {self.now}"
            )
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        while max_events is None or fired < max_events:
            while heap and heap[0][2].cancelled:
                heappop(heap)
            ri = self._run_i
            if ri < self._run_len:
                rt = self._run_times[ri]
                if heap:
                    head = heap[0]
                    use_run = rt < head[0] or (
                        rt == head[0] and self._run_seqs[ri] < head[1]
                    )
                else:
                    use_run = True
            elif heap:
                head = heap[0]
                use_run = False
            else:
                break
            if use_run:
                if until is not None and rt > until:
                    break
                self._run_i = ri + 1
                self.now = rt
                self.processed_events += 1
                self._run_cbs[ri]()
            else:
                if until is not None and head[0] > until:
                    break
                heappop(heap)
                self.now = head[0]
                self.processed_events += 1
                head[2].callback()
            fired += 1
        if until is not None and self.now < until:
            self.now = until
        return self.now
