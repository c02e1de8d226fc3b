"""Event queue for the discrete-event engine.

Each scheduled event is one slotted :class:`Event`, which is also its own
cancel handle: :meth:`EventQueue.push` returns the event itself, and
``event.cancel()`` withdraws it.  The heap holds flat
``(time, priority, seq, event)`` tuples, so ``heappush``/``heappop`` compare
floats and ints directly.  The sequence number is unique per queue, which
gives a deterministic FIFO order for events at the same time and priority
(keeping runs fully reproducible) and means the event itself is never
compared.

Cancellation is *lazy*: a cancelled event stays in the heap but is skipped
when popped.  This keeps cancellation O(1), which matters because timer-heavy
policies (FIFO with a preemption limit sets one timer per task) cancel the
vast majority of their timers.  An event keeps a reference to its queue only
while it is pending; popping, cancelling or clearing drops it, so a late
cancel is a no-op.  A live-event counter maintained on push/pop/cancel/clear
makes ``len(queue)`` O(1) despite the tombstones, and once tombstones
outnumber live events the heap is compacted.

The hottest push sites (task arrivals, core completions) schedule
*payload-carrying* events with no callback: the run loop dispatches them by
``tag``, which avoids allocating one closure per push.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: Base of the sequence-number range reserved for streamed arrivals.  The
#: internal counter starts at 0, so arrivals fed mid-run with sequence
#: numbers counting up from here sort among themselves in feed order and
#: ahead of every runtime-pushed event at the same ``(time, priority)`` —
#: exactly where they would have sorted had the whole workload been
#: pre-pushed before the run started (see :meth:`EventQueue.push_sequenced`).
STREAM_SEQ_BASE = -(1 << 62)

#: Compaction threshold: heaps smaller than this are never compacted, so
#: short runs keep the pure lazy-cancellation fast path.
_COMPACT_MIN_HEAP = 64


class EventPriority(IntEnum):
    """Tie-breaking priority for events scheduled at the same instant.

    Completions are processed before arrivals at the same timestamp so a core
    freed at time *t* can immediately pick up a task arriving at *t*; timers
    run last so preemption-limit checks observe completions that happened at
    the same instant.
    """

    COMPLETION = 0
    ARRIVAL = 1
    CONTROL = 2
    TIMER = 3


class Event:
    """A single scheduled callback, or a tagged payload dispatched by the
    run loop when ``callback`` is None; also the handle that cancels it."""

    __slots__ = (
        "time", "priority", "seq", "callback", "tag", "payload", "cancelled", "_queue"
    )

    def __init__(
        self,
        time: float,
        priority: EventPriority,
        seq: int,
        callback: Optional[Callable[[], None]],
        tag: str,
        payload: Any,
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.tag = tag
        self.payload = payload
        self.cancelled = False
        #: The owning queue while the event is pending; None once it has
        #: been popped, cancelled or cleared.
        self._queue = queue

    def cancel(self) -> None:
        """Withdraw the event from its queue (idempotent).

        Cancelling an event that already fired is a no-op — it must not
        disturb the queue's live-event count.
        """
        queue = self._queue
        if queue is not None:
            self._queue = None
            self.cancelled = True
            queue._live -= 1
            heap_len = len(queue._heap)
            if heap_len >= _COMPACT_MIN_HEAP and heap_len - queue._live > queue._live:
                queue._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        else:
            state = "fired" if self._queue is None else "pending"
        return f"Event(t={self.time:.6f}, tag={self.tag!r}, {state})"


#: The name callers hold a pending event by; the event is its own handle.
EventHandle = Event


class EventQueue:
    """Binary-heap event queue with lazy cancellation and an O(1) length."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        #: How many times the heap was rebuilt to drop cancelled tombstones.
        #: Cancellation stays lazy/O(1), but once tombstones outnumber live
        #: events (timer-heavy schedulers, chaos arms, timeout retries over
        #: long streaming runs) the heap is compacted so it tracks the live
        #: horizon instead of the cancellation history.
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def push(
        self,
        time: float,
        callback: Optional[Callable[[], None]],
        priority: EventPriority = EventPriority.CONTROL,
        tag: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``callback`` may be None for payload-carrying events that the run
        loop dispatches by ``tag`` (the closure-free hot path).
        """
        # ``not >=`` also rejects NaN, which would silently corrupt the heap.
        if not (time >= 0):
            raise ValueError(f"event time must be a non-negative number, got {time!r}")
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, tag, payload, self)
        heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def push_sequenced(
        self,
        time: float,
        seq: int,
        priority: EventPriority = EventPriority.ARRIVAL,
        tag: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule a payload event with a caller-chosen sequence number.

        Streaming arrival feeds draw ``seq`` from a counter starting at
        :data:`STREAM_SEQ_BASE`, which keeps chunk-fed arrivals bit-identical
        in ordering to a fully pre-pushed workload even when a runtime event
        (an ingress hop, a retry re-admission) lands on the exact same
        ``(time, priority)``.  Callers must keep their sequence numbers
        unique and outside the internal counter's non-negative range; kept
        separate from :meth:`push` so the hot path stays branch-free.
        """
        if not (time >= 0):
            raise ValueError(f"event time must be a non-negative number, got {time!r}")
        if seq >= 0:
            raise ValueError(
                f"caller-chosen sequence numbers must be negative, got {seq!r}"
            )
        event = Event(time, priority, seq, None, tag, payload, self)
        heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.cancelled:
                continue
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event without popping it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
                continue
            return entry[0]
        return None

    def cancel_pending(self, tag: str) -> int:
        """Cancel every pending event with the given tag; returns the count."""
        cancelled = 0
        for entry in self._heap:
            event = entry[3]
            if not event.cancelled and event.tag == tag:
                event.cancelled = True
                event._queue = None
                cancelled += 1
        self._live -= cancelled
        heap_len = len(self._heap)
        if heap_len >= _COMPACT_MIN_HEAP and heap_len - self._live > self._live:
            self._compact()
        return cancelled

    def _compact(self) -> None:
        """Rebuild the heap without cancelled tombstones.

        The ``(time, priority, seq)`` prefix of every entry is unique, so
        ``heapify`` over the survivors preserves the exact pop order and
        compaction is invisible to the simulation.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self.compactions += 1

    def clear(self) -> None:
        """Drop all pending events.

        Cleared events are marked cancelled and detached from the queue, so
        outstanding handles no-op instead of corrupting the live-event count.
        """
        for entry in self._heap:
            event = entry[3]
            event.cancelled = True
            event._queue = None
        self._heap.clear()
        self._live = 0

    def drain_times(self) -> list[float]:
        """Return the sorted timestamps of all live events (testing helper)."""
        return sorted(entry[0] for entry in self._heap if not entry[3].cancelled)
