"""Events and the pending-event queue.

The queue is a binary heap ordered by ``(time, priority, sequence)``;
the increasing sequence number makes same-time, same-priority events
run in scheduling order, so whole simulations repeat bit for bit.  A
heap entry is its own handle, an :class:`Event` list
``[time, priority, seq, callback, args]`` (``Simulator.post`` pushes
plain lists of the same layout, :data:`Entry`), and it is *dead* once
its callback slot is None: cancelled (lazily, skipped when popped) or
fired.  "Run now" events go to a FIFO deque that :func:`due` merges in
exactly the single-heap order.  See DESIGN.md "Event-loop fast path".
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Iterator, List, Optional, Tuple

from .errors import EventAlreadyCancelledError

Callback = Callable[..., None]

#: Default event priority.  Lower values run first among same-time events.
DEFAULT_PRIORITY = 0

_INF = float("inf")

#: A heap entry, ``[time, priority, seq, callback, args]``: an
#: :class:`Event`, or the plain list ``Simulator.post`` pushes
#: (DESIGN.md §8 "One hop").  Read entries by index only.
Entry = List[Any]


def kill(entry: Entry) -> None:
    """Mark a live heap entry dead.

    Raises:
        EventAlreadyCancelledError: if it is already cancelled or has
            fired.
    """
    if entry[3] is None:
        raise EventAlreadyCancelledError(f"event {entry!r} already cancelled or fired")
    entry[3] = None


class Event(list):
    """A scheduled callback, and its own queue entry.

    The list is ``[time, priority, seq, callback, args]``; callers
    treat it as an opaque handle whose only useful operations are
    :meth:`cancel` (via the simulator) and the read-only properties
    below.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Virtual time the event runs at.")
    callback = property(itemgetter(3), doc="What runs; None once dead.")
    args = property(itemgetter(4), doc="Positional arguments of the callback.")

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer run: cancelled or fired."""
        return self[3] is None

    def cancel(self) -> None:
        """Mark the event dead; raises as :func:`kill` does."""
        kill(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        callback = self[3]
        name = "dead" if callback is None else getattr(callback, "__qualname__", repr(callback))
        return f"<Event t={self[0]:.6f} prio={self[1]} #{self[2]} {name}>"


def due(heap: List[Entry], fifo: "deque[Event]", limit: float) -> Iterator[Entry]:
    """Pop and yield the live entries with ``time <= limit``, earliest first.

    The one pop path: :meth:`repro.sim.kernel.Simulator.run` iterates it
    and :meth:`EventQueue.pop_next` takes one item.  Dead entries are
    dropped on the way.  The structures are re-read on every resumption,
    so entries pushed by the consumer in between are merged in order.
    """
    entry: Entry
    while True:
        if fifo:
            entry = fifo[0]
            # seq is unique, so the lists never compare equal; this total
            # order is exactly the single-heap order.
            if heap and heap[0] < entry:
                entry = heap[0]
                if entry[0] > limit:
                    return
                heappop(heap)
            else:
                if entry[0] > limit:
                    return
                fifo.popleft()
        elif heap:
            entry = heap[0]
            if entry[0] > limit:
                return
            heappop(heap)
        else:
            return
        if entry[3] is not None:
            yield entry


class EventQueue:
    """Deterministic priority queue of heap entries (:data:`Entry`)."""

    __slots__ = ("_heap", "_fifo", "_seq")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._fifo: "deque[Event]" = deque()
        self._seq = itertools.count()

    def __len__(self) -> int:
        """Number of live (not cancelled, not fired) events."""
        return sum(e[3] is not None for e in itertools.chain(self._heap, self._fifo))

    def push(
        self,
        time: float,
        callback: Callback,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Add an event and return its handle; kwargs are folded in."""
        if kwargs:
            callback = partial(callback, **kwargs)
        event = Event((time, priority, next(self._seq), callback, args))
        heappush(self._heap, event)
        return event

    def push_soon(
        self,
        time: float,
        callback: Callback,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
    ) -> Event:
        """Add a "run at the current time" event, bypassing the heap.

        ``time`` must be the simulator's current time: the FIFO stays
        key-sorted only because successive pushes carry non-decreasing
        times (and strictly increasing sequence numbers).  Priority is
        always :data:`DEFAULT_PRIORITY`.
        """
        if kwargs:
            callback = partial(callback, **kwargs)
        event = Event((time, DEFAULT_PRIORITY, next(self._seq), callback, args))
        self._fifo.append(event)
        return event

    def pop(self) -> Optional[Entry]:
        """Remove and return the earliest live event, or None if empty."""
        return self.pop_next(None)

    def pop_next(self, limit: Optional[float] = None) -> Optional[Entry]:
        """Pop the earliest live event with ``time <= limit`` (None = any).

        Returns None — leaving every live event queued — when the queue
        is drained or the earliest live event lies beyond ``limit``.
        """
        return next(due(self._heap, self._fifo, _INF if limit is None else limit), None)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        live = (e for e in itertools.chain(self._heap, self._fifo) if e[3] is not None)
        head = min(live, default=None)
        return None if head is None else head[0]
