"""Heap entries and the one pop path.

The pending events are one binary heap of entries ordered by
``(time, seq)``; the increasing sequence number makes same-time events
run in push order, so whole simulations repeat bit for bit.  An entry
is the plain list ``[time, seq, callback, args]`` (:data:`Entry`) and
is its own handle; it is *dead* once its callback slot is None:
cancelled (lazily, skipped when popped) or fired.  Only ``repro.sim``
reads an entry.  See DESIGN.md §8 "Event-loop fast path".
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Iterator, List

from .errors import EventAlreadyCancelledError

Callback = Callable[..., None]

#: A heap entry, ``[time, seq, callback, args]``; callback None = dead.
Entry = List[Any]


def kill(entry: Entry) -> None:
    """Mark a live heap entry dead.

    Raises:
        EventAlreadyCancelledError: if it is already cancelled or has
            fired.
    """
    if entry[2] is None:
        raise EventAlreadyCancelledError(f"event {entry!r} already cancelled or fired")
    entry[2] = None


def due(heap: List[Entry], limit: float) -> Iterator[Entry]:
    """Pop and yield the live entries with ``time <= limit``, earliest first.

    The one pop path: :meth:`repro.sim.kernel.Simulator.run` iterates
    it.  Dead entries are dropped on the way.  The heap is re-read on
    every resumption, so entries pushed by the consumer in between are
    taken in order.
    """
    while heap:
        entry = heap[0]
        if entry[0] > limit:
            return
        heappop(heap)
        if entry[2] is not None:
            yield entry
