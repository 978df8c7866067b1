"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock, the pending-event queue, a
registry of named RNG streams, a tracer, and a metrics registry.  All
higher layers (network substrate, protocol hosts, workloads) schedule
callbacks on it and never touch wall-clock time or global randomness.

Typical use::

    sim = Simulator(seed=7)
    sim.schedule(1.5, my_callback, arg1, arg2)
    sim.run(until=100.0)
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from itertools import islice
from typing import Any, Optional, Tuple

from .errors import SchedulingInPastError, SimulatorFinishedError
from .event import _INF, DEFAULT_PRIORITY, Callback, Entry, Event, EventQueue, due, kill
from .metrics import MetricsRegistry
from .rng import RngRegistry
from .trace import Tracer


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: master seed; all randomness in the simulation derives
            from it through named streams (see :class:`RngRegistry`).
        trace: optional pre-built tracer; a fresh one is created when
            omitted.

    ``now`` (the virtual time) and ``events_executed`` are plain
    attributes that only :meth:`run` writes.
    """

    def __init__(self, seed: int = 0, trace: Optional[Tracer] = None) -> None:
        self.now = 0.0
        self._queue = queue = EventQueue()
        # schedule() and post() push onto the queue's own heap, in one frame
        self._heap, self._seq = queue._heap, queue._seq
        self._finished = False
        self.events_executed = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer(self)
        self.metrics = MetricsRegistry(self)

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callback,
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingInPastError(self.now, self.now + delay)
        if kwargs:
            callback = partial(callback, **kwargs)
        event = Event((self.now + delay, priority, next(self._seq), callback, args))
        heappush(self._heap, event)
        return event

    def post(self, delay: float, callback: Callback, args: Tuple[Any, ...]) -> Entry:
        """``schedule(delay, callback, *args)`` without an :class:`Event` handle.

        The entry is a plain list with exactly ``schedule``'s key, so it
        runs where ``schedule`` would have put it; only :meth:`cancel`
        and :meth:`try_cancel` take it.  Built for the per-hop events
        (DESIGN.md §8 "One hop"): a plain list is cheaper to build, free
        and compare than an ``Event``.
        """
        if delay < 0:
            raise SchedulingInPastError(self.now, self.now + delay)
        entry = [self.now + delay, DEFAULT_PRIORITY, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(
        self,
        when: float,
        callback: Callback,
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SchedulingInPastError(self.now, when)
        return self._queue.push(when, callback, args, kwargs, priority)

    def call_soon(self, callback: Callback, *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback`` at the current time (after pending same-time events).

        Uses the queue's FIFO fast path: the event never touches the
        heap, but runs in exactly the position a heap push would have
        given it.
        """
        return self._queue.push_soon(self.now, callback, args, kwargs)

    def cancel(self, event: Entry) -> None:
        """Cancel a live event; raises if it was cancelled or has fired."""
        kill(event)

    def try_cancel(self, event: Optional[Entry]) -> bool:
        """Cancel ``event`` if it is still live; return whether it was."""
        if event is None or event[3] is None:
            return False
        event[3] = None
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single earliest event.  Returns False when idle."""
        before = self.events_executed
        self.run(max_events=1)
        return self.events_executed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` on return even if the queue drained earlier, so
        successive ``run`` calls compose naturally.

        Returns:
            The virtual time at which execution stopped.
        """
        if self._finished:
            raise SimulatorFinishedError("simulator already finished")
        # Hot loop: the merged pop is a generator resumption, the count
        # is enumerate's, and firing an entry clears its callback slot so
        # a late cancel sees it dead.
        limit = _INF if until is None else until
        events = islice(due(self._heap, self._queue._fifo, limit), max_events)
        executed = 0
        try:
            for executed, event in enumerate(events, 1):
                self.now = event[0]
                callback = event[3]
                event[3] = None
                callback(*event[4])
        finally:
            self.events_executed += executed
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def finish(self) -> None:
        """Mark the simulation finished; further ``run`` calls raise."""
        self._finished = True
