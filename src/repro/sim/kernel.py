"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock, one heap of pending events
(:mod:`repro.sim.event`), a registry of named RNG streams, a tracer, and a metrics registry.  All
higher layers (network substrate, protocol hosts, workloads) schedule
callbacks on it and never touch wall-clock time or global randomness.

Typical use::

    sim = Simulator(seed=7)
    sim.schedule(1.5, my_callback, arg1, arg2)
    sim.run(until=100.0)
"""

from __future__ import annotations

from heapq import heappush
from itertools import count, islice
from typing import Any, List, Optional, Tuple

from .errors import SchedulingInPastError, SimulatorFinishedError
from .event import Callback, Entry, due, kill
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
    attributes that only :meth:`run` writes.  Every way of scheduling
    returns the heap entry (:data:`~repro.sim.event.Entry`), an opaque
    handle for :meth:`cancel` and :meth:`try_cancel`.
    """

    def __init__(self, seed: int = 0, trace: Optional[Tracer] = None) -> None:
        self.now = 0.0
        self._heap: List[Entry] = []
        self._seq = count()
        self._finished = False
        self.events_executed = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer(self)
        self.metrics = MetricsRegistry(self)

    @property
    def pending(self) -> int:
        """Number of live scheduled events."""
        return sum(entry[2] is not None for entry in self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def post(self, when: float, callback: Callback, args: Tuple[Any, ...]) -> Entry:
        """Run ``callback(*args)`` at absolute time ``when``: the one push.

        Every scheduling method ends here.  The per-hop sites of
        ``repro.net`` call it directly, with ``sim.now + delay``
        (DESIGN.md §8 "One hop"), to skip a frame and the ``*args``
        packing.
        """
        if when < self.now:
            raise SchedulingInPastError(self.now, when)
        entry = [when, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return entry

    def schedule(self, delay: float, callback: Callback, *args: Any) -> Entry:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        return self.post(self.now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callback, *args: Any) -> Entry:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        return self.post(when, callback, args)

    def call_soon(self, callback: Callback, *args: Any) -> Entry:
        """Schedule ``callback(*args)`` now, after every event already due now."""
        return self.post(self.now, callback, args)

    def cancel(self, event: Entry) -> None:
        """Cancel a live event; raises if it was cancelled or has fired."""
        kill(event)

    def try_cancel(self, event: Optional[Entry]) -> bool:
        """Cancel ``event`` if it is still live; return whether it was."""
        if event is None or event[2] is None:
            return False
        event[2] = None
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
        # Hot loop: the pop is a generator resumption, the count is
        # enumerate's, and firing an entry clears its callback slot so a
        # late cancel sees it dead.
        limit = float("inf") if until is None else until
        events = islice(due(self._heap, limit), max_events)
        executed = 0
        try:
            for executed, event in enumerate(events, 1):
                self.now = event[0]
                callback = event[2]
                event[2] = None
                callback(*event[3])
        finally:
            self.events_executed += executed
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def finish(self) -> None:
        """Mark the simulation finished; further ``run`` calls raise."""
        self._finished = True
