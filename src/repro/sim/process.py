"""Periodic tasks and restartable timers on top of the kernel.

The broadcast protocol is built almost entirely from periodic activities
(attachment scans, INFO exchange, gap filling) and one-shot timeouts
(attach-ack timeout, parent heartbeat timeout).  These two helpers keep
that code free of manual event bookkeeping.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .event import Entry
from .kernel import Simulator


class PeriodicTask:
    """Runs ``callback`` every ``period`` time units until stopped.

    Optional per-tick jitter (uniform in ``[-jitter, +jitter]``) drawn
    from a named RNG stream desynchronizes identical tasks on different
    hosts — exactly what real protocol implementations do to avoid
    message storms.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng_stream: str = "periodic.jitter",
        start_after: Optional[float] = None,
        name: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if jitter < 0 or jitter >= period:
            raise ValueError(f"jitter must be in [0, period), got {jitter}")
        self._sim = sim
        self.period = period
        self.jitter = jitter
        self.callback = callback
        self.name = name
        self._rng = sim.rng.stream(rng_stream)
        self._event: Optional[Entry] = None
        self._running = False
        self._start_after = start_after

    @property
    def running(self) -> bool:
        """True while the task is ticking."""
        return self._running

    def start(self) -> "PeriodicTask":
        """Begin ticking.  The first tick fires after one (jittered) period."""
        if self._running:
            return self
        self._running = True
        first = self._start_after if self._start_after is not None else self._delay()
        self._event = self._sim.schedule(first, self._tick)
        return self

    def stop(self) -> None:
        """Stop ticking; safe to call when already stopped."""
        self._running = False
        self._sim.try_cancel(self._event)
        self._event = None

    def _delay(self) -> float:
        if self.jitter == 0.0:
            return self.period
        return self.period + self._rng.uniform(-self.jitter, self.jitter)

    def _tick(self) -> None:
        if not self._running:
            return
        self.callback()
        if self._running:  # callback may have stopped us
            self._event = self._sim.schedule(self._delay(), self._tick)


class Timer:
    """A restartable one-shot timeout.

    ``start`` arms (or re-arms) the timer; ``cancel`` disarms it.  When
    it fires, ``callback`` runs once and the timer returns to the
    disarmed state.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., None], name: str = "") -> None:
        self._sim = sim
        self.callback = callback
        self.name = name
        self._event: Optional[Entry] = None

    @property
    def armed(self) -> bool:
        """True while the timer is armed."""
        return self._event is not None and self._event[2] is not None

    def start(self, delay: float, *args: Any) -> None:
        """Arm the timer to fire after ``delay``; re-arms if already armed."""
        self.cancel()
        # Firing kills the entry, and a dead entry is what disarms us.
        self._event = self._sim.schedule(delay, self.callback, *args)

    def cancel(self) -> None:
        """Disarm without firing; safe when already disarmed."""
        self._sim.try_cancel(self._event)
        self._event = None
