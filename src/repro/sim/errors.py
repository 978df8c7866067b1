"""Exceptions raised by the simulation kernel.

The kernel keeps its failure modes explicit: scheduling into the past,
running a finished simulator, or cancelling an event twice are all
programming errors in the caller and raise dedicated exception types so
tests can assert on them precisely.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingInPastError(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""

    def __init__(self, now: float, when: float) -> None:
        super().__init__(f"cannot schedule event at t={when!r}; clock is already at t={now!r}")
        self.now = now
        self.when = when


class EventAlreadyCancelledError(SimulationError):
    """`cancel` was called on an event that is already cancelled or fired."""


class SimulatorFinishedError(SimulationError):
    """`run` was called on a simulator that has already been stopped."""
