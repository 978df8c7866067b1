"""Deterministic discrete-event simulation kernel.

The kernel is protocol-agnostic: it provides a virtual clock with a
pending-event queue (:class:`Simulator`), periodic tasks and one-shot
timers (:class:`PeriodicTask`, :class:`Timer`), named seed-derived RNG
streams (:class:`RngRegistry`), structured tracing (:class:`Tracer`),
and metrics (:class:`MetricsRegistry`).
"""

from .errors import (
    EventAlreadyCancelledError,
    SchedulingInPastError,
    SimulationError,
    SimulatorFinishedError,
)
from .event import DEFAULT_PRIORITY, Event, EventQueue
from .kernel import Simulator
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .process import PeriodicTask, Timer
from .rng import RngRegistry, derive_seed
from .trace import TraceRecord, Tracer, summarize_kinds

__all__ = [
    "DEFAULT_PRIORITY",
    "Counter",
    "Event",
    "EventAlreadyCancelledError",
    "EventQueue",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeriodicTask",
    "RngRegistry",
    "SchedulingInPastError",
    "SimulationError",
    "Simulator",
    "SimulatorFinishedError",
    "Timer",
    "TraceRecord",
    "Tracer",
    "derive_seed",
    "summarize_kinds",
]
