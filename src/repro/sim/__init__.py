"""Deterministic discrete-event simulation kernel.

The kernel is protocol-agnostic: it provides a virtual clock with one
heap of pending events (:class:`Simulator`; every scheduling call
returns its heap entry, an :data:`Entry`, as the handle to cancel),
periodic tasks and one-shot timers (:class:`PeriodicTask`,
:class:`Timer`), named seed-derived RNG streams (:class:`RngRegistry`),
structured tracing (:class:`Tracer`), and metrics
(:class:`MetricsRegistry`).
"""

from .errors import (
    EventAlreadyCancelledError,
    SchedulingInPastError,
    SimulationError,
    SimulatorFinishedError,
)
from .event import Entry
from .kernel import Simulator
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .process import PeriodicTask, Timer
from .rng import RngRegistry, derive_seed
from .trace import TraceRecord, Tracer, summarize_kinds

__all__ = [
    "Counter",
    "Entry",
    "EventAlreadyCancelledError",
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
