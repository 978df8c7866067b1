"""Drivers for the simulator layers: kernel, tracer, metrics, sim timers."""

from __future__ import annotations

from typing import Dict

from repro.io import SimRuntime
from repro.sim import Simulator

from . import per_op

_BATCH = 20_000


def kernel_events(budget_s: float) -> Dict[str, float]:
    """Deep heap + ``call_soon`` hops + cancel-and-replace: the pinned
    ``kernel_throughput`` scenario (400 k events; 100 k on a short budget)."""
    from repro.perf.scenarios import SCENARIOS

    scenario = SCENARIOS["kernel_throughput"]
    short = budget_s < 1.0
    events = 100_000 if short else 400_000
    seconds_per_event = per_op(
        budget_s, lambda: None, lambda _: scenario.run(quick=short), events)
    return {"sim.kernel.events_per_s": 1.0 / seconds_per_event}


def trace_emit(budget_s: float) -> Dict[str, float]:
    def emit(sim: Simulator) -> None:
        emit_one = sim.trace.emit
        for i in range(_BATCH):
            emit_one("bench.tick", "driver", i=i)

    def tracer(enabled: bool) -> Simulator:
        sim = Simulator(seed=1)
        sim.trace.enabled = enabled
        return sim

    return {
        "sim.trace.emit_off_ns":
            per_op(budget_s, lambda: tracer(False), emit, _BATCH) * 1e9,
        "sim.trace.emit_on_ns":
            per_op(budget_s, lambda: tracer(True), emit, _BATCH) * 1e9,
    }


def metrics_inc(budget_s: float) -> Dict[str, float]:
    """Lookup-by-name plus increment, the way host handlers count."""
    def inc(sim: Simulator) -> None:
        counter = sim.metrics.counter
        for _ in range(_BATCH):
            counter("proto.deliver").inc()

    return {"sim.metrics.inc_ns":
            per_op(budget_s, lambda: Simulator(seed=1), inc, _BATCH) * 1e9}


def sim_timer(budget_s: float) -> Dict[str, float]:
    """Arm one-shot timers through ``SimRuntime`` and let them fire."""
    def noop() -> None:
        pass

    def arm_and_fire(sim: Simulator) -> None:
        runtime = SimRuntime(sim)
        for i in range(_BATCH):
            runtime.start_timer(0.001 * (1 + i % 97), noop)
        sim.run()

    return {"io.simbackend.timer_ns":
            per_op(budget_s, lambda: Simulator(seed=1), arm_and_fire,
                   _BATCH) * 1e9}


DRIVERS = (kernel_events, trace_emit, metrics_inc, sim_timer)
