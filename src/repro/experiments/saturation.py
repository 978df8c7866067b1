"""Sustained open-loop workloads, capacity probing, and latency SLOs.

A closed-count stream (``system.broadcast_stream``) injects "n
messages, then stop" — the right shape for correctness experiments,
the wrong one for overload questions.  Saturation experiments (E25)
need **open-loop** load: arrivals keep coming for a fixed *duration* at
a chosen fraction of the system's measured capacity, whether or not the
protocol keeps up.  This module provides:

* arrival-schedule generators — Poisson, bursty (compound Poisson),
  and diurnal (sinusoidally modulated Poisson via thinning) — all
  deterministic for a given RNG stream and sharing one ``(rate,
  duration)`` parameterization so sweeps vary *shape* independently of
  *offered load*;
* :func:`measure_capacity`, a closed-loop blast probe whose result
  anchors utilization fractions to what this protocol on this topology
  can actually sustain;
* :class:`SloSpec`, declarative tail-latency gates over the
  p50/p99/p999 of per-message delivery latency.

Everything is pure scheduling and arithmetic over the simulator's named
RNG streams — no wall-clock, so sweeps stay bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from ..analysis.delay import DelayStats
from ..sim import Simulator


class SourceLike(Protocol):
    """Anything with a ``broadcast(content) -> int`` method."""

    def broadcast(self, content: object = None) -> int: ...


#: arrival shapes understood by :func:`arrival_times`
ARRIVAL_SHAPES: Tuple[str, ...] = ("poisson", "bursty", "diurnal")


def poisson_arrival_times(rng, rate: float, duration: float) -> List[float]:
    """Homogeneous Poisson arrivals in ``[0, duration)`` at ``rate``/s."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    times: List[float] = []
    at = rng.expovariate(rate)
    while at < duration:
        times.append(at)
        at += rng.expovariate(rate)
    return times


def bursty_arrival_times(rng, rate: float, duration: float,
                         burst_size: int = 8,
                         intra_burst_interval: float = 0.02) -> List[float]:
    """Compound-Poisson bursts averaging ``rate`` messages/s overall.

    Burst *starts* arrive as a Poisson process at ``rate/burst_size``;
    each start releases ``burst_size`` back-to-back messages.  The mean
    offered load matches the plain Poisson shape, but arrivals cluster —
    the worst case for drop-tail queues and the tail percentiles.
    """
    if burst_size < 1:
        raise ValueError(f"burst_size must be at least 1, got {burst_size}")
    if intra_burst_interval <= 0:
        raise ValueError("intra_burst_interval must be positive")
    starts = poisson_arrival_times(rng, rate / burst_size, duration)
    times = [start + i * intra_burst_interval
             for start in starts for i in range(burst_size)]
    return sorted(t for t in times if t < duration)  # bursts may overlap


def diurnal_arrival_times(rng, rate: float, duration: float,
                          period: Optional[float] = None,
                          depth: float = 0.8) -> List[float]:
    """Sinusoidally modulated Poisson arrivals averaging ``rate``/s.

    The intensity swings between ``rate*(1-depth)`` (trough) and
    ``rate*(1+depth)`` (crest) over ``period`` (default: one full cycle
    across the duration), starting at the trough.  Implemented by
    thinning a homogeneous process at the crest rate, the textbook
    exact method for nonhomogeneous Poisson.
    """
    if not 0 <= depth < 1:
        raise ValueError(f"depth must be in [0, 1), got {depth}")
    cycle = period if period is not None else duration
    if cycle <= 0:
        raise ValueError("period must be positive")
    crest = rate * (1 + depth)
    times = []
    for at in poisson_arrival_times(rng, crest, duration):
        intensity = rate * (1 + depth * math.sin(
            2 * math.pi * at / cycle - math.pi / 2))
        if rng.random() < intensity / crest:
            times.append(at)
    return times


def arrival_times(shape: str, rng, rate: float, duration: float,
                  **kwargs) -> List[float]:
    """Dispatch to the named arrival-shape generator."""
    generators: Dict[str, Callable[..., List[float]]] = {
        "poisson": poisson_arrival_times,
        "bursty": bursty_arrival_times,
        "diurnal": diurnal_arrival_times,
    }
    if shape not in generators:
        raise ValueError(
            f"unknown arrival shape {shape!r}; known: {', '.join(ARRIVAL_SHAPES)}")
    return generators[shape](rng, rate, duration, **kwargs)


def schedule_open_loop(
    sim: Simulator,
    source: SourceLike,
    shape: str,
    rate: float,
    duration: float,
    start_at: float = 0.0,
    rng_stream: str = "workload.saturation",
    content: Callable[[int], object] = lambda k: f"msg-{k}",
    **kwargs,
) -> int:
    """Schedule one open-loop load window; returns the *offered* count.

    Offered ≠ admitted: with admission control on, some ``broadcast()``
    calls will be rejected (returning 0).  The caller reads the source's
    ``next_seq``/counters afterwards to learn how many were admitted.
    """
    times = arrival_times(shape, sim.rng.stream(rng_stream), rate, duration,
                          **kwargs)
    for k, offset in enumerate(times):
        sim.schedule_at(start_at + offset,
                        lambda k=k: source.broadcast(content(k + 1)))
    return len(times)


def measure_capacity(system, n: int = 60, window: int = 8,
                     start_at: float = 2.0, timeout: float = 600.0,
                     check_period: float = 0.1,
                     skip: Optional[int] = None) -> float:
    """Closed-loop capacity probe: messages/second the system sustains.

    Self-clocked closed loop: keep ``window`` messages outstanding —
    inject the next as soon as the oldest is delivered *everywhere* —
    until ``n`` have completed.  Self-clocking keeps the bottleneck
    stage busy without ever flooding it, so the probe measures the
    forwarding path's service rate rather than the (rate-limited)
    gap-fill recovery path an open blast would collapse onto.  Capacity
    is the steady-state completion slope from message ``skip`` (default
    ``n // 5``, amortizing attachment and first-hop latency) to message
    ``n``.  If the probe times out, the estimate covers whatever
    completed and is therefore conservative.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if window < 1:
        raise ValueError("window must be at least 1")
    sim = system.sim
    sim.run(until=start_at)
    source = system.source
    injected = 0
    while injected < min(window, n):
        injected += 1
        source.broadcast(f"probe-{injected}")
    deadline = start_at + timeout
    done = 0
    while sim.now < deadline and done < n:
        while done < injected and system.all_delivered(done + 1):
            done += 1
            if injected < n:
                injected += 1
                source.broadcast(f"probe-{injected}")
        if done < n:
            sim.run(until=min(sim.now + check_period, deadline))

    completed: Dict[int, float] = {}
    for host, records in system.delivery_records().items():
        if host == system.source_id:
            continue
        for r in records:
            completed[r.seq] = max(completed.get(r.seq, 0.0), r.delivered_at)
    last = max(completed, default=0)
    first = skip if skip is not None else max(1, n // 5)
    if last <= first:
        makespan = sim.now - start_at  # probe barely progressed
        return last / makespan if makespan > 0 else float("inf")
    span = completed[last] - completed[first]
    return (last - first) / span if span > 0 else float("inf")


class CountingSource:
    """Wraps any source, splitting *offered* from *admitted* load.

    Open-loop generators call :meth:`broadcast` for every arrival; with
    admission control on, some calls are rejected (the wrapped source
    returns 0).  This adapter is protocol-agnostic — tree, basic, and
    epidemic sources all satisfy the ``broadcast(content) -> int``
    protocol — so E25 accounts offered/admitted identically across the
    whole sweep.
    """

    def __init__(self, source: SourceLike) -> None:
        self.source = source
        self.offered = 0
        self.admitted = 0

    def broadcast(self, content: object = None) -> int:
        """Forward one arrival; tallies the outcome either way."""
        self.offered += 1
        seq = self.source.broadcast(content)
        if seq > 0:
            self.admitted += 1
        return seq


@dataclass(frozen=True)
class SloSpec:
    """Declarative tail-latency gates (seconds); ``None`` = not gated."""

    p50: Optional[float] = None
    p99: Optional[float] = None
    p999: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("p50", "p99", "p999"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} gate must be positive, got {value}")

    def evaluate(self, stats: DelayStats) -> Tuple[bool, Tuple[str, ...]]:
        """Check ``stats`` against every declared gate.

        Returns ``(passed, failures)`` where each failure reads
        ``"p99 3.21s > 2.00s"``.  A gated percentile with no samples
        behind it (NaN) fails — silence is not compliance.
        """
        failures: List[str] = []
        for name in ("p50", "p99", "p999"):
            gate = getattr(self, name)
            if gate is None:
                continue
            measured = getattr(stats, name)
            if math.isnan(measured):
                failures.append(f"{name} unmeasured (no samples)")
            elif measured > gate:
                failures.append(f"{name} {measured:.2f}s > {gate:.2f}s")
        return (not failures, tuple(failures))
