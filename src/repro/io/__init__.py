"""Pluggable runtime/transport backends for the sans-IO protocol core.

This package is the seam between the pure protocol machines
(:mod:`repro.core`, :mod:`repro.baseline`) and the world:

* :mod:`repro.io.interfaces` — the :class:`Runtime` and
  :class:`Transport` contracts the machines are written against, and
  the :class:`Deployment` harness every system class inherits;
* :mod:`repro.io.simbackend` — the deterministic discrete-event
  backend (:class:`SimRuntime` over :class:`repro.sim.Simulator`,
  :class:`SimDeployment` over a built topology);
* :mod:`repro.io.aio` / :mod:`repro.io.udp` / :mod:`repro.io.node` —
  the real-time backend: asyncio timers, localhost UDP sockets, and
  full-system assembly;
* :mod:`repro.io.crosscheck` — the seed-matched sim-vs-UDP parity
  harness behind ``python -m repro demo udp``.

See DESIGN.md §14 for the architecture and the per-backend guarantees.
"""

from .interfaces import (
    CounterLike,
    Deployment,
    HistogramLike,
    PeriodicHandle,
    ReceiveFn,
    Runtime,
    SendTapFn,
    TapFn,
    TimerHandle,
    Transport,
    as_runtime,
)
from .simbackend import SimDeployment, SimRuntime

# Only the contracts and the sim adapters load eagerly.  Everything
# else resolves lazily (PEP 562), for two reasons: the real-time
# backend (aio/udp) would drag ``asyncio`` into every sim-only run —
# measurably slowing the event loop by inflating the GC-tracked heap —
# and the assembly/harness layer (node/crosscheck) imports repro.core,
# which itself depends on the interfaces above, so laziness keeps the
# import graph acyclic.
_LAZY = {
    "AsyncioPeriodic": "aio",
    "AsyncioRuntime": "aio",
    "AsyncioTimer": "aio",
    "UdpTransport": "udp",
    "UdpBroadcastSystem": "node",
    "cluster_names": "node",
    "ChaosCrosscheckResult": "crosscheck",
    "ChaosCrosscheckScenario": "crosscheck",
    "CrosscheckResult": "crosscheck",
    "CrosscheckScenario": "crosscheck",
    "chaos_crosscheck": "crosscheck",
    "crosscheck": "crosscheck",
    "demo_udp": "crosscheck",
    "demo_udp_chaos": "crosscheck",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module_name}", __name__), name)


__all__ = [
    "AsyncioPeriodic",
    "AsyncioRuntime",
    "AsyncioTimer",
    "ChaosCrosscheckResult",
    "ChaosCrosscheckScenario",
    "CounterLike",
    "CrosscheckResult",
    "CrosscheckScenario",
    "Deployment",
    "HistogramLike",
    "PeriodicHandle",
    "ReceiveFn",
    "Runtime",
    "SendTapFn",
    "SimDeployment",
    "SimRuntime",
    "TapFn",
    "TimerHandle",
    "Transport",
    "UdpBroadcastSystem",
    "UdpTransport",
    "as_runtime",
    "chaos_crosscheck",
    "cluster_names",
    "crosscheck",
    "demo_udp",
    "demo_udp_chaos",
]
