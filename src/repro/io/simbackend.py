"""Discrete-event backend: the simulator as a :class:`Runtime`.

:class:`SimRuntime` adapts one :class:`~repro.sim.kernel.Simulator` to
the :class:`~repro.io.interfaces.Runtime` contract.  It is a *pure
adapter*: every call delegates to exactly the simulator primitive the
protocol machines used before the sans-IO refactor, in the same order,
so seeded runs are byte-identical to the pre-refactor tree (pinned by
``tests/io/test_signature_pin.py``).

Hot-path note: ``trace``/``counter``/``histogram``/``rng`` are bound
straight to the simulator's own methods at construction, and ``now``
to a C-level read of ``sim.now``, so the adapter adds **zero** Python
frames on the protocol's hottest paths — ``runtime.trace(...)`` *is*
``sim.trace.emit(...)``.

The sim-side ports (:class:`~repro.net.hostiface.HostPort`,
:class:`~repro.core.piggyback.PiggybackPort`, the multi-source
:class:`~repro.core.multisource.VirtualPort`) satisfy the
:class:`~repro.io.interfaces.Transport` contract natively, so system
assembly hands them to the machines directly.

:class:`SimDeployment` is the in-sim half of the one deployment harness
(:class:`~repro.io.interfaces.Deployment`): the tree, basic and
epidemic system classes each add only a constructor to it.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, List, Optional, Set

from ..net.addressing import HostId
from ..sim import PeriodicTask, Simulator, Timer
from .interfaces import Deployment


class SimRuntime:
    """One simulator exposed as a :class:`~repro.io.interfaces.Runtime`.

    Shared by every protocol machine deployed over the same simulator,
    exactly as the simulator itself was before the refactor.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: the shared :class:`~repro.sim.trace.Tracer` (read side of
        #: ``trace``; uniform with ``AsyncioRuntime.trace_sink`` so
        #: monitors can consume the trace stream on either backend).  A
        #: plain attribute: hot emit sites test ``trace_sink.active``.
        self.trace_sink = sim.trace
        # Direct bindings: these four satisfy the Runtime contract with
        # the simulator's own bound methods (no wrapper frame).
        self.trace = sim.trace.emit
        self.counter = sim.metrics.counter
        self.histogram = sim.metrics.histogram
        self.rng = sim.rng.stream
        # ``runtime.now()`` reads the loop-written ``sim.now`` in C.
        self.now = partial(getattr, sim, "now")

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback`` at the current virtual time, after what is due now."""
        self.sim.call_soon(callback, *args)

    # -- timers --------------------------------------------------------

    def start_timer(self, delay: float,
                    callback: Callable[[], None]) -> Timer:
        """Arm a fresh one-shot :class:`~repro.sim.process.Timer`."""
        timer = Timer(self.sim, callback)
        timer.start(delay)
        return timer

    def cancel_timer(self, handle: Optional[Timer]) -> None:
        """Disarm; safe on None, expired, or already cancelled handles."""
        if handle is not None:
            handle.cancel()

    def start_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng_stream: str = "periodic.jitter",
        name: str = "",
    ) -> PeriodicTask:
        """An unstarted :class:`~repro.sim.process.PeriodicTask`."""
        return PeriodicTask(self.sim, period, callback, jitter=jitter,
                            rng_stream=rng_stream, name=name)

    # -- typing conveniences (mypy sees attributes, not the bindings) --

    if False:  # pragma: no cover - never executed, aids static analysis

        def trace(self, kind: str, source: str, /, **fields: Any) -> None: ...

        def now(self) -> float: ...

        def counter(self, name: str): ...

        def histogram(self, name: str): ...

        def rng(self, name: str) -> random.Random: ...


class SimDeployment(Deployment):
    """A :class:`~repro.io.interfaces.Deployment` over a simulated
    topology (a :class:`~repro.net.generator.BuiltTopology`)."""

    def __init__(self, built: Any, source: Optional[HostId] = None) -> None:
        """``source`` defaults to the topology's first host."""
        self.built = built
        self.network = built.network
        self.sim: Simulator = built.network.sim
        source_id = source if source is not None else built.source
        if source_id not in built.hosts:
            raise ValueError(f"source {source_id} is not a topology host")
        super().__init__(SimRuntime(self.sim), source_id)

    def _call_at(self, time: float, callback: Callable[[], None]) -> None:
        # The absolute time, not now + (time - now): a different float
        # would move every pinned delivery signature.
        self.sim.schedule_at(time, callback)

    def true_clusters(self) -> List[Set[HostId]]:
        return self.network.true_clusters()

    def reachable(self, a: HostId, b: HostId) -> bool:
        return self.network.reachable(a, b)

    def run_until_delivered(
        self,
        n: int,
        timeout: float,
        hosts: Optional[List[HostId]] = None,
        check_period: float = 0.5,
    ) -> bool:
        """Run the simulation until 1..n reach all (given) hosts.

        Returns True on success, False when ``timeout`` virtual seconds
        elapse first.  The clock is left at the moment the condition was
        first observed (checked every ``check_period``).
        """
        sim = self.sim
        deadline = sim.now + timeout
        while sim.now < deadline:
            if self.all_delivered(n, hosts):
                return True
            sim.run(until=min(sim.now + check_period, deadline))
        return self.all_delivered(n, hosts)
