"""Real-time backend: asyncio as a :class:`Runtime`.

One :class:`AsyncioRuntime` is shared by every protocol machine in the
process, mirroring how one :class:`~repro.sim.kernel.Simulator` serves
all hosts in a simulation: a single protocol clock, one seed-derived
:class:`~repro.sim.rng.RngRegistry`, one :class:`~repro.sim.trace.Tracer`
and one :class:`~repro.sim.metrics.MetricsRegistry` — the same
observability objects the sim uses, fed by a wall-clock shim instead of
the virtual clock, so the analysis layer reads UDP runs and sim runs
identically.

Time model: the runtime has its own *protocol clock* that starts at 0.0
when the runtime is constructed.  ``time_scale`` maps protocol seconds
to wall seconds (wall = protocol × scale), so a demo configured with the
paper's multi-second timers can run 10–50× faster than real time without
touching :class:`~repro.core.config.ProtocolConfig`.  All Runtime-facing
delays are protocol seconds; the scaling happens only at the
``loop.call_later`` boundary.

Construction needs no event loop — machines can be built up front; the
loop is resolved lazily the first time a timer/periodic/call_soon
actually needs it (i.e. once ``asyncio.run`` is driving).

A timer or periodic callback that raises fails the run: the runtime
keeps the first such exception in :attr:`AsyncioRuntime.failure`, and
the waits that drive a run (``UdpBroadcastSystem.run_until_delivered``,
:func:`~repro.chaos.nemesis.wait_healed`) re-raise it.  asyncio's
exception handler still logs it, for runs that never wait.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable, Optional

from ..sim.metrics import MetricsRegistry
from ..sim.rng import RngRegistry
from ..sim.trace import Tracer


class _ProtocolClock:
    """Duck-types the one simulator attribute Tracer/Metrics read: ``now``."""

    __slots__ = ("_runtime",)

    def __init__(self, runtime: "AsyncioRuntime") -> None:
        self._runtime = runtime

    @property
    def now(self) -> float:
        return self._runtime.now()


class AsyncioTimer:
    """One-shot timer handle over ``loop.call_later``."""

    __slots__ = ("_handle", "_runtime", "callback", "name")

    def __init__(self, runtime: "AsyncioRuntime",
                 callback: Callable[[], None], name: str = "") -> None:
        self._handle: Optional[asyncio.TimerHandle] = None
        self._runtime = runtime
        self.callback = callback
        self.name = name

    @property
    def armed(self) -> bool:
        """True until the timer fires or is cancelled."""
        return self._handle is not None

    def cancel(self) -> None:
        """Disarm without firing; safe when already disarmed/expired."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        try:
            self.callback()
        except Exception as exc:
            self._runtime._fail(exc)


class AsyncioPeriodic:
    """Periodic task over chained ``loop.call_later`` calls.

    Same semantics as :class:`~repro.sim.process.PeriodicTask`: created
    stopped, first tick one (jittered) period after ``start()``, jitter
    uniform in ``[-jitter, +jitter]`` from a named RNG stream.
    """

    __slots__ = ("_runtime", "period", "jitter", "callback", "name",
                 "_rng", "_handle", "_running")

    def __init__(
        self,
        runtime: "AsyncioRuntime",
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng_stream: str = "periodic.jitter",
        name: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if jitter < 0 or jitter >= period:
            raise ValueError(f"jitter must be in [0, period), got {jitter}")
        self._runtime = runtime
        self.period = period
        self.jitter = jitter
        self.callback = callback
        self.name = name
        self._rng = runtime.rng(rng_stream)
        self._handle: Optional[asyncio.TimerHandle] = None
        self._running = False

    @property
    def running(self) -> bool:
        """True while the task is ticking."""
        return self._running

    def start(self) -> "AsyncioPeriodic":
        """Begin ticking.  The first tick fires after one (jittered) period."""
        if self._running:
            return self
        self._running = True
        self._schedule()
        return self

    def stop(self) -> None:
        """Stop ticking; safe to call when already stopped."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _delay(self) -> float:
        if self.jitter == 0.0:
            return self.period
        return self.period + self._rng.uniform(-self.jitter, self.jitter)

    def _schedule(self) -> None:
        loop = self._runtime._loop_for_scheduling()
        self._handle = loop.call_later(
            self._delay() * self._runtime.time_scale, self._tick)

    def _tick(self) -> None:
        self._handle = None
        if not self._running:
            return
        try:
            self.callback()
        except Exception as exc:
            self._running = False
            self._runtime._fail(exc)
            return
        if self._running:  # callback may have stopped us
            self._schedule()


class AsyncioRuntime:
    """Wall-clock :class:`~repro.io.interfaces.Runtime` over asyncio.

    Args:
        seed: master seed for the named RNG streams (jitter, backoff).
            The same protocol-side streams exist under the same names as
            in-sim, so seed-matched runs draw comparable jitter.
        time_scale: wall seconds per protocol second.  ``0.05`` runs a
            scenario 20× faster than real time.
        trace: whether the shared :class:`~repro.sim.trace.Tracer`
            retains records (disable for long runs).
    """

    def __init__(self, seed: int = 0, *, time_scale: float = 1.0,
                 trace: bool = True) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.seed = int(seed)
        self.time_scale = float(time_scale)
        self._epoch = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: the first exception a timer or periodic callback raised
        self.failure: Optional[Exception] = None
        clock = _ProtocolClock(self)
        #: shared observability, same objects the simulator exposes
        self.trace_sink = Tracer(clock, enabled=trace)  # type: ignore[arg-type]
        self.metrics = MetricsRegistry(clock)  # type: ignore[arg-type]
        self._rngs = RngRegistry(self.seed)
        # Contract-conformant bound shortcuts (mirrors SimRuntime).
        self.trace = self.trace_sink.emit
        self.counter = self.metrics.counter
        self.histogram = self.metrics.histogram
        self.rng = self._rngs.stream

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Protocol seconds since the runtime was constructed."""
        return (time.monotonic() - self._epoch) / self.time_scale

    # -- callback failures ---------------------------------------------

    def _fail(self, exc: Exception) -> None:
        if self.failure is None:
            self.failure = exc
        self._loop_for_scheduling().call_exception_handler(
            {"message": "runtime callback raised", "exception": exc})

    def raise_failure(self) -> None:
        """Re-raise the first exception a callback raised, if any."""
        if self.failure is not None:
            raise self.failure

    def _loop_for_scheduling(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None or loop.is_closed():
            loop = self._loop = asyncio.get_running_loop()
        return loop

    # -- scheduling ----------------------------------------------------

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback`` on the next loop iteration."""
        self._loop_for_scheduling().call_soon(callback, *args)

    def start_timer(self, delay: float,
                    callback: Callable[[], None]) -> AsyncioTimer:
        """Arm a one-shot timer ``delay`` protocol seconds from now."""
        loop = self._loop_for_scheduling()
        timer = AsyncioTimer(self, callback)
        timer._handle = loop.call_later(delay * self.time_scale, timer._fire)
        return timer

    def cancel_timer(self, handle: Optional[AsyncioTimer]) -> None:
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
    ) -> AsyncioPeriodic:
        """An unstarted periodic task ticking every ``period`` seconds."""
        return AsyncioPeriodic(self, period, callback, jitter=jitter,
                               rng_stream=rng_stream, name=name)

    # -- typing conveniences (mypy sees attributes, not the bindings) --

    if False:  # pragma: no cover - never executed, aids static analysis

        def trace(self, kind: str, source: str, /, **fields: Any) -> None: ...

        def counter(self, name: str): ...

        def histogram(self, name: str): ...

        def rng(self, name: str) -> random.Random: ...
