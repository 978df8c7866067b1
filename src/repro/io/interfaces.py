"""The sans-IO runtime and transport contracts (DESIGN.md §14).

The protocol machines in :mod:`repro.core` and :mod:`repro.baseline`
are pure state machines: events in (packets, timer fires), messages out
(unicast sends), plus observability side effects (trace records,
metrics).  Everything they need from their environment is collected in
two narrow structural interfaces:

* :class:`Runtime` — clock, one-shot timers, periodic tasks, named RNG
  streams, tracing, and metrics.  The discrete-event backend is
  :class:`repro.io.simbackend.SimRuntime` (virtual time, deterministic);
  the real-socket backend is
  :class:`repro.io.aio.AsyncioRuntime` (wall clock, asyncio timers).
* :class:`Transport` — the host's single attachment point to a network:
  fire-and-forget unicast, an inbound-packet callback, the local clock
  reading, local send-queue depth, and the chaos/adversary tap points.
  The discrete-event backend is :class:`repro.net.hostiface.HostPort`
  (and its wrappers :class:`repro.core.piggyback.PiggybackPort` and
  :class:`repro.core.multisource.VirtualPort`); the real-socket backend
  is :class:`repro.io.udp.UdpTransport`.

Both are :func:`typing.runtime_checkable` Protocols, so conformance is
structural — a backend never imports the protocol machines, and the
machines never import a backend.

:class:`Deployment` is the one harness every system class inherits
(tree, basic and epidemic in-sim through
:class:`repro.io.simbackend.SimDeployment`, tree over UDP through
:class:`repro.io.node.UdpBroadcastSystem`): lifecycle, crash/recover,
the broadcast workload and the convergence queries, written once
against duck-typed hosts.  A backend supplies one hook, ``_call_at``,
and the two ground-truth queries the oracles in :mod:`repro.verify`
read, ``true_clusters()`` and ``reachable(a, b)``.

Contract notes (what every backend must guarantee):

* ``now()`` is monotonically non-decreasing and starts near 0.0; all
  protocol timing config (:class:`repro.core.config.ProtocolConfig`) is
  expressed in these *protocol seconds*.
* ``start_timer`` returns a handle that fires the callback exactly once
  after ``delay`` protocol seconds unless cancelled; ``cancel_timer``
  is safe to call with ``None``, an expired handle, or an already
  cancelled handle (idempotent disarm).
* ``start_periodic`` returns the handle *unstarted*; the first tick
  fires one (jittered) period after ``start()``.  ``stop()`` must
  guarantee no further ticks.  Jitter draws come from the named RNG
  stream so seeded backends replay identically.
* ``trace``/``counter``/``histogram`` must never affect protocol
  behavior — observability is write-only from the machine's view.
* ``Transport.send`` is fire-and-forget unicast with no delivery
  feedback (the paper's nonprogrammable-server service model).
  ``send``/``deliver`` route through the installed taps;
  ``send_raw``/``inject`` are the tap re-entry points that bypass them.
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Set,
    runtime_checkable,
)

from ..net.addressing import HostId
from ..net.message import Packet, Payload

#: Inbound-packet callback an application registers on a transport.
ReceiveFn = Callable[[Packet], None]

#: A delivery tap: sees each inbound packet *before* receive accounting;
#: returning True consumes the packet (the tap is responsible for any
#: later re-injection via :meth:`Transport.inject`).
TapFn = Callable[[Packet], bool]

#: A send tap: sees each outbound (dst, payload) pair *before*
#: packetisation and send accounting; returning True consumes the send
#: (the tap is responsible for any substitute via
#: :meth:`Transport.send_raw`).
SendTapFn = Callable[[HostId, Payload], bool]


@runtime_checkable
class CounterLike(Protocol):
    """A monotonically increasing metric."""

    value: float

    def inc(self, amount: float = 1.0) -> None: ...


@runtime_checkable
class HistogramLike(Protocol):
    """A sample-recording metric."""

    def observe(self, value: float) -> None: ...


@runtime_checkable
class TimerHandle(Protocol):
    """A one-shot timer armed by :meth:`Runtime.start_timer`."""

    @property
    def armed(self) -> bool: ...

    def cancel(self) -> None: ...


@runtime_checkable
class PeriodicHandle(Protocol):
    """A periodic task created by :meth:`Runtime.start_periodic`.

    Created stopped; ``start()`` begins ticking (first tick after one
    jittered period), ``stop()`` guarantees no further ticks.  Both are
    idempotent.
    """

    name: str

    @property
    def running(self) -> bool: ...

    def start(self) -> "PeriodicHandle": ...

    def stop(self) -> None: ...


@runtime_checkable
class Runtime(Protocol):
    """Everything a protocol machine may ask of its execution substrate."""

    def now(self) -> float:
        """Current protocol time in seconds (monotone, starts near 0)."""
        ...

    def rng(self, name: str) -> random.Random:
        """The named seed-derived RNG stream (stable per name)."""
        ...

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback`` as soon as possible, after pending work."""
        ...

    def start_timer(self, delay: float,
                    callback: Callable[[], None]) -> TimerHandle:
        """Arm a one-shot timer ``delay`` protocol seconds from now."""
        ...

    def cancel_timer(self, handle: Optional[TimerHandle]) -> None:
        """Disarm a timer; safe on None / expired / already cancelled."""
        ...

    def start_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng_stream: str = "periodic.jitter",
        name: str = "",
    ) -> PeriodicHandle:
        """Create an (unstarted) periodic task ticking every ``period``."""
        ...

    def trace(self, kind: str, source: str, /, **fields: Any) -> None:
        """Emit one structured trace record (observability only)."""
        ...

    @property
    def trace_sink(self) -> Any:
        """The tracer behind ``trace`` — the *read* side of the trace
        stream: ``subscribe(prefix, fn)`` / ``unsubscribe(fn)`` for
        records as they are emitted (whether or not the tracer retains
        them), and ``records(kind=...)`` for what it has retained.
        Online oracles such as
        :class:`repro.verify.monitor.InvariantMonitor` subscribe;
        ``records()`` walks the whole retained trace, so nothing
        periodic should call it.

        It must also expose a plain boolean attribute ``active``, equal
        to ``enabled or bool(subscribers)``: true whenever records are
        retained or anyone subscribes.  Hosts and transports skip their
        per-delivery and per-packet ``trace`` calls while it is false,
        so a sink that leaves it false loses those records."""
        ...

    def counter(self, name: str) -> CounterLike:
        """The named counter, created on first use."""
        ...

    def histogram(self, name: str) -> HistogramLike:
        """The named histogram, created on first use."""
        ...


@runtime_checkable
class Transport(Protocol):
    """A host's single attachment point onto some network.

    The attribute pair ``tap``/``send_tap`` and the method pair
    ``inject``/``send_raw`` form the uniform chaos/adversary surface:
    an injector installs the same tap callable on any backend, and
    re-enters substituted traffic through the same bypass methods.
    """

    host_id: HostId
    tap: Optional[TapFn]
    send_tap: Optional[SendTapFn]

    def set_receiver(self, callback: ReceiveFn) -> None:
        """Register the application callback for inbound packets."""
        ...

    def send(self, dst: HostId, payload: Payload) -> None:
        """Fire-and-forget unicast (runs the send tap first)."""
        ...

    def send_raw(self, dst: HostId, payload: Payload) -> None:
        """Transmit bypassing the send tap (the tap's re-entry point)."""
        ...

    def inject(self, packet: Packet) -> None:
        """Deliver inbound bypassing the tap (the tap's re-entry point)."""
        ...

    def local_time(self) -> float:
        """This host's local clock reading (protocol seconds)."""
        ...

    def queue_length(self) -> int:
        """Outbound packets queued or in flight on the local send path."""
        ...


class Deployment:
    """One source and its hosts on some backend: the shared harness.

    Hosts are duck-typed (``start``/``stop``/``crash``/``recover``/
    ``crashed``/``deliveries``, plus ``broadcast`` on the source), so
    this module still imports no protocol machine.  Subclasses fill
    :attr:`hosts` and implement :meth:`_call_at`.
    """

    def __init__(self, runtime: Runtime, source_id: HostId) -> None:
        #: the one Runtime shared by every host of this deployment
        self.runtime = runtime
        self.source_id = source_id
        #: host id -> protocol machine, in deployment order
        self.hosts: Dict[HostId, Any] = {}

    def _call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute protocol time ``time``."""
        raise NotImplementedError

    # -- ground truth: read by the oracles in repro.verify, never by a host

    def true_clusters(self) -> List[Set[HostId]]:
        """The real clusters, as sets of host ids."""
        raise NotImplementedError

    def reachable(self, a: HostId, b: HostId) -> bool:
        """True when hosts ``a`` and ``b`` can reach each other now."""
        raise NotImplementedError

    @property
    def source(self) -> Any:
        """The source host agent (root of the broadcast)."""
        return self.hosts[self.source_id]

    def start(self) -> "Deployment":
        """Start periodic activity; returns self for chaining."""
        for host in self.hosts.values():
            host.start()
        return self

    def stop(self) -> None:
        """Stop periodic activity; safe to call more than once."""
        for host in self.hosts.values():
            host.stop()

    def crash_host(self, host_id: HostId) -> None:
        """Crash one host (volatile state lost, silent; idempotent)."""
        self.hosts[host_id].crash()

    def recover_host(self, host_id: HostId) -> None:
        """Recover a crashed host (no-op when it is up)."""
        self.hosts[host_id].recover()

    def crashed_hosts(self) -> List[HostId]:
        """Hosts currently down, sorted."""
        return sorted(h for h, host in self.hosts.items() if host.crashed)

    def broadcast_stream(
        self,
        count: int,
        interval: float,
        start_at: float = 0.0,
        content: Callable[[int], object] = lambda seq: f"msg-{seq}",
    ) -> None:
        """Schedule ``count`` broadcasts, one every ``interval`` protocol
        seconds from ``start_at``."""
        if count < 0 or interval <= 0:
            raise ValueError("count must be >= 0 and interval positive")
        for k in range(count):
            self._call_at(start_at + k * interval,
                          lambda k=k: self.source.broadcast(content(k + 1)))

    def all_delivered(self, n: int,
                      hosts: Optional[List[HostId]] = None) -> bool:
        """True when every (given) host has delivered messages 1..n."""
        targets = hosts if hosts is not None else self.hosts
        return all(self.hosts[h].deliveries.has_all(n) for h in targets)

    def delivery_records(self) -> Dict[HostId, List[Any]]:
        """Per-host delivery records, keyed by host id."""
        return {host_id: host.deliveries.records()
                for host_id, host in self.hosts.items()}

    def delivered_seqnos(self) -> Dict[str, List[int]]:
        """Per-host sorted delivered sequence numbers (the parity unit)."""
        return {str(h): sorted(r.seq for r in host.deliveries.records())
                for h, host in self.hosts.items()}


def as_runtime(runtime_or_sim: object) -> Runtime:
    """Coerce either a :class:`Runtime` or a bare ``Simulator``.

    For harness-side code (:mod:`repro.chaos`) whose callers may hold
    either: a simulator is wrapped in a
    :class:`~repro.io.simbackend.SimRuntime` on the fly; anything
    already satisfying :class:`Runtime` passes through untouched.  The
    protocol machines take a :class:`Runtime` only.
    """
    if isinstance(runtime_or_sim, Runtime):
        return runtime_or_sim
    from ..sim import Simulator

    if isinstance(runtime_or_sim, Simulator):
        from .simbackend import SimRuntime

        return SimRuntime(runtime_or_sim)
    raise TypeError(
        f"expected a Runtime or Simulator, got {type(runtime_or_sim).__name__}")
