"""Adversarial packet-level fault injection.

:class:`PacketChaos` attacks the protocol *below* the payload layer but
*above* the links: it taps chosen hosts' inbound ports
(:attr:`repro.io.interfaces.Transport.tap`) and, on a seeded schedule,

* **drops** wire messages outright (datagram loss concentrated on a
  victim — gap filling must repair the holes);
* **corrupts** them (flips the payload checksum, modelling in-flight
  bit rot — receivers must validate and drop);
* **duplicates** them (a second copy arrives shortly after — receivers
  must suppress duplicate control traffic);
* **delays** them (adversarial timing skew — adaptive deadlines must
  absorb it, fixed ones thrash);
* **replays** stale copies much later (receivers must not let an old
  AttachAck or InfoMsg wind protocol state backwards).

This is deliberately *receiver-side* injection: link loss/duplication
(:class:`repro.net.link.LinkSpec`) models an unreliable network, while
PacketChaos models what the paper's end-to-end argument actually has to
survive — garbage arriving at a correct host.  Faults compose with
every other injector through :class:`repro.chaos.plan.ChaosPlan`
(``ChaosSpec.packet_faults``), which also enforces the heal-by horizon:
``stop()`` cancels every pending injection, so no chaos-made packet can
arrive after the plan has healed.

Backend-agnostic since the sans-IO port: the injector speaks only the
:class:`~repro.io.interfaces.Runtime` contract (``start_timer`` /
``cancel_timer`` / ``rng`` / ``trace`` / ``counter``) and the uniform
``tap``/``inject`` port surface every :class:`~repro.io.interfaces.
Transport` exposes, so the same seeded spec runs against the
discrete-event network *and* against real UDP sockets, both through
:class:`~repro.chaos.plan.ChaosPlan`.  The port surface is either a sim
``Network`` (``hosts()``/``host_port()``) or any mapping of host id →
transport (e.g. ``UdpBroadcastSystem.transports``).

Determinism: all draws come from one named RNG stream, and on the sim
backend packet arrival order is itself deterministic, so a (seed, spec)
pair replays the identical fault sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.wire import corrupted_copy
from ..io.interfaces import Runtime, TimerHandle, Transport, as_runtime
from ..net import HostId, Packet

_INF = float("inf")


@dataclass(frozen=True)
class PacketFaultSpec:
    """One packet-fault rule: who it hits, when, and with what mix.

    ``src``/``dst`` name hosts (``"*"`` matches any); the rule applies
    to packets *received by* ``dst`` during ``[start, end)``.  Each
    probability is drawn independently per matching packet, in the
    fixed order drop → corrupt → duplicate → replay → delay.
    """

    src: str = "*"
    dst: str = "*"
    start: float = 0.0
    end: float = _INF
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    #: mean extra delay for delayed packets (actual: uniform 0.5x–1.5x)
    delay: float = 0.5
    replay_prob: float = 0.0
    #: how much later the stale copy of a replayed packet arrives
    replay_lag: float = 2.0
    #: how much later a duplicated packet's second copy arrives
    dup_lag: float = 0.05

    def __post_init__(self) -> None:
        for name in ("drop_prob", "corrupt_prob", "dup_prob", "delay_prob",
                     "replay_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value}")
        for name in ("delay", "replay_lag", "dup_lag"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.end <= self.start:
            raise ValueError(f"end {self.end} must be after start {self.start}")


class PacketChaos:
    """Inject :class:`PacketFaultSpec` faults into hosts' inbound paths."""

    def __init__(
        self,
        runtime: Any,
        ports: Any,
        specs: Sequence[PacketFaultSpec],
        rng_stream: str = "chaos.packets",
    ) -> None:
        self.runtime: Runtime = as_runtime(runtime)
        #: the port surface: a sim ``Network`` or a host-id → transport map
        self.ports = ports
        self.specs: Tuple[PacketFaultSpec, ...] = tuple(specs)
        self._rng = self.runtime.rng(rng_stream)
        self._running = False
        #: dst host -> its matching rules, resolved once at start()
        self._rules: Dict[HostId, List[PacketFaultSpec]] = {}
        #: (port, our tap) pairs; stop() only removes taps we still own
        #: (an adversary persona may have chained over them)
        self._tapped: List[Tuple] = []
        #: pending scheduled injections, keyed to the destination host so
        #: stop() — and a mid-window crash of that host — can cancel them
        self._pending: Dict[TimerHandle, HostId] = {}

    # -- port surface ------------------------------------------------------

    def _host_ids(self) -> List[HostId]:
        if isinstance(self.ports, Mapping):
            return list(self.ports)
        return list(self.ports.hosts())

    def _port_for(self, host_id: HostId) -> Transport:
        if isinstance(self.ports, Mapping):
            return self.ports[host_id]
        return self.ports.host_port(host_id)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PacketChaos":
        """Install taps on every matching host port; returns self."""
        if self._running:
            return self
        self._running = True
        for host_id in self._host_ids():
            rules = [s for s in self.specs
                     if s.dst == "*" or s.dst == str(host_id)]
            if not rules:
                continue
            self._rules[host_id] = rules
            port = self._port_for(host_id)
            tap = self._make_tap(port)
            port.tap = tap
            self._tapped.append((port, tap))
        self.runtime.trace("chaos.packets.start", "packet_chaos",
                           tapped=len(self._tapped))
        return self

    def stop(self) -> None:
        """Remove all taps and cancel every pending injection."""
        self._running = False
        for port, tap in self._tapped:
            if port.tap is tap:
                port.tap = None
        self._tapped.clear()
        for handle in self._pending:
            self.runtime.cancel_timer(handle)
        self._pending.clear()
        self.runtime.trace("chaos.packets.stop", "packet_chaos")

    def cancel_pending_for(self, host_id: HostId) -> None:
        """Cancel pending injections destined for ``host_id``.

        A host that crashes mid-window must not have chaos-made
        duplicates, replays, or delayed copies still arriving on its
        port: a real crashed host drops them anyway, and a host that
        *recovers* before the injection fires would otherwise receive
        packets from a network interaction that predates its crash —
        exactly the stale state the crash is supposed to destroy.
        """
        stale = [handle for handle, dst in self._pending.items()
                 if dst == host_id]
        for handle in stale:
            self.runtime.cancel_timer(handle)
            del self._pending[handle]
        if stale:
            self.runtime.counter(
                "chaos.packet.cancelled_crashed").inc(len(stale))
            self.runtime.trace("chaos.packets.cancel_crashed",
                               str(host_id), cancelled=len(stale))

    # -- injection ---------------------------------------------------------

    def _match(self, rules: List[PacketFaultSpec], src: HostId,
               now: float) -> Optional[PacketFaultSpec]:
        src_name = str(src)
        for spec in rules:
            if spec.src != "*" and spec.src != src_name:
                continue
            if spec.start <= now < spec.end:
                return spec
        return None

    def _make_tap(self, port):
        rules = self._rules[port.host_id]

        def tap(packet: Packet) -> bool:
            if not self._running:
                return False
            spec = self._match(rules, packet.src, self.runtime.now())
            if spec is None:
                return False
            return self._apply(spec, port, packet)

        return tap

    def _apply(self, spec: PacketFaultSpec, port, packet: Packet) -> bool:
        """Draw and apply ``spec``'s faults; True if the packet was consumed."""
        rng = self._rng
        runtime = self.runtime
        if spec.drop_prob > 0 and rng.random() < spec.drop_prob:
            runtime.counter("chaos.packet.dropped").inc()
            runtime.trace("chaos.packet.drop", str(port.host_id),
                          src=str(packet.src), packet=packet.packet_id)
            return True  # lost: nothing arrives, nothing rides along
        pkt = packet
        touched = False
        if spec.corrupt_prob > 0 and rng.random() < spec.corrupt_prob:
            mangled = corrupted_copy(packet.payload)
            if mangled is not None:
                pkt = packet.fork()
                pkt.payload = mangled  # type: ignore[assignment]
                touched = True
                runtime.counter("chaos.packet.corrupted").inc()
                runtime.trace("chaos.packet.corrupt", str(port.host_id),
                              src=str(packet.src), packet=packet.packet_id)
        if spec.dup_prob > 0 and rng.random() < spec.dup_prob:
            runtime.counter("chaos.packet.duplicated").inc()
            self._later(port, pkt.fork(), spec.dup_lag)
        if spec.replay_prob > 0 and rng.random() < spec.replay_prob:
            runtime.counter("chaos.packet.replayed").inc()
            self._later(port, pkt.fork(), spec.replay_lag)
        if spec.delay_prob > 0 and rng.random() < spec.delay_prob:
            runtime.counter("chaos.packet.delayed").inc()
            extra = spec.delay * rng.uniform(0.5, 1.5)
            runtime.trace("chaos.packet.delay", str(port.host_id),
                          src=str(packet.src), packet=packet.packet_id,
                          extra=extra)
            self._later(port, pkt, extra)
            return True  # the original does not arrive now
        if touched:
            port.inject(pkt)  # corrupted copy replaces the original
            return True
        return False  # duplicates/replays ride along; original proceeds

    def _later(self, port, pkt: Packet, delay: float) -> None:
        """Schedule a tap-bypassing injection, tracked (per destination
        host) for stop() and :meth:`cancel_pending_for`."""

        def fire() -> None:
            self._pending.pop(handle, None)
            port.inject(pkt)

        handle = self.runtime.start_timer(delay, fire)
        self._pending[handle] = port.host_id
