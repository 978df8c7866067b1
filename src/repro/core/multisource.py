"""Multiple-source broadcast (Section 2).

The paper studies the single-source problem and prescribes the
extension: "a multiple-source broadcast can be performed reliably by
running several identical single-source protocols."  This module does
exactly that — one full protocol instance per source, all multiplexed
over each host's single network attachment.

Mechanically, each host gets a :class:`PortMux` over its real
:class:`~repro.net.hostiface.HostPort`.  Every protocol instance sees a
:class:`VirtualPort` that tags outgoing payloads with the instance name
and receives only packets tagged for it.  Tags are application-level
content: the (nonprogrammable) servers still see ordinary unicast
packets, so nothing about the network model changes.

Each instance maintains its own parent graph, INFO sets, and cluster
views.  That per-instance state is exactly what the paper trades for
simplicity ("From the point of view of efficiency this option also
appears to be a reasonable one"), and experiment authors can measure
the overhead by comparing one multi-source system against the same
streams pushed through a single instance.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional

from ..net import BuiltTopology, HostId, HostPort, Packet, Payload, TuplePayload
from ..sim import Simulator
from .config import ProtocolConfig
from .delivery import DeliveryRecord
from .engine import BroadcastSystem
from .piggyback import PiggybackPort

#: callback signature: (source the stream belongs to, delivering host, record)
MultiSourceDeliverCallback = Callable[[HostId, HostId, DeliveryRecord], None]


class TaggedPayload(TuplePayload):
    """An instance-tagged wrapper around a protocol payload."""

    __slots__ = ()

    instance: str
    inner: Payload

    def __new__(cls, instance: str, inner: Payload) -> "TaggedPayload":
        return tuple.__new__(cls, (instance, inner))

    @property
    def kind(self) -> str:
        """Payload class tag used for traffic accounting."""
        return self.inner.kind

    @property
    def size_bits(self) -> int:
        # The tag itself is a few bytes; model it as part of the payload.
        """Serialized size of this message in bits."""
        return self.inner.size_bits


class VirtualPort:
    """The Transport facade one protocol instance sees.

    Conforms to :class:`repro.io.interfaces.Transport`: taps installed
    here see only *this instance's* traffic (post-demultiplex), layered
    on top of whatever taps sit on the shared real port underneath.
    """

    def __init__(self, mux: "PortMux", instance: str) -> None:
        self._mux = mux
        self.instance = instance
        self._receiver: Optional[Callable[[Packet], None]] = None
        #: optional per-instance inbound tap (chaos injection hook)
        self.tap: Optional[Callable[[Packet], bool]] = None
        #: optional per-instance outbound tap (adversary persona hook)
        self.send_tap: Optional[Callable[[HostId, Payload], bool]] = None

    @property
    def sim(self) -> Simulator:
        """The simulator this port belongs to."""
        return self._mux.port.sim

    @property
    def host_id(self) -> HostId:
        """The host this port belongs to."""
        return self._mux.port.host_id

    def set_receiver(self, callback: Callable[[Packet], None]) -> None:
        """Register the callback invoked for each inbound packet."""
        self._receiver = callback

    def local_time(self) -> float:
        """This host's wall-clock reading."""
        return self._mux.port.local_time()

    def queue_length(self) -> int:
        """Outbound access-link queue depth (shared across instances)."""
        return self._mux.port.queue_length()

    def send(self, dst: HostId, payload: Payload) -> None:
        """Send one individually addressed message (fire-and-forget)."""
        send_tap = self.send_tap
        if send_tap is not None and send_tap(dst, payload):
            return
        self.send_raw(dst, payload)

    def send_raw(self, dst: HostId, payload: Payload) -> None:
        """Tag and transmit, bypassing this instance's send tap.

        The shared real port's own taps (if any) still apply — they sit
        one layer below, on the tagged packet stream.
        """
        self._mux.port.send(dst, TaggedPayload(self.instance, payload))

    def inject(self, packet: Packet) -> None:
        """Deliver an (untagged) packet to the instance, bypassing the tap."""
        if self._receiver is not None:
            self._receiver(packet)

    def _deliver(self, packet: Packet) -> None:
        tap = self.tap
        if tap is not None and tap(packet):
            return
        self.inject(packet)


class PortMux:
    """Demultiplexes one real port among several protocol instances."""

    def __init__(self, port: HostPort) -> None:
        self.port = port
        self._virtual: Dict[str, VirtualPort] = {}
        port.set_receiver(self._on_packet)

    def port_for(self, instance: str) -> VirtualPort:
        """A fresh virtual port for the named instance."""
        if instance in self._virtual:
            raise ValueError(
                f"instance {instance!r} already registered on {self.port.host_id}")
        virtual = VirtualPort(self, instance)
        self._virtual[instance] = virtual
        return virtual

    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if not isinstance(payload, TaggedPayload):
            self.port.sim.trace.emit("mux.untagged", str(self.port.host_id),
                                     payload=type(payload).__name__)
            return
        virtual = self._virtual.get(payload.instance)
        if virtual is None:
            self.port.sim.trace.emit("mux.unknown_instance",
                                     str(self.port.host_id),
                                     instance=payload.instance)
            return
        unwrapped = Packet(
            src=packet.src, dst=packet.dst, payload=payload.inner,
            cost_bit=packet.cost_bit, hops=packet.hops,
            sent_at=packet.sent_at, stamped_at=packet.stamped_at,
            packet_id=packet.packet_id)
        virtual._deliver(unwrapped)


class MultiSourceBroadcastSystem:
    """Several identical single-source protocols over one network."""

    def __init__(
        self,
        built: BuiltTopology,
        sources: List[HostId],
        config: Optional[ProtocolConfig] = None,
        deliver_callback: Optional[MultiSourceDeliverCallback] = None,
    ) -> None:
        """``deliver_callback`` (if given) receives
        ``(stream_source, delivering_host, record)`` for every delivery
        of every instance — the extra first argument identifies which
        source's stream the record belongs to."""
        if not sources:
            raise ValueError("need at least one source")
        if len(set(sources)) != len(sources):
            raise ValueError("sources must be distinct")
        for source in sources:
            if source not in built.hosts:
                raise ValueError(f"source {source} is not a topology host")
        self.built = built
        self.network = built.network
        self.sim: Simulator = built.network.sim
        self.sources = list(sources)
        config = config or ProtocolConfig()
        # Piggybacking pays off best here: every instance heartbeats the
        # same neighbors, so bundling happens at the *shared* real port
        # (across instances), not inside each instance.
        if config.enable_piggybacking:
            def attach_point(host_id: HostId):
                return PiggybackPort(built.network.host_port(host_id))
            instance_config = dataclasses.replace(
                config, enable_piggybacking=False)
        else:
            attach_point = built.network.host_port
            instance_config = config
        self._muxes: Dict[HostId, PortMux] = {
            host_id: PortMux(attach_point(host_id))
            for host_id in built.hosts
        }
        #: one complete protocol instance per source, keyed by source id
        self.instances: Dict[HostId, BroadcastSystem] = {}
        for source in sources:
            instance_name = f"src:{source}"
            instance_callback = (None if deliver_callback is None
                                 else functools.partial(deliver_callback, source))
            self.instances[source] = BroadcastSystem(
                built, config=instance_config, source=source,
                deliver_callback=instance_callback,
                port_of=lambda h, name=instance_name: (
                    self._muxes[h].port_for(name)),
            )

    # ------------------------------------------------------------------

    def start(self) -> "MultiSourceBroadcastSystem":
        """Start periodic activity; returns self for chaining."""
        for instance in self.instances.values():
            instance.start()
        return self

    def stop(self) -> None:
        """Stop periodic activity; safe to call more than once."""
        for instance in self.instances.values():
            instance.stop()

    def broadcast(self, source: HostId, content: object = None) -> int:
        """Issue one message from the given source's protocol instance."""
        return self.instances[source].source.broadcast(content)

    def broadcast_stream(self, source: HostId, count: int, interval: float,
                         start_at: float = 0.0) -> None:
        """Schedule ``count`` broadcasts, one every ``interval`` seconds."""
        self.instances[source].broadcast_stream(count, interval, start_at)

    def all_delivered(self, counts: Dict[HostId, int]) -> bool:
        """Have all hosts delivered 1..n for every ``source -> n``?"""
        return all(self.instances[source].all_delivered(n)
                   for source, n in counts.items())

    def run_until_delivered(self, counts: Dict[HostId, int], timeout: float,
                            check_period: float = 0.5) -> bool:
        """Run until 1..n reach all (given) hosts or ``timeout`` elapses."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if self.all_delivered(counts):
                return True
            self.sim.run(until=min(self.sim.now + check_period, deadline))
        return self.all_delivered(counts)
