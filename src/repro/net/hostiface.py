"""The host's port onto the network.

This is the *entire* service interface the network offers the broadcast
application, mirroring the paper's model: a host can ask its server to
deliver a message to one single destination, and it can receive
messages (observing each message's cost bit).  There are no
acknowledgments, no failure notifications, no topology information.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..sim import Counter, Histogram, Simulator
from .addressing import HostId
from .link import Link
from .message import Packet, Payload

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network

ReceiveFn = Callable[[Packet], None]

#: A delivery tap: sees each inbound packet *before* receive accounting;
#: returning True consumes the packet (the tap is responsible for any
#: later re-injection via :meth:`HostPort.inject`).
TapFn = Callable[[Packet], bool]

#: A send tap: sees each outbound (dst, payload) pair *before*
#: packetisation and send accounting; returning True consumes the send
#: (the tap is responsible for any substitute via :meth:`HostPort.send_raw`).
SendTapFn = Callable[[HostId, Payload], bool]


class HostPort:
    """A host's attachment point: one access link to one server."""

    def __init__(
        self,
        sim: Simulator,
        host_id: HostId,
        server_name: str,
        access_link: Link,
        network: "Network",
    ) -> None:
        self.sim = sim
        self.host_id = host_id
        self.server_name = server_name
        self.access_link = access_link
        self.network = network
        self._on_receive: Optional[ReceiveFn] = None
        #: optional inbound tap (chaos injection hook); see :data:`TapFn`
        self.tap: Optional[TapFn] = None
        #: optional outbound tap (adversary persona hook); see :data:`SendTapFn`
        self.send_tap: Optional[SendTapFn] = None
        self._name = str(host_id)
        self._server_receive = network.servers[server_name].receive
        # The access link's host-to-server transmitter, bound once.
        self._uplink = access_link.direction(self._name).send
        # Hot-path metric handles (see DESIGN.md §8), created on first use
        # so an idle port registers nothing: kind -> every counter one
        # send / one receive (cheap path or cost bit set) of it bumps.
        self._h_delay: Optional[Histogram] = None
        self._sent: Dict[str, Tuple[Counter, ...]] = {}
        self._recv: Dict[str, Tuple[Counter, ...]] = {}
        self._recv_exp: Dict[str, Tuple[Counter, ...]] = {}

    def set_receiver(self, callback: ReceiveFn) -> None:
        """Register the application callback for inbound packets."""
        self._on_receive = callback

    def local_time(self) -> float:
        """This host's wall-clock reading (true time if clocks are ideal)."""
        return self.network.local_time(self.host_id)

    def queue_length(self) -> int:
        """Outbound packets queued or in flight on the access link.

        This is the one piece of *local* congestion feedback a real
        host has for free — the depth of its own NIC/driver queue.  It
        deliberately reveals nothing about the rest of the network
        (consistent with the paper's no-feedback service model); the
        bounded-resource layer uses it for outbound load shedding.
        """
        return self.access_link.queue_length(self._name)

    # -- sending ----------------------------------------------------------

    def send(self, dst: HostId, payload: Payload) -> None:
        """Hand one individually addressed message to the server.

        This is fire-and-forget: the network gives no delivery feedback
        of any kind.  Sending to oneself is a programming error.

        If a send tap is installed it sees the (dst, payload) pair
        first; a tap that returns True has consumed the send (dropped,
        mutated, redirected...) and re-enters whatever it actually wants
        on the wire through :meth:`send_raw`.
        """
        if dst == self.host_id:
            raise ValueError(f"host {self.host_id} cannot send to itself")
        send_tap = self.send_tap
        if send_tap is not None and send_tap(dst, payload):
            return
        self.send_raw(dst, payload)

    def send_raw(self, dst: HostId, payload: Payload) -> None:
        """Packetise and transmit, bypassing the send tap.

        This is the send tap's re-entry point (and does all the send
        accounting), so a persona's substituted messages cannot recurse
        into the tap that produced them.
        """
        sim = self.sim
        now = sim.now
        # Network.local_time's stamp rule, read inline (no frame per
        # send); tests/perf/test_hop_hotpath.py checks that they agree.
        clocks = self.network.clocks
        packet = Packet(self.host_id, dst, payload, False, None, now,
                        now if clocks is None else clocks.local_time(self.host_id))
        kind = getattr(payload, "kind", "raw")
        trace = sim.trace
        if trace.active:
            trace.emit("net.host_send", self._name, dst=str(dst),
                       payload_kind=kind, packet=packet.packet_id)
        counters = self._sent.get(kind)
        if counters is None:
            counters = self._sent[kind] = self._register(
                "net.h2h.sent", f"net.h2h.sent.kind.{kind}")
        for counter in counters:
            counter.value += 1.0
        self._uplink(packet, self._server_receive)

    # -- receiving ----------------------------------------------------------

    def deliver_from_network(self, packet: Packet) -> None:
        """Called by the access link when a packet reaches this host.

        If a tap is installed it sees the packet first; a tap that
        returns True has consumed it (dropped, delayed, mutated...) and
        re-enters whatever it wants delivered through :meth:`inject`.
        """
        tap = self.tap
        if tap is not None and tap(packet):
            return
        self.inject(packet)

    def inject(self, packet: Packet) -> None:
        """Deliver ``packet`` to the host, bypassing the tap.

        This is the tap's re-entry point (and does all the receive
        accounting), so delayed/duplicated/replayed packets cannot
        recurse into the tap that produced them.
        """
        kind = getattr(packet.payload, "kind", "raw")
        sim = self.sim
        trace = sim.trace
        if trace.active:
            trace.emit("net.host_recv", self._name, src=str(packet.src),
                       payload_kind=kind, cost_bit=packet.cost_bit,
                       packet=packet.packet_id)
        table = self._recv_exp if packet.cost_bit else self._recv
        counters = table.get(kind)
        if counters is None:
            names = ["net.h2h.recv", f"net.h2h.recv.kind.{kind}"]
            if packet.cost_bit:
                names += ["net.h2h.recv.expensive", f"net.h2h.recv.expensive.kind.{kind}"]
            counters = table[kind] = self._register(*names)
            if self._h_delay is None:
                self._h_delay = sim.metrics.histogram("net.h2h.delay")
        for counter in counters:
            counter.value += 1.0
        self._h_delay.observe(sim.now - packet.sent_at)  # type: ignore[union-attr]
        if self._on_receive is not None:
            self._on_receive(packet)

    def _register(self, *names: str) -> Tuple[Counter, ...]:
        """Register (first use) the named counters."""
        metrics = self.sim.metrics
        return tuple(metrics.counter(name) for name in names)
