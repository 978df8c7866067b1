"""Nonprogrammable communication servers.

A server is a pure store-and-forward switch: it accepts an individually
addressed packet, looks up the destination host's server, and forwards
the packet one hop along the path chosen by the routing engine.  It
**cannot** be programmed by the broadcast application — it never
duplicates a packet toward multiple destinations, never inspects
payloads, and offers hosts exactly one service: "deliver this message
to that single destination" (paper, Section 2).

The only concession the network makes to the application is the *cost
bit*, stamped by :class:`repro.net.link.Link` when a packet traverses
an expensive link; the paper explicitly proposes this mechanism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..sim import Simulator
from .addressing import HostId
from .link import DeliverFn, Link
from .message import Packet
from .routing import RoutingEngine

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network

#: cache-miss sentinel (``None`` is a valid memoized answer: "no route")
_MISS = object()

#: a memoized forward step: (the next link direction's ``send``, the far
#: end's receive function, the processing delay before the send: the
#: server's ``PROCESSING_DELAY`` onto a trunk, none onto an access link)
_Step = Tuple[Callable[[Packet, DeliverFn], None], DeliverFn, float]


class Server:
    """One communication server (switch) in the subnetwork."""

    #: per-packet forwarding (IMP processing) delay in seconds
    PROCESSING_DELAY = 0.0005

    def __init__(self, sim: Simulator, name: str, network: "Network") -> None:
        self.sim = sim
        self.name = name
        self.network = network
        #: a failed server silently discards everything (paper §2: hosts
        #: are reliable, servers can fail)
        self.up = True
        #: hosts directly attached to this server, with their access links
        self.attached: Dict[HostId, Link] = {}
        #: links to neighboring servers, keyed by neighbor name
        self.trunks: Dict[str, Link] = {}
        # Memoized next-hop answers and forward steps, both dropped
        # whenever the routing engine's generation stamp moves (or the
        # engine is swapped).
        self._route_cache: Dict[str, object] = {}
        self._forward: Dict[HostId, _Step] = {}
        self._route_engine: Optional[RoutingEngine] = None
        self._route_gen = -1
        # the processing-delay step is pushed with Simulator.post
        self._post = sim.post

    # -- wiring (done by Network during construction) ---------------------

    def attach_host(self, host_id: HostId, access_link: Link) -> None:
        """Attach a host's access link to this server."""
        if host_id in self.attached:
            raise ValueError(f"host {host_id} already attached to {self.name}")
        self.attached[host_id] = access_link

    def add_trunk(self, neighbor: str, link: Link) -> None:
        """Register a trunk link to a neighbor server."""
        if neighbor in self.trunks:
            raise ValueError(f"trunk {self.name}<->{neighbor} already exists")
        self.trunks[neighbor] = link

    # -- forwarding --------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle a packet arriving at this server (from a host or a trunk).

        Forwarding over a trunk pays a small processing delay (the IMP's
        per-packet work); delivery to a local host does not.  Each hop
        decrements the packet's hop limit — packets caught in a
        transient routing loop (stale tables during convergence) are
        discarded instead of circulating forever.
        """
        if not self.up:
            self._drop(packet, "server_down")
            return
        if packet.ttl <= 0:
            self._drop(packet, "ttl_expired")
            return
        routing = self.network.routing
        if routing is self._route_engine and routing.generation == self._route_gen:
            step = self._forward.get(packet.dst)
        else:
            step = None
        if step is None:
            step = self._forward_step(packet)
            if step is None:
                return
        send, deliver, delay = step
        if delay > 0:
            self._post(self.sim.now + delay, send, (packet, deliver))
        else:
            send(packet, deliver)

    def _forward_step(self, packet: Packet) -> Optional[_Step]:
        """Work out (and memoize) how to forward toward ``packet.dst``.

        Drops the packet and returns None when there is no way.
        """
        self._sync_routing()
        dst = packet.dst
        dst_server = self.network.server_of(dst)
        if dst_server is None:
            self._drop(packet, "unknown_host")
            return None
        if dst_server == self.name:
            access = self.attached.get(dst)
            if access is None:
                self._drop(packet, "host_not_here")
                return None
            port = self.network.host_port(dst)
            step: _Step = (access.direction(self.name).send, port.deliver_from_network,
                           0.0)
        else:
            next_hop = self._next_hop(dst_server)
            if next_hop is None:
                self._drop(packet, "no_route")
                return None
            trunk = self.trunks.get(next_hop)
            if trunk is None:
                self._drop(packet, "no_trunk")
                return None
            step = (trunk.direction(self.name).send, self.network.servers[next_hop].receive,
                    self.PROCESSING_DELAY)
        self._forward[dst] = step
        return step

    def _sync_routing(self) -> None:
        """Drop the memos if the routing tables changed since they were made."""
        routing = self.network.routing
        if routing is not self._route_engine or routing.generation != self._route_gen:
            self._route_cache.clear()
            self._forward.clear()
            self._route_engine = routing
            self._route_gen = routing.generation

    def _next_hop(self, dst_server: str) -> Optional[str]:
        """Memoized ``routing.next_hop`` lookup (generation-stamped)."""
        self._sync_routing()
        hop = self._route_cache.get(dst_server, _MISS)
        if hop is _MISS:
            hop = self.network.routing.next_hop(self.name, dst_server)
            self._route_cache[dst_server] = hop
        return hop  # type: ignore[return-value]

    def _drop(self, packet: Packet, reason: str) -> None:
        """Silently drop; the application is never notified (per paper)."""
        trace = self.sim.trace
        if trace.active:
            trace.emit("server.drop", self.name, reason=reason,
                       packet=packet.packet_id, dst=str(packet.dst))
        self.sim.metrics.counter(f"net.drop.{reason}").inc()
