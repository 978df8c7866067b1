"""Point-to-point bidirectional links.

Links implement the paper's failure model exactly (Section 2):

* links can fail and recover at any time, *undetected* by the
  application — a packet sent over a down link simply vanishes;
* packets can be lost at any point even when the link is perceived to
  be operational (``loss_prob``);
* packets can be spontaneously duplicated (``dup_prob``);
* packets can arrive out of order (``reorder_jitter`` adds a random
  extra delay drawn per packet);
* delays are otherwise latency + transmission time, with per-direction
  serialization (a transmitter sends one packet at a time), which is
  what produces the source-server congestion the paper discusses in
  Section 5.

Links come in two **bandwidth classes** — *cheap* (high bandwidth, e.g.
a LAN) and *expensive* (low bandwidth, e.g. a long-haul trunk).  A
server forwarding a packet over an expensive link sets the packet's
cost bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..sim import Counter, Simulator
from ..sim.event import Entry
from .addressing import LinkId
from .message import DEFAULT_SIZE_BITS, Packet

DeliverFn = Callable[[Packet], None]


class BandwidthClass(Enum):
    """The paper's two-way division of links by bandwidth."""

    CHEAP = "cheap"
    EXPENSIVE = "expensive"


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters.

    Defaults model a LAN-class link; :func:`expensive_spec` models an
    ARPANET-era long-haul trunk.
    """

    latency: float = 0.002
    bandwidth_bps: float = 10_000_000.0
    klass: BandwidthClass = BandwidthClass.CHEAP
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_jitter: float = 0.0
    #: drop-tail limit on packets queued per direction (switch buffer)
    queue_limit: int = 128

    def __post_init__(self) -> None:
        # Out-of-range probabilities do not fail loudly on their own —
        # loss_prob=1.2 silently drops everything, dup_prob=-1 silently
        # never duplicates — so reject them at construction.
        for name in ("loss_prob", "dup_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value}")
        if self.reorder_jitter < 0.0:
            raise ValueError(
                f"reorder_jitter must be non-negative, got {self.reorder_jitter}")
        if self.latency < 0.0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")
        if self.bandwidth_bps <= 0.0:
            raise ValueError(
                f"bandwidth_bps must be positive, got {self.bandwidth_bps}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be at least 1, got {self.queue_limit}")

    @property
    def expensive(self) -> bool:
        """True for low-bandwidth (long-haul) links."""
        return self.klass is BandwidthClass.EXPENSIVE


def cheap_spec(**overrides: object) -> LinkSpec:
    """A cheap (high-bandwidth, low-latency) link spec."""
    return LinkSpec(**{"latency": 0.002, "bandwidth_bps": 10_000_000.0,
                       "klass": BandwidthClass.CHEAP, **overrides})  # type: ignore[arg-type]


def expensive_spec(**overrides: object) -> LinkSpec:
    """An expensive (low-bandwidth, high-latency) link spec."""
    return LinkSpec(**{"latency": 0.050, "bandwidth_bps": 56_000.0,
                       "klass": BandwidthClass.EXPENSIVE, **overrides})  # type: ignore[arg-type]


class _Direction:
    """One direction of a link: its transmitter.

    The link's constants are bound here once, when the link is built, so
    a hop reads plain slots.  :meth:`send` is the one transmit body;
    servers memoize it as their forward step, host ports bind it at
    construction, and :meth:`Link.transmit` delegates to it.
    """

    __slots__ = ("sim", "link_id", "name", "from_node", "up", "latency",
                 "bandwidth_bps", "queue_limit", "loss_prob", "dup_prob",
                 "reorder_jitter", "expensive", "rng", "tx_counters",
                 "overflow_counters", "post", "_arrive", "busy_until",
                 "outstanding", "peak", "overflows", "pending")

    def __init__(self, link: "Link", from_node: str, rng: Random,
                 tx_counters: Dict[str, Tuple[Counter, ...]]) -> None:
        sim = self.sim = link.sim
        self.link_id = link.link_id
        #: the link id as trace records name it
        self.name = str(link.link_id)
        self.from_node = from_node
        #: kept equal to ``link.up`` by :meth:`Link.set_down`/:meth:`Link.set_up`
        self.up = link.up
        spec = link.spec
        self.latency = spec.latency
        self.bandwidth_bps = spec.bandwidth_bps
        self.queue_limit = spec.queue_limit
        self.loss_prob = spec.loss_prob
        self.dup_prob = spec.dup_prob
        self.reorder_jitter = spec.reorder_jitter
        self.expensive = spec.klass is BandwidthClass.EXPENSIVE
        #: the link's one RNG stream, shared by both directions
        self.rng = rng
        # kind -> every counter one transmission of that kind bumps,
        # shared by both directions and built on the kind's first
        # transmission so an idle link registers nothing; see DESIGN.md
        # §8 "One hop".
        self.tx_counters = tx_counters
        # (net.drop.overflow, net.drop.overflow.link.<id>), on first overflow
        self.overflow_counters: Optional[Tuple[Counter, Counter]] = None
        # Arrivals are pushed with Simulator.post, the one kernel push;
        # their callback is bound once, not per packet.
        self.post = sim.post
        self._arrive = self.arrive
        self.busy_until = 0.0
        self.outstanding = 0
        #: high-water mark of ``outstanding`` over the link's lifetime
        self.peak = 0
        #: packets dropped by this direction's drop-tail queue
        self.overflows = 0
        #: in-flight packet -> its arrival's heap entry, in schedule order
        #: (the order ``set_down`` loses them in); a packet object is in
        #: flight at most once per direction, so the packet is the key
        self.pending: Dict[Packet, Entry] = {}

    def send(self, packet: Packet, deliver: DeliverFn) -> None:
        """Send ``packet`` this way; the far end gets ``deliver(packet)``.

        Silently drops the packet when the link is down, the loss draw
        fires or the drop-tail queue is full — the sender is *not* told,
        per the paper's assumptions.  The packet's hop record and cost
        bit are updated here.
        """
        sim = self.sim
        if not self.up:
            if sim.trace.active:
                sim.trace.emit("link.drop_down", self.name, packet=packet.packet_id)
            sim.metrics.counter("net.drop.down").inc()
            return
        loss_prob = self.loss_prob
        if loss_prob > 0 and self.rng.random() < loss_prob:
            if sim.trace.active:
                sim.trace.emit("link.drop_loss", self.name,
                               packet=packet.packet_id, payload_kind=packet.kind)
            sim.metrics.counter("net.drop.loss").inc()
            return
        outstanding = self.outstanding
        if outstanding >= self.queue_limit:
            # Drop-tail: the switch buffer for this direction is full.
            # Overflow is attributed per link *and* per direction so
            # saturation experiments can point at the guilty trunk.
            self.overflows += 1
            if sim.trace.active:
                sim.trace.emit("link.drop_overflow", self.name,
                               packet=packet.packet_id, payload_kind=packet.kind,
                               from_node=self.from_node)
            overflow = self.overflow_counters
            if overflow is None:
                metrics = sim.metrics
                overflow = self.overflow_counters = (
                    metrics.counter("net.drop.overflow"),
                    metrics.counter(f"net.drop.overflow.link.{self.link_id}"))
            for counter in overflow:
                counter.value += 1.0
            return

        packet.hops.append(self.link_id)
        packet.ttl -= 1
        if self.expensive:
            packet.cost_bit = True
        payload = packet.payload
        kind = getattr(payload, "kind", "raw")
        counters = self.tx_counters.get(kind)
        if counters is None:
            counters = self._kind_counters(kind)
        for counter in counters:
            counter.value += 1.0

        now = sim.now
        tx_time = getattr(payload, "size_bits", DEFAULT_SIZE_BITS) / self.bandwidth_bps
        busy_until = self.busy_until
        busy_until = self.busy_until = (busy_until if busy_until > now else now) + tx_time
        delay = busy_until - now + self.latency
        if self.reorder_jitter > 0:
            delay += self.rng.uniform(0.0, self.reorder_jitter)
        outstanding = self.outstanding = outstanding + 1
        if outstanding > self.peak:
            self.peak = outstanding
        self.pending[packet] = self.post(now + delay, self._arrive, (packet, deliver))

        if self.dup_prob > 0 and self.rng.random() < self.dup_prob:
            dup = packet.fork()
            if sim.trace.active:
                sim.trace.emit("link.dup", self.name, packet=packet.packet_id)
            sim.metrics.counter("net.dup").inc()
            outstanding = self.outstanding = outstanding + 1
            if outstanding > self.peak:
                self.peak = outstanding
            self.pending[dup] = self.post(now + (delay + tx_time), self._arrive,
                                          (dup, deliver))

    def arrive(self, packet: Packet, deliver: DeliverFn) -> None:
        """The arrival event: the packet leaves the queue and reaches the far end."""
        self.outstanding -= 1
        del self.pending[packet]
        deliver(packet)

    def _kind_counters(self, kind: str) -> Tuple[Counter, ...]:
        """Register (first use) the counters a transmission of ``kind`` bumps."""
        metrics = self.sim.metrics
        names = ["net.link_tx.total", f"linktx.{self.link_id}", f"net.link_tx.kind.{kind}"]
        if self.expensive:
            names += ["net.link_tx.expensive", f"net.link_tx.expensive.kind.{kind}"]
        counters = self.tx_counters[kind] = tuple(metrics.counter(name) for name in names)
        return counters


class Link:
    """One bidirectional link between two nodes (servers or host access).

    The link does not know about routing.  Each direction is a
    transmitter (:meth:`direction`): callers (servers, host ports) bind
    its ``send(packet, deliver)`` once and hand it a packet and a
    delivery function for the far end.  :meth:`transmit` is the same
    send, named by the sending endpoint.
    """

    def __init__(self, sim: Simulator, link_id: LinkId, spec: LinkSpec) -> None:
        self.sim = sim
        self.link_id = link_id
        self.spec = spec
        self.up = True
        rng = sim.rng.stream(f"link.{link_id}")
        tx_counters: Dict[str, Tuple[Counter, ...]] = {}
        self._directions: Dict[str, _Direction] = {
            link_id.a: _Direction(self, link_id.a, rng, tx_counters),
            link_id.b: _Direction(self, link_id.b, rng, tx_counters)}

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def set_down(self) -> None:
        """Fail the link; in-flight packets are lost, silently.

        Each lost packet counts in ``net.drop.down``, as a send onto the
        down link does.
        """
        if not self.up:
            return
        self.up = False
        sim = self.sim
        trace = sim.trace
        name = str(self.link_id)
        for direction in self._directions.values():
            direction.up = False
            for packet, event in direction.pending.items():
                sim.cancel(event)
                if trace.active:
                    trace.emit("link.drop_down", name, packet=packet.packet_id)
                sim.metrics.counter("net.drop.down").inc()
            direction.pending.clear()
            direction.outstanding = 0
            direction.busy_until = 0.0
        if trace.active:
            trace.emit("link.down", name)

    def set_up(self) -> None:
        """Repair the link."""
        if self.up:
            return
        self.up = True
        for direction in self._directions.values():
            direction.up = True
        trace = self.sim.trace
        if trace.active:
            trace.emit("link.up", str(self.link_id))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def other_end(self, from_node: str) -> str:
        """The opposite endpoint of ``from_node``."""
        if from_node == self.link_id.a:
            return self.link_id.b
        if from_node == self.link_id.b:
            return self.link_id.a
        raise ValueError(f"{from_node} is not an endpoint of {self.link_id}")

    def direction(self, from_node: str) -> _Direction:
        """The transmitter that sends from ``from_node`` to the other end."""
        direction = self._directions.get(from_node)
        if direction is None:
            raise ValueError(f"{from_node} is not an endpoint of {self.link_id}")
        return direction

    def queue_length(self, from_node: str) -> int:
        """Packets queued or in flight in the given direction."""
        return self._directions[from_node].outstanding

    def queue_peak(self, from_node: str) -> int:
        """High-water mark of the directional queue over the run."""
        return self._directions[from_node].peak

    def overflow_count(self, from_node: str) -> int:
        """Drop-tail overflows in the given direction over the run."""
        return self._directions[from_node].overflows

    def transmit(self, packet: Packet, from_node: str, deliver: DeliverFn) -> None:
        """Send ``packet`` from ``from_node``; the far end gets ``deliver(packet)``.

        The endpoint-checked entry to :meth:`_Direction.send`; raises
        ValueError when ``from_node`` is not an endpoint of this link.
        """
        self.direction(from_node).send(packet, deliver)


def endpoints(link: Link) -> Tuple[str, str]:
    """The two endpoint node names of a link."""
    return (link.link_id.a, link.link_id.b)


def link_pressure(links: Iterable[Link]) -> List[Dict[str, object]]:
    """Per-direction pressure summary over a set of links.

    One row per link direction that saw any traffic or drops: peak
    queue depth (high-water mark of the drop-tail buffer), overflow
    count, and the configured limit: the compact form experiment
    summaries embed.  Rows are sorted by overflow count then
    peak, worst first, so the guilty trunk tops the table.
    """
    rows: List[Dict[str, object]] = []
    for link in links:
        for node in endpoints(link):
            peak = link.queue_peak(node)
            overflows = link.overflow_count(node)
            if peak == 0 and overflows == 0:
                continue
            rows.append({
                "link": str(link.link_id), "from_node": node,
                "queue_peak": peak, "overflows": overflows,
                "queue_limit": link.spec.queue_limit,
            })
    rows.sort(key=lambda r: (-int(r["overflows"]), -int(r["queue_peak"]),  # type: ignore[call-overload]
                             str(r["link"]), str(r["from_node"])))
    return rows
