"""Background cross-traffic: load on links from *other* applications.

The paper's attachment procedure adapts "not only to component failures
but also to the changing loads in different parts of the network"
(Section 4.4) — a cluster re-parents toward whoever receives new
messages promptly, and promptness depends on queueing.  To exercise
that claim the simulator needs links that are busy with somebody else's
packets.

:class:`CrossTrafficGenerator` injects filler packets directly into a
link's transmitter at a configurable rate.  The filler occupies the
transmitter exactly like real traffic (same serialization, same queue
limits), but is addressed to nobody: it is consumed at the far end.  It
is counted separately (``xtraffic.*`` counters) so protocol accounting
stays clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sim import PeriodicTask, Simulator
from .addressing import HostId
from .link import Link
from .message import Packet, RawPayload


@dataclass(frozen=True)
class CrossTrafficSpec:
    """Load description for one direction of one link."""

    #: packets per second injected
    rate: float
    #: size of each filler packet in bits
    size_bits: int = 8_000

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.size_bits < 1:
            raise ValueError("size_bits must be positive")

    def utilization(self, bandwidth_bps: float) -> float:
        """Fraction of the link this load occupies."""
        return self.rate * self.size_bits / bandwidth_bps


class CrossTrafficGenerator:
    """Keeps a set of link directions loaded with filler packets."""

    def __init__(self, sim: Simulator, name: str = "xtraffic") -> None:
        self.sim = sim
        self.name = name
        self._tasks: List[PeriodicTask] = []
        self._flows: List[Tuple[Link, str, CrossTrafficSpec]] = []

    def load(self, link: Link, from_node: str, spec: CrossTrafficSpec,
             ) -> "CrossTrafficGenerator":
        """Add a flow over ``link`` in the ``from_node`` direction."""
        link.other_end(from_node)  # validates the endpoint
        self._flows.append((link, from_node, spec))
        task = PeriodicTask(
            self.sim, 1.0 / spec.rate,
            lambda lk=link, f=from_node, s=spec: self._inject(lk, f, s),
            jitter=0.2 / spec.rate,
            rng_stream=f"{self.name}.{link.link_id}.{from_node}",
            name=f"{self.name}")
        self._tasks.append(task)
        return self

    def load_both_ways(self, link: Link, spec: CrossTrafficSpec,
                       ) -> "CrossTrafficGenerator":
        """Add flows in both directions of ``link``."""
        self.load(link, link.link_id.a, spec)
        self.load(link, link.link_id.b, spec)
        return self

    def start(self) -> "CrossTrafficGenerator":
        """Start periodic activity; returns self for chaining."""
        for task in self._tasks:
            task.start()
        return self

    def stop(self) -> None:
        """Stop periodic activity; safe to call more than once."""
        for task in self._tasks:
            task.stop()

    def _inject(self, link: Link, from_node: str, spec: CrossTrafficSpec) -> None:
        filler = Packet(
            src=HostId(f"{self.name}.src"), dst=HostId(f"{self.name}.sink"),
            payload=RawPayload(kind="xtraffic", size_bits=spec.size_bits),
            sent_at=self.sim.now)
        self.sim.metrics.counter("xtraffic.injected").inc()
        link.transmit(filler, from_node, self._sink)

    def _sink(self, packet: Packet) -> None:
        self.sim.metrics.counter("xtraffic.absorbed").inc()
