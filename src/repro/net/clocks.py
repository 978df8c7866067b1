"""Host clock models: offset and drift relative to simulated true time.

The paper's host-level cost-bit mechanism ("timestamp each message at
the time it is sent out", Section 2) implicitly assumes comparable
clocks.  Real hosts disagree: a constant offset shifts every transit
estimate for messages from that host, and drift makes the shift grow.

:class:`ClockModel` assigns each host an offset and a drift rate; the
host interface stamps outgoing messages with the *local* clock when a
model is installed, so transit estimates at receivers become

    (true_arrival + offset_recv) - (true_send + offset_send)
    = true_transit + (offset_recv - offset_send)

— exactly the error a deployed system would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim import Simulator
from .addressing import HostId


@dataclass(frozen=True)
class ClockSpec:
    """One host's clock error: ``local = true + offset + drift * true``."""

    offset: float = 0.0
    drift: float = 0.0  # seconds of error per second of true time


class ClockModel:
    """Per-host local clocks over the simulator's true time."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._specs: Dict[HostId, ClockSpec] = {}

    def set_clock(self, host: HostId, offset: float = 0.0,
                  drift: float = 0.0) -> "ClockModel":
        """Assign one host's clock offset and drift."""
        self._specs[host] = ClockSpec(offset=offset, drift=drift)
        return self

    def randomize(self, hosts, max_offset: float = 0.5,
                  max_drift: float = 0.0,
                  rng_stream: str = "clocks") -> "ClockModel":
        """Uniform random offsets (and optional drifts) for many hosts."""
        rng = self.sim.rng.stream(rng_stream)
        for host in hosts:
            self.set_clock(host,
                           offset=rng.uniform(-max_offset, max_offset),
                           drift=rng.uniform(-max_drift, max_drift)
                           if max_drift else 0.0)
        return self

    def local_time(self, host: HostId) -> float:
        """What ``host``'s wall clock reads right now."""
        spec = self._specs.get(host)
        true_now = self.sim.now
        if spec is None:
            return true_now
        return true_now + spec.offset + spec.drift * true_now

    def offset_between(self, a: HostId, b: HostId) -> float:
        """Current clock disagreement ``local(a) - local(b)``."""
        return self.local_time(a) - self.local_time(b)
