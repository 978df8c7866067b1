"""Traffic decomposition and congestion analysis (Section 5).

Two of the paper's qualitative claims need per-link numbers:

* the basic algorithm "can cause congestion of the source host's
  server" because every copy leaves through one access link, while the
  tree protocol spreads the load (experiment E5);
* the tree protocol's control traffic is "totally independent of the
  number of data messages" and tunable (experiment E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..net import HostId, Network
from ..sim import Simulator


@dataclass(frozen=True)
class TrafficReport:
    """Totals of host-to-host traffic by payload class."""

    data_sent: float
    control_sent: float
    data_recv: float
    control_recv: float

    @property
    def control_fraction_sent(self) -> float:
        """Control share of all host-to-host sends."""
        total = self.data_sent + self.control_sent
        return self.control_sent / total if total else 0.0


def traffic_report(sim: Simulator) -> TrafficReport:
    """Host-to-host traffic totals by payload class."""
    m = sim.metrics
    return TrafficReport(
        data_sent=m.counter("net.h2h.sent.kind.data").value,
        control_sent=m.counter("net.h2h.sent.kind.control").value,
        data_recv=m.counter("net.h2h.recv.kind.data").value,
        control_recv=m.counter("net.h2h.recv.kind.control").value,
    )


def link_transmissions(sim: Simulator) -> Dict[str, float]:
    """Per-link transmission counts, keyed by the link's string id."""
    out = {}
    for name, value in sim.metrics.counters("linktx.").items():
        out[name[len("linktx."):]] = value
    return out


@dataclass(frozen=True)
class CongestionReport:
    """How concentrated the load is on the source's access link."""

    source_access_tx: float
    max_other_access_tx: float
    mean_access_tx: float
    source_peak_queue: float

    @property
    def concentration(self) -> float:
        """Source access-link load relative to the busiest other access link."""
        if self.max_other_access_tx == 0:
            return float("inf") if self.source_access_tx > 0 else 1.0
        return self.source_access_tx / self.max_other_access_tx


def congestion_report(sim: Simulator, network: Network,
                      source: HostId) -> CongestionReport:
    """Compare the source's access-link load against everyone else's."""
    per_link = link_transmissions(sim)
    access_loads: Dict[HostId, float] = {}
    for host_id in network.hosts():
        link = network.access_link(host_id)
        access_loads[host_id] = per_link.get(str(link.link_id), 0.0)
    source_tx = access_loads.get(source, 0.0)
    others = [v for h, v in access_loads.items() if h != source]
    source_link = network.access_link(source)
    peak = max(0.0, *(source_link.queue_peak(node)
                      for node in (source_link.link_id.a, source_link.link_id.b)))
    return CongestionReport(
        source_access_tx=source_tx,
        max_other_access_tx=max(others) if others else 0.0,
        mean_access_tx=(sum(others) / len(others)) if others else 0.0,
        source_peak_queue=peak,
    )
