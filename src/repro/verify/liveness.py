"""Relative reliability: did the protocol use its opportunities?

The paper (Section 1) defines reliability *relatively*: "the degree to
which [a protocol] is capable of utilizing communication opportunities
presented by the dynamically changing network."  No protocol can
deliver to a host that was never reachable; a good one delivers to
every host that was reachable-from-a-holder long enough.

:class:`OpportunityAuditor` operationalizes that.  While a simulation
runs, it samples the network every ``sample_period`` and accumulates,
for every (host, seq) pair, the total time during which the host was
connected (over up links, any class) to *some* host already holding
that message.  At the end:

* a pair is **obligated** if its accumulated opportunity reached
  ``required_window`` (the "sufficiently long interval" of the paper's
  transitivity assumption — long enough for routing to converge and an
  exchange round to happen);
* **relative reliability** = delivered obligated pairs / obligated
  pairs.

A protocol can score 1.0 even when absolute delivery is far below 1.0
— e.g. when the network stays partitioned — which is exactly the
paper's point.

The auditor is an oracle: it reads ground-truth reachability and every
host's INFO set, and the protocol never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.engine import BroadcastSystem
from ..net import HostId
from ..sim import PeriodicTask


@dataclass(frozen=True)
class ReliabilityReport:
    """Outcome of an opportunity audit."""

    total_pairs: int
    obligated_pairs: int
    delivered_obligated: int
    delivered_total: int
    #: obligated pairs that were NOT delivered: the protocol's misses
    missed: Tuple[Tuple[str, int], ...]

    @property
    def relative_reliability(self) -> float:
        """Delivered obligated pairs / obligated pairs."""
        if self.obligated_pairs == 0:
            return float("nan")
        return self.delivered_obligated / self.obligated_pairs

    @property
    def absolute_delivery(self) -> float:
        """Delivered pairs / all pairs."""
        if self.total_pairs == 0:
            return float("nan")
        return self.delivered_total / self.total_pairs


class OpportunityAuditor:
    """Samples connectivity-to-holders while a simulation runs."""

    def __init__(
        self,
        system: BroadcastSystem,
        sample_period: float = 1.0,
        required_window: float = 10.0,
    ) -> None:
        if sample_period <= 0 or required_window <= 0:
            raise ValueError("sample_period and required_window must be positive")
        self.system = system
        self.sample_period = sample_period
        self.required_window = required_window
        #: accumulated opportunity seconds per (host, seq)
        self._opportunity: Dict[Tuple[HostId, int], float] = {}
        self._task = PeriodicTask(
            system.sim, sample_period, self._sample,
            rng_stream="verify.opportunity", name="opportunity_audit")

    def start(self) -> "OpportunityAuditor":
        """Start periodic activity; returns self for chaining."""
        self._task.start()
        return self

    def stop(self) -> None:
        """Stop periodic activity; safe to call more than once."""
        self._task.stop()

    # ------------------------------------------------------------------

    def _sample(self) -> None:
        system = self.system
        issued = system.source.info.max_seqno
        if issued == 0:
            return
        # Partition components over up links (one ground-truth query).
        components = system.network.partitions()
        component_of: Dict[HostId, int] = {}
        for idx, component in enumerate(components):
            for host_id in component:
                component_of[host_id] = idx
        # Which components contain a holder of each pending seq?
        holder_components: Dict[int, Set[int]] = {}
        for host_id, host in system.hosts.items():
            info = host.info
            comp = component_of[host_id]
            for seq in range(1, issued + 1):
                if seq in info:
                    holder_components.setdefault(seq, set()).add(comp)
        for host_id, host in system.hosts.items():
            comp = component_of[host_id]
            for seq in range(1, issued + 1):
                if seq in host.info:
                    continue  # already delivered; no obligation accrues
                if comp in holder_components.get(seq, ()):
                    key = (host_id, seq)
                    self._opportunity[key] = (
                        self._opportunity.get(key, 0.0) + self.sample_period)

    # ------------------------------------------------------------------

    def report(self) -> ReliabilityReport:
        """Score the run so far."""
        system = self.system
        issued = system.source.info.max_seqno
        hosts = [h for h in system.hosts if h != system.source_id]
        total = len(hosts) * issued
        delivered_total = 0
        obligated = 0
        delivered_obligated = 0
        missed: List[Tuple[str, int]] = []
        for host_id in hosts:
            info = system.hosts[host_id].info
            for seq in range(1, issued + 1):
                has = seq in info
                delivered_total += has
                # Delivered pairs were obviously deliverable; undelivered
                # ones are obligated only if opportunity accumulated.
                if has:
                    obligated += 1
                    delivered_obligated += 1
                elif (self._opportunity.get((host_id, seq), 0.0)
                        >= self.required_window):
                    obligated += 1
                    missed.append((str(host_id), seq))
        return ReliabilityReport(
            total_pairs=total, obligated_pairs=obligated,
            delivered_obligated=delivered_obligated,
            delivered_total=delivered_total, missed=tuple(sorted(missed)))
