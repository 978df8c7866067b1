"""System assembly: one protocol instance per host over a topology.

:class:`BroadcastSystem` builds a :class:`~repro.core.source.SourceHost`
plus :class:`~repro.core.host.BroadcastHost` agents for every host of a
:class:`~repro.net.generator.BuiltTopology`, assigns the static linear
order (the source gets the highest order, which makes the pre-broadcast
trees inside each cluster gravitate toward it).  That assembly is
:func:`build_tree_hosts`, which the UDP deployment
(:mod:`repro.io.node`) shares; lifecycle, workload and convergence
helpers come from :class:`~repro.io.simbackend.SimDeployment`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from ..io.interfaces import Runtime, Transport
from ..io.simbackend import SimDeployment
from ..net import BuiltTopology, HostId
from .config import ClusterMode, ProtocolConfig
from .delivery import DeliverCallback
from .host import BroadcastHost
from .piggyback import PiggybackPort
from .source import SourceHost


def build_tree_hosts(
    runtime: Runtime,
    host_ids: List[HostId],
    source_id: HostId,
    port_of: Callable[[HostId], Transport],
    config: ProtocolConfig,
    clusters: Iterable[Iterable[HostId]] = (),
    deliver_callback: Optional[DeliverCallback] = None,
) -> Dict[HostId, BroadcastHost]:
    """One tree-protocol machine per host, on any backend.

    Assigns the static linear order (the source is highest by
    convention), makes ``source_id`` a :class:`SourceHost`, and hands
    each member of ``clusters`` its a-priori cluster (pass none unless
    the config's cluster mode is STATIC).
    """
    ordered = sorted(h for h in host_ids if h != source_id)
    order = {host_id: idx for idx, host_id in enumerate(ordered)}
    order[source_id] = len(ordered)
    static_clusters: Dict[HostId, Set[HostId]] = {}
    for cluster in clusters:
        members = set(cluster)
        for host_id in members:
            static_clusters[host_id] = members
    hosts: Dict[HostId, BroadcastHost] = {}
    for host_id in host_ids:
        cls = SourceHost if host_id == source_id else BroadcastHost
        hosts[host_id] = cls(
            runtime,
            port=port_of(host_id),
            participants=host_ids,
            order=order.__getitem__,
            config=config,
            static_cluster=static_clusters.get(host_id),
            deliver_callback=deliver_callback,
        )
    return hosts


class BroadcastSystem(SimDeployment):
    """A complete single-source reliable-broadcast deployment."""

    def __init__(
        self,
        built: BuiltTopology,
        config: Optional[ProtocolConfig] = None,
        source: Optional[HostId] = None,
        deliver_callback: Optional[DeliverCallback] = None,
        port_of: Optional[Callable[[HostId], Transport]] = None,
    ) -> None:
        """Args:
            built: the topology to deploy over.
            config: protocol tuning (defaults to ProtocolConfig()).
            source: broadcast source (defaults to the topology's first host).
            deliver_callback: invoked on every delivery at every host.
            port_of: maps a host id to the port its agent should use —
                defaults to the network's real ports; multi-source
                systems pass virtual ports here (see
                :mod:`repro.core.multisource`).
        """
        super().__init__(built, source)
        self.config = config or ProtocolConfig()
        if port_of is None:
            port_of = self.network.host_port
        if self.config.enable_piggybacking:
            inner_port_of = port_of

            def piggybacked(h: HostId) -> Transport:
                return PiggybackPort(inner_port_of(h))

            port_of = piggybacked
        self.hosts = build_tree_hosts(
            self.runtime, built.hosts, self.source_id, port_of, self.config,
            clusters=(self.network.true_clusters()
                      if self.config.cluster_mode is ClusterMode.STATIC else ()),
            deliver_callback=deliver_callback)

    # ------------------------------------------------------------------
    # Structure inspection (used by verify/, tests, and benchmarks)
    # ------------------------------------------------------------------

    def parent_edges(self) -> Dict[HostId, Optional[HostId]]:
        """Current host parent graph as child -> parent."""
        return {host_id: host.parent for host_id, host in self.hosts.items()}

    def children_view(self) -> Dict[HostId, Set[HostId]]:
        """Current CHILDREN sets, keyed by host id."""
        return {host_id: set(host.children) for host_id, host in self.hosts.items()}

    def leaders(self) -> List[HostId]:
        """Hosts currently acting as cluster leaders (Section 4.1 reading)."""
        return sorted(h for h, host in self.hosts.items() if host.is_cluster_leader)

    def delivered_counts(self) -> Dict[HostId, int]:
        """Number of delivered messages per host."""
        return {host_id: len(host.deliveries) for host_id, host in self.hosts.items()}
