"""Topology generators.

The workhorse is :func:`wan_of_lans`, modelling the environment the
paper motivates (Section 2): local clusters of hosts joined by cheap
links, interconnected by an expensive long-haul backbone.  Also
provided: lines, stars, and seeded random topologies for robustness
tests.

Generators return a :class:`BuiltTopology` carrying the network, the
host list, and the ground-truth cluster layout (for oracles — the
protocol never reads it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..sim import Simulator
from .addressing import HostId
from .link import LinkSpec, cheap_spec, expensive_spec
from .topology import Network


@dataclass
class BuiltTopology:
    """A constructed network plus ground-truth metadata."""

    network: Network
    hosts: List[HostId]
    #: ground-truth clusters as laid out by the generator
    clusters: List[List[HostId]] = field(default_factory=list)
    #: expensive backbone links as (a, b) server-name pairs
    backbone: List[tuple] = field(default_factory=list)

    @property
    def source(self) -> HostId:
        """By convention the first host is the broadcast source."""
        return self.hosts[0]


def _ring(names: Sequence[str]) -> List[Tuple[str, str]]:
    """The links of a cycle through ``names``, in order.

    Two nodes make one link: closing their ring would add the same link
    a second time.
    """
    pairs = list(zip(names, names[1:]))
    if len(names) > 2:
        pairs.append((names[-1], names[0]))
    return pairs


def wan_of_lans(
    sim: Simulator,
    clusters: int,
    hosts_per_cluster: int,
    backbone: str = "tree",
    cheap: Optional[LinkSpec] = None,
    expensive: Optional[LinkSpec] = None,
    convergence_delay: float = 0.5,
    rng_stream: str = "topology.wan_of_lans",
) -> BuiltTopology:
    """k LAN clusters joined by an expensive backbone.

    Each cluster is one server with ``hosts_per_cluster`` hosts on cheap
    access links.  Cluster servers are joined by expensive trunks in the
    chosen ``backbone`` shape:

    * ``"tree"`` — random spanning tree (default; deterministic per seed)
    * ``"ring"`` — cycle (two clusters: their one trunk)
    * ``"star"`` — all clusters hang off cluster 0
    * ``"line"`` — path
    * ``"mesh"`` — complete graph
    """
    if clusters < 1:
        raise ValueError("need at least one cluster")
    if hosts_per_cluster < 1:
        raise ValueError("need at least one host per cluster")
    cheap = cheap or cheap_spec()
    expensive = expensive or expensive_spec()
    network = Network(sim)
    rng = sim.rng.stream(rng_stream)

    cluster_servers = []
    host_clusters: List[List[HostId]] = []
    hosts: List[HostId] = []
    for c in range(clusters):
        server_name = f"s{c}"
        network.add_server(server_name)
        cluster_servers.append(server_name)
        members = []
        for h in range(hosts_per_cluster):
            host_id = HostId(f"h{c}.{h}")
            network.add_host(host_id, server_name, access_spec=cheap)
            members.append(host_id)
            hosts.append(host_id)
        host_clusters.append(members)

    backbone_links: List[tuple] = []

    def trunk(a: str, b: str) -> None:
        network.connect(a, b, expensive)
        backbone_links.append((a, b))

    if clusters > 1:
        if backbone == "tree":
            for idx in range(1, clusters):
                parent = cluster_servers[rng.randrange(idx)]
                trunk(parent, cluster_servers[idx])
        elif backbone == "ring":
            for a, b in _ring(cluster_servers):
                trunk(a, b)
        elif backbone == "star":
            for idx in range(1, clusters):
                trunk(cluster_servers[0], cluster_servers[idx])
        elif backbone == "line":
            for idx in range(1, clusters):
                trunk(cluster_servers[idx - 1], cluster_servers[idx])
        elif backbone == "mesh":
            for i in range(clusters):
                for j in range(i + 1, clusters):
                    trunk(cluster_servers[i], cluster_servers[j])
        else:
            raise ValueError(f"unknown backbone style {backbone!r}")

    network.use_global_routing(convergence_delay=convergence_delay)
    return BuiltTopology(network=network, hosts=hosts, clusters=host_clusters,
                         backbone=backbone_links)


def hierarchical_wan(
    sim: Simulator,
    clusters: int,
    servers_per_cluster: int,
    hosts_per_server: int,
    backbone: str = "line",
    cheap: Optional[LinkSpec] = None,
    expensive: Optional[LinkSpec] = None,
    convergence_delay: float = 0.5,
) -> BuiltTopology:
    """Clusters that are themselves multi-server LANs.

    Each cluster is a *ring* of ``servers_per_cluster`` servers joined
    by cheap links (a two-server cluster gets a single link), each
    carrying ``hosts_per_server`` hosts; intra-cluster paths can be
    several cheap hops long.  Cluster gateways (each cluster's server 0)
    are joined by expensive trunks in the given ``backbone`` shape
    (``"line"``, ``"ring"``, or ``"star"``).

    This exercises what :func:`wan_of_lans` cannot: cost bits must stay
    0 across multi-hop cheap paths, and clusters survive internal link
    failures through their ring redundancy.
    """
    if clusters < 1 or servers_per_cluster < 1 or hosts_per_server < 1:
        raise ValueError("clusters, servers, and hosts must all be positive")
    if backbone not in ("line", "ring", "star"):
        raise ValueError(f"unknown backbone style {backbone!r}")
    cheap = cheap or cheap_spec()
    expensive = expensive or expensive_spec()
    network = Network(sim)
    hosts: List[HostId] = []
    host_clusters: List[List[HostId]] = []
    gateways: List[str] = []
    for c in range(clusters):
        names = [f"s{c}.{i}" for i in range(servers_per_cluster)]
        for name in names:
            network.add_server(name)
        gateways.append(names[0])
        for a, b in _ring(names):
            network.connect(a, b, cheap)
        members = []
        for i, server_name in enumerate(names):
            for h in range(hosts_per_server):
                host_id = HostId(f"h{c}.{i}.{h}")
                network.add_host(host_id, server_name, access_spec=cheap)
                members.append(host_id)
                hosts.append(host_id)
        host_clusters.append(members)

    backbone_links: List[tuple] = []
    if clusters > 1:
        if backbone == "line":
            pairs = [(gateways[i - 1], gateways[i]) for i in range(1, clusters)]
        elif backbone == "ring":
            pairs = _ring(gateways)
        elif backbone == "star":
            pairs = [(gateways[0], gateways[i]) for i in range(1, clusters)]
        else:
            raise ValueError(f"unknown backbone style {backbone!r}")
        for a, b in pairs:
            network.connect(a, b, expensive)
            backbone_links.append((a, b))

    network.use_global_routing(convergence_delay=convergence_delay)
    return BuiltTopology(network=network, hosts=hosts, clusters=host_clusters,
                         backbone=backbone_links)


def line_topology(
    sim: Simulator,
    n_hosts: int,
    spec: Optional[LinkSpec] = None,
    convergence_delay: float = 0.5,
) -> BuiltTopology:
    """n servers in a path, one host each; all trunks share ``spec``."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    spec = spec or cheap_spec()
    network = Network(sim)
    hosts = []
    for i in range(n_hosts):
        network.add_server(f"s{i}")
        host_id = HostId(f"h{i}")
        network.add_host(host_id, f"s{i}")
        hosts.append(host_id)
        if i > 0:
            network.connect(f"s{i-1}", f"s{i}", spec)
    network.use_global_routing(convergence_delay=convergence_delay)
    clusters = ([[h for h in hosts]] if not spec.expensive
                else [[h] for h in hosts])
    return BuiltTopology(network=network, hosts=hosts, clusters=clusters)


def star_topology(
    sim: Simulator,
    n_hosts: int,
    spec: Optional[LinkSpec] = None,
    convergence_delay: float = 0.5,
) -> BuiltTopology:
    """A hub server with n leaf servers, one host per leaf."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    spec = spec or cheap_spec()
    network = Network(sim)
    network.add_server("hub")
    hosts = []
    for i in range(n_hosts):
        network.add_server(f"s{i}")
        network.connect("hub", f"s{i}", spec)
        host_id = HostId(f"h{i}")
        network.add_host(host_id, f"s{i}")
        hosts.append(host_id)
    network.use_global_routing(convergence_delay=convergence_delay)
    clusters = ([[h for h in hosts]] if not spec.expensive
                else [[h] for h in hosts])
    return BuiltTopology(network=network, hosts=hosts, clusters=clusters)


def random_topology(
    sim: Simulator,
    n_servers: int,
    n_hosts: int,
    extra_links: int = 0,
    expensive_fraction: float = 0.3,
    convergence_delay: float = 0.5,
    rng_stream: str = "topology.random",
) -> BuiltTopology:
    """A seeded random connected server graph with hosts spread round-robin.

    A random spanning tree guarantees connectivity; ``extra_links``
    additional random links add redundancy.  Each trunk is expensive
    with probability ``expensive_fraction``.
    """
    if n_servers < 1 or n_hosts < 1:
        raise ValueError("need at least one server and one host")
    rng = sim.rng.stream(rng_stream)
    network = Network(sim)
    names = [f"s{i}" for i in range(n_servers)]
    for name in names:
        network.add_server(name)

    def random_spec() -> LinkSpec:
        return expensive_spec() if rng.random() < expensive_fraction else cheap_spec()

    for idx in range(1, n_servers):
        network.connect(names[rng.randrange(idx)], names[idx], random_spec())
    added = 0
    attempts = 0
    while added < extra_links and attempts < extra_links * 20 + 20:
        attempts += 1
        a, b = rng.sample(names, 2) if n_servers > 1 else (names[0], names[0])
        if a == b or network.links.get(_lid(a, b)) is not None:
            continue
        network.connect(a, b, random_spec())
        added += 1

    hosts = []
    for i in range(n_hosts):
        host_id = HostId(f"h{i}")
        network.add_host(host_id, names[i % n_servers])
        hosts.append(host_id)
    network.use_global_routing(convergence_delay=convergence_delay)
    built = BuiltTopology(network=network, hosts=hosts)
    built.clusters = [sorted(c) for c in network.true_clusters()]
    return built


def _lid(a: str, b: str):
    from .addressing import LinkId

    return LinkId.of(a, b)
