"""The network: servers, hosts, links, and topology queries.

:class:`Network` is the container that wires servers, host ports, and
links together, owns the routing engine, and answers the topology
questions the *oracle* layers need (true clusters, reachability).  The
protocol under test never calls those oracle queries — hosts only see
their :class:`repro.net.hostiface.HostPort`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..sim import Simulator
from .addressing import HostId, LinkId
from .clocks import ClockModel
from .hostiface import HostPort
from .link import Link, LinkSpec, cheap_spec
from .routing import GlobalRoutingEngine, RoutingEngine
from .server import Server


class Network:
    """A simulated point-to-point network with nonprogrammable servers."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.servers: Dict[str, Server] = {}
        self.links: Dict[LinkId, Link] = {}
        self._ports: Dict[HostId, HostPort] = {}
        self._host_server: Dict[HostId, str] = {}
        self.routing: RoutingEngine = _NullRouting()
        #: optional per-host clock skew model (None = perfect clocks)
        self.clocks: Optional[ClockModel] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_server(self, name: str) -> Server:
        """Create a server node; names must be unique across the network."""
        if name in self.servers:
            raise ValueError(f"server {name} already exists")
        if name in self._ports:  # a HostId equals its name
            raise ValueError(f"name {name} already used by a host")
        server = Server(self.sim, name, self)
        self.servers[name] = server
        return server

    def connect(self, a: str, b: str, spec: Optional[LinkSpec] = None) -> Link:
        """Create a bidirectional trunk link between servers ``a`` and ``b``."""
        for name in (a, b):
            if name not in self.servers:
                raise ValueError(f"unknown server {name}")
        link_id = LinkId.of(a, b)
        if link_id in self.links:
            raise ValueError(f"link {link_id} already exists")
        link = Link(self.sim, link_id, spec or cheap_spec())
        self.links[link_id] = link
        self.servers[a].add_trunk(b, link)
        self.servers[b].add_trunk(a, link)
        return link

    def add_host(
        self,
        host_id: HostId,
        server_name: str,
        access_spec: Optional[LinkSpec] = None,
    ) -> HostPort:
        """Attach a host to a server over an access link (cheap by default)."""
        if host_id in self._ports:
            raise ValueError(f"host {host_id} already exists")
        if server_name not in self.servers:
            raise ValueError(f"unknown server {server_name}")
        if str(host_id) in self.servers:
            raise ValueError(f"name {host_id} already used by a server")
        link_id = LinkId.of(str(host_id), server_name)
        link = Link(self.sim, link_id, access_spec or cheap_spec())
        self.links[link_id] = link
        port = HostPort(self.sim, host_id, server_name, link, self)
        self._ports[host_id] = port
        self._host_server[host_id] = server_name
        self.servers[server_name].attach_host(host_id, link)
        return port

    def use_routing(self, engine: RoutingEngine) -> None:
        """Install the routing engine (after all servers/links exist)."""
        self.routing = engine

    def use_clocks(self, model: ClockModel) -> "ClockModel":
        """Install a host clock-skew model; returns it for chaining."""
        self.clocks = model
        return model

    def local_time(self, host_id: HostId) -> float:
        """What ``host_id``'s wall clock reads (true time if no model)."""
        if self.clocks is None:
            return self.sim.now
        return self.clocks.local_time(host_id)

    def use_global_routing(self, convergence_delay: float = 0.5, **kwargs) -> GlobalRoutingEngine:
        """Install the default global shortest-path engine."""
        engine = GlobalRoutingEngine(self.sim, self, convergence_delay, **kwargs)
        self.routing = engine
        return engine

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def host_port(self, host_id: HostId) -> HostPort:
        """The port object of ``host_id``."""
        return self._ports[host_id]

    def server_of(self, host_id: HostId) -> Optional[str]:
        """Name of the server ``host_id`` attaches to (None if unknown)."""
        return self._host_server.get(host_id)

    def hosts(self) -> List[HostId]:
        """All host ids, sorted."""
        return sorted(self._ports)

    def server_names(self) -> List[str]:
        """All server names, sorted."""
        return sorted(self.servers)

    def link(self, a: str, b: str) -> Link:
        """The link between nodes ``a`` and ``b``."""
        return self.links[LinkId.of(a, b)]

    def access_link(self, host_id: HostId) -> Link:
        """The access link attaching ``host_id`` to its server."""
        return self._ports[host_id].access_link

    # ------------------------------------------------------------------
    # Failure injection entry points
    # ------------------------------------------------------------------

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        """Fail or repair the link between nodes ``a`` and ``b``."""
        link = self.link(a, b)
        if up:
            link.set_up()
        else:
            link.set_down()
        self.routing.on_topology_change()

    def set_server_state(self, name: str, up: bool) -> None:
        """Crash or repair a whole server (paper §3: "a cluster leader
        (or its server) may fail").

        A down server discards every packet it would have forwarded or
        delivered; its links also go down so adjacent servers' traffic
        is lost in flight, exactly as with a powered-off switch.  The
        failure is, as always, undetected by the application.
        """
        server = self.servers[name]
        if server.up == up:
            return
        server.up = up
        for link in self.links.values():
            if name in (link.link_id.a, link.link_id.b):
                other = link.other_end(name)
                # A link is up only when both its endpoint servers are.
                other_up = (self.servers[other].up
                            if other in self.servers else True)
                if up and other_up:
                    link.set_up()
                else:
                    link.set_down()
        self.routing.on_topology_change()
        self.sim.trace.emit("server.state", name, up=up)

    # ------------------------------------------------------------------
    # Topology queries (oracle / routing support)
    # ------------------------------------------------------------------

    def server_adjacency(self) -> Dict[str, Dict[str, Tuple[float, bool]]]:
        """Up trunk links as ``server -> neighbor -> (latency, expensive)``."""
        adjacency: Dict[str, Dict[str, Tuple[float, bool]]] = {
            name: {} for name in self.servers
        }
        for link in self.links.values():
            a, b = link.link_id.a, link.link_id.b
            if not link.up or a not in self.servers or b not in self.servers:
                continue
            if not (self.servers[a].up and self.servers[b].up):
                continue
            weight = (link.spec.latency, link.spec.expensive)
            adjacency[a][b] = weight
            adjacency[b][a] = weight
        return adjacency

    def _node_components(self, link_filter: Callable[[Link], bool]) -> Dict[str, int]:
        """Connected components over nodes, using links passing ``link_filter``."""
        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            root = x
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(x: str, y: str) -> None:
            parent[find(x)] = find(y)

        for name in self.servers:
            find(name)
        for host_id in self._ports:
            find(str(host_id))
        for link in self.links.values():
            if link_filter(link):
                union(link.link_id.a, link.link_id.b)
        roots: Dict[str, int] = {}
        labels: Dict[str, int] = {}
        for node in sorted(parent):
            root = find(node)
            labels[node] = roots.setdefault(root, len(roots))
        return labels

    def true_clusters(self) -> List[Set[HostId]]:
        """The real clusters: hosts mutually reachable over *cheap up* links.

        This is ground truth used by verification oracles and by the
        "static cluster knowledge" protocol mode — the protocol's normal
        mode never reads it.
        """
        labels = self._node_components(
            lambda link: link.up and not link.spec.expensive)
        groups: Dict[int, Set[HostId]] = {}
        for host_id in self._ports:
            groups.setdefault(labels[str(host_id)], set()).add(host_id)
        return sorted(groups.values(), key=lambda grp: sorted(grp)[0])

    def cluster_of(self, host_id: HostId) -> Set[HostId]:
        """The true cluster containing ``host_id``."""
        for cluster in self.true_clusters():
            if host_id in cluster:
                return cluster
        raise KeyError(host_id)

    def reachable(self, a: HostId, b: HostId) -> bool:
        """True when a path of up links (any class) connects hosts a and b."""
        labels = self._node_components(lambda link: link.up)
        return labels[str(a)] == labels[str(b)]

    def partitions(self) -> List[Set[HostId]]:
        """Groups of hosts mutually reachable over up links of any class."""
        labels = self._node_components(lambda link: link.up)
        groups: Dict[int, Set[HostId]] = {}
        for host_id in self._ports:
            groups.setdefault(labels[str(host_id)], set()).add(host_id)
        return sorted(groups.values(), key=lambda grp: sorted(grp)[0])


class _NullRouting(RoutingEngine):
    """Placeholder before an engine is installed: drops everything."""

    def next_hop(self, at_server: str, dst_server: str) -> Optional[str]:
        return None

    def on_topology_change(self) -> None:
        pass
