"""UDP deployment assembly: the protocol over real sockets.

:class:`UdpBroadcastSystem` is the same
:class:`~repro.io.interfaces.Deployment` harness and the same tree-host
assembly (:func:`repro.core.engine.build_tree_hosts`) as the in-sim
:class:`~repro.core.engine.BroadcastSystem`, with every host on its own
localhost UDP socket driven by one shared
:class:`~repro.io.aio.AsyncioRuntime`.  The protocol machines are
byte-for-byte the classes validated in-sim; only the Runtime/Transport
objects handed to them differ.

Deployment model notes:

* Clusters are **static**: real networks stamp no cost bits, so hosts
  get a-priori cluster knowledge (the paper's manual-configuration
  option, Section 6).  Any config passed in is coerced to
  ``ClusterMode.STATIC``.
* Sockets bind ephemeral ports (the OS picks), so parallel CI jobs
  never collide; the full peer address map is distributed to every
  transport after all sockets are bound — playing the role of the
  routing tables the sim network maintains.
* A crashed host's socket stays bound — it drops inbound datagrams
  itself, exactly like the sim model (the network keeps routing to a
  dead host; it just answers nothing).
* All hosts run in one process on one event loop.  That is a harness
  simplification (one Python process is the "network"), not a protocol
  one: hosts still communicate exclusively through their sockets.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..core.config import ClusterMode, ProtocolConfig
from ..core.delivery import DeliverCallback
from ..core.engine import build_tree_hosts
from ..net.addressing import HostId
from .aio import AsyncioRuntime
from .interfaces import Deployment
from .udp import UdpTransport


def cluster_names(clusters: int, hosts_per_cluster: int) -> List[List[str]]:
    """The host-name grid :func:`repro.net.generator.wan_of_lans` uses.

    Seed-matched sim-vs-UDP comparisons need identical host names on
    both sides; this reproduces the generator's ``h{c}.{h}`` scheme.
    """
    return [[f"h{c}.{h}" for h in range(hosts_per_cluster)]
            for c in range(clusters)]


class UdpBroadcastSystem(Deployment):
    """A complete broadcast deployment over localhost UDP sockets.

    Args:
        clusters: host names grouped by cluster, e.g.
            ``[["h0.0", "h0.1"], ["h1.0", "h1.1"]]``.
        config: protocol tuning; cluster mode is forced to STATIC.
        source: source host name (defaults to the first host).
        seed: master seed for the runtime's RNG streams.
        time_scale: wall seconds per protocol second (see
            :class:`~repro.io.aio.AsyncioRuntime`); ``0.05`` runs the
            paper's multi-second timers 20× faster than real time.
        deliver_callback: invoked on every delivery at every host.
        trace: retain trace records on the shared runtime.
    """

    runtime: AsyncioRuntime

    def __init__(
        self,
        clusters: Sequence[Sequence[str]],
        config: Optional[ProtocolConfig] = None,
        source: Optional[str] = None,
        *,
        seed: int = 0,
        time_scale: float = 1.0,
        deliver_callback: Optional[DeliverCallback] = None,
        trace: bool = True,
    ) -> None:
        names = [name for cluster in clusters for name in cluster]
        if not names:
            raise ValueError("need at least one host")
        if len(set(names)) != len(names):
            raise ValueError("host names must be distinct")
        host_ids = [HostId(n) for n in names]
        source_id = HostId(source) if source is not None else host_ids[0]
        if source_id not in host_ids:
            raise ValueError(f"source {source_id} is not a deployment host")
        super().__init__(AsyncioRuntime(seed=seed, time_scale=time_scale,
                                        trace=trace), source_id)

        config = config or ProtocolConfig.for_scale(len(names))
        if config.cluster_mode is not ClusterMode.STATIC:
            # No cost bits on real sockets: cluster knowledge is a-priori.
            config = dataclasses.replace(config,
                                         cluster_mode=ClusterMode.STATIC)
        self.config = config

        self._clusters = [[HostId(n) for n in cluster] for cluster in clusters]
        self.transports: Dict[HostId, UdpTransport] = {
            h: UdpTransport(self.runtime, h, peers={}) for h in host_ids}
        self.hosts = build_tree_hosts(
            self.runtime, host_ids, source_id,
            self.transports.__getitem__, config,
            clusters=self._clusters, deliver_callback=deliver_callback)
        self._opened = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def open(self, host: str = "127.0.0.1") -> "UdpBroadcastSystem":
        """Bind every socket, distribute the peer map, start the hosts."""
        if self._opened:
            return self
        self._opened = True
        for transport in self.transports.values():
            await transport.open((host, 0))
        addresses = {host_id: transport.local_address
                     for host_id, transport in self.transports.items()}
        for transport in self.transports.values():
            transport.set_peers(addresses)
        self.start()
        return self

    def close(self) -> None:
        """Stop all hosts and close every socket."""
        self.stop()
        for transport in self.transports.values():
            transport.close()
        self._opened = False

    def parent_edges(self) -> Dict[HostId, Optional[HostId]]:
        """Current host parent graph as child -> parent (oracle view)."""
        return {host_id: host.parent for host_id, host in self.hosts.items()}

    def _call_at(self, time: float, callback: Callable[[], None]) -> None:
        self.runtime.start_timer(max(0.0, time - self.runtime.now()), callback)

    def true_clusters(self) -> List[Set[HostId]]:
        """The static clusters the deployment was built with."""
        return [set(cluster) for cluster in self._clusters]

    def reachable(self, a: HostId, b: HostId) -> bool:
        """Always True: real sockets give no omniscient view, and
        assuming reachability only makes the cycle check stricter."""
        return True

    async def run_until_delivered(self, n: int, timeout: float,
                                  hosts: Optional[List[HostId]] = None,
                                  check_period: float = 0.25) -> bool:
        """Wait until 1..n reach all (given) hosts; times in protocol
        seconds."""
        deadline = self.runtime.now() + timeout
        while self.runtime.now() < deadline:
            if self.all_delivered(n, hosts):
                return True
            await asyncio.sleep(check_period * self.runtime.time_scale)
        return self.all_delivered(n, hosts)

    def delivered_seqnos(self) -> Dict[str, List[int]]:
        """Per-host sorted delivered sequence numbers (the parity unit)."""
        return {str(h): sorted(r.seq for r in host.deliveries.records())
                for h, host in self.hosts.items()}
