"""Routing engines for the server subnetwork.

The paper assumes ARPANET-style *adaptive* routing: hosts know nothing
about topology, but the subnetwork eventually finds a path whenever one
exists (this is what backs the paper's communication-transitivity
assumption).  Two engines are provided:

* :class:`GlobalRoutingEngine` — recomputes shortest-path next-hop
  tables from the true topology a configurable *convergence delay*
  after every topology change.  This models "given sufficient time, the
  routing algorithm will discover it" with a single tunable lag, and is
  the default for experiments.
* :class:`repro.net.distvec.DistanceVectorEngine` — a real distributed
  distance-vector protocol (periodic neighbor exchange, route aging,
  split horizon), for users who want the routing substrate itself to be
  message-driven.

Both expose the same two-method interface consumed by servers.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network

#: Routing metric: maps a link's (latency, expensive) to a weight.
MetricFn = Callable[[float, bool], float]


def latency_metric(latency: float, expensive: bool) -> float:
    """Default metric: route along minimum total latency."""
    return latency


def hop_metric(latency: float, expensive: bool) -> float:
    """Alternative metric: minimize hop count."""
    return 1.0


def cheap_first_metric(latency: float, expensive: bool) -> float:
    """Metric that strongly avoids expensive links when possible."""
    return 1000.0 if expensive else 1.0


class RoutingEngine:
    """Interface between servers and the routing subsystem."""

    #: Monotonic stamp, bumped every time the engine's tables change.
    #: Servers memoize ``next_hop`` answers keyed by this generation, so
    #: repeated unicasts to the same destination skip the table walk
    #: until the next (re)convergence invalidates the memo.
    generation: int = 0

    def next_hop(self, at_server: str, dst_server: str) -> Optional[str]:
        """Neighbor server to forward to, or None when no route is known."""
        raise NotImplementedError

    def on_topology_change(self) -> None:
        """Called by the network whenever a link fails or recovers."""
        raise NotImplementedError


class GlobalRoutingEngine(RoutingEngine):
    """Shortest-path next hops recomputed with a convergence delay.

    Between a topology change and recomputation, servers keep using the
    stale tables — packets routed toward a dead link are silently lost,
    exactly as the paper's failure model allows.
    """

    def __init__(
        self,
        sim: Simulator,
        network: "Network",
        convergence_delay: float = 0.5,
        metric: MetricFn = latency_metric,
    ) -> None:
        self.sim = sim
        self.network = network
        self.convergence_delay = convergence_delay
        self.metric = metric
        self.generation = 0
        self._tables: Dict[str, Dict[str, str]] = {}
        self._recompute_pending = False
        self.recompute()

    def next_hop(self, at_server: str, dst_server: str) -> Optional[str]:
        """Neighbor server to forward to, or None when unknown."""
        row = self._tables.get(at_server)
        if row is None:
            return None
        return row.get(dst_server)

    def on_topology_change(self) -> None:
        """React to a link failing or recovering."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        if self.convergence_delay == 0:
            self._recompute_now()
        else:
            self.sim.schedule(self.convergence_delay, self._recompute_now)

    def _recompute_now(self) -> None:
        self._recompute_pending = False
        self.recompute()
        self.sim.trace.emit("routing.converged", "global")

    def recompute(self) -> None:
        """Rebuild all next-hop tables from the current up-link topology."""
        adjacency = self.network.server_adjacency()
        self._tables = {
            source: _dijkstra_next_hops(source, adjacency, self.metric)
            for source in adjacency
        }
        self.generation += 1


def _dijkstra_next_hops(
    source: str,
    adjacency: Dict[str, Dict[str, tuple]],
    metric: MetricFn,
) -> Dict[str, str]:
    """Single-source shortest paths; returns dst -> first hop from ``source``.

    Ties are broken deterministically by (distance, node name) heap
    ordering so identical seeds give identical routes.
    """
    dist: Dict[str, float] = {source: 0.0}
    heap = [(0.0, source, source)]  # (distance, node, first hop used)
    visited: Dict[str, str] = {}
    while heap:
        d, node, hop = heapq.heappop(heap)
        if node in visited:
            continue
        visited[node] = hop
        for neighbor, (latency, expensive) in sorted(adjacency.get(node, {}).items()):
            if neighbor in visited:
                continue
            candidate = d + metric(latency, expensive)
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                next_first = neighbor if node == source else hop
                heapq.heappush(heap, (candidate, neighbor, next_first))
    visited.pop(source, None)
    return visited
