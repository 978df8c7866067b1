"""Failure injection: schedules, flapping links, and partitions.

Everything here drives :meth:`repro.net.topology.Network.set_link_state`
on the simulator's clock; the protocol under test is never told — per
the paper, failures and repairs are undetected by the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..sim import Entry, Simulator
from .addressing import HostId, LinkId
from .topology import Network


@dataclass(frozen=True)
class LinkStateChange:
    """One scheduled change: at ``time``, link (a, b) goes up or down."""

    time: float
    a: str
    b: str
    up: bool


class FailureSchedule:
    """A list of link-state changes applied at their times.

    Overlapping ``outage`` windows on the same link compose correctly:
    the schedule keeps a per-link *down-depth* count, and the link is up
    only while no scheduled outage covers it.  (Naive down/up toggling
    would repair the link at the *first* outage's end even though a
    second, longer outage was still in force.)  An ``up`` with no
    matching ``down`` clamps at depth 0 and is a harmless no-op repair.
    """

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.changes: List[LinkStateChange] = []
        self._down_depth: Dict[LinkId, int] = {}

    def at(self, time: float, a: str, b: str, up: bool) -> "FailureSchedule":
        """Schedule one change (chainable)."""
        change = LinkStateChange(time, a, b, up)
        self.changes.append(change)
        self.sim.schedule_at(time, self._apply, change)
        return self

    def down(self, time: float, a: str, b: str) -> "FailureSchedule":
        """Fail the link at ``time`` (chainable)."""
        return self.at(time, a, b, up=False)

    def up(self, time: float, a: str, b: str) -> "FailureSchedule":
        """Repair the link at ``time`` (chainable)."""
        return self.at(time, a, b, up=True)

    def outage(self, start: float, end: float, a: str, b: str) -> "FailureSchedule":
        """Link (a, b) is down during [start, end); windows may overlap."""
        if end <= start:
            raise ValueError(f"outage end {end} must be after start {start}")
        return self.down(start, a, b).up(end, a, b)

    def _apply(self, change: LinkStateChange) -> None:
        link_id = LinkId.of(change.a, change.b)
        depth = self._down_depth.get(link_id, 0)
        depth = max(0, depth - 1) if change.up else depth + 1
        self._down_depth[link_id] = depth
        up = depth == 0
        self.network.set_link_state(change.a, change.b, up)
        self.sim.trace.emit("failure.apply", "schedule", a=change.a, b=change.b,
                            up=up, depth=depth)
        self.sim.metrics.counter(
            "net.failures.link.up" if up else "net.failures.link.down").inc()


class LinkFlapper:
    """Randomly fails and repairs a set of links (link churn).

    Each managed link alternates up/down with exponentially distributed
    durations, drawn from a dedicated RNG stream.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        links: Iterable[Tuple[str, str]],
        mean_up: float = 30.0,
        mean_down: float = 5.0,
        rng_stream: str = "failures.flapper",
    ) -> None:
        if mean_up <= 0 or mean_down <= 0:
            raise ValueError("mean_up and mean_down must be positive")
        self.sim = sim
        self.network = network
        self.links = [LinkId.of(a, b) for a, b in links]
        self.mean_up = mean_up
        self.mean_down = mean_down
        self._rng = sim.rng.stream(rng_stream)
        self._running = False
        #: per-link pending transition event, cancelled on stop() so a
        #: stopped flapper can never flip a link afterwards
        self._pending: Dict[LinkId, Entry] = {}

    def start(self) -> "LinkFlapper":
        """Start periodic activity; returns self for chaining."""
        self._running = True
        for link_id in self.links:
            self._arm(self.mean_up, self._fail, link_id)
        return self

    def stop(self) -> None:
        """Stop all transitions, including any already scheduled.

        Pending fail/repair events are cancelled — without that, a
        timer armed before stop() could flip a link *after* a chaos
        plan's heal-by horizon and break its guarantee.
        """
        self._running = False
        for event in self._pending.values():
            self.sim.try_cancel(event)
        self._pending.clear()

    def _arm(self, mean: float, action, link_id: LinkId) -> None:
        self._pending[link_id] = self.sim.schedule(
            self._rng.expovariate(1.0 / mean), action, link_id)

    def _fail(self, link_id: LinkId) -> None:
        if not self._running:
            return
        self._pending.pop(link_id, None)
        self.network.set_link_state(link_id.a, link_id.b, up=False)
        self._arm(self.mean_down, self._repair, link_id)

    def _repair(self, link_id: LinkId) -> None:
        if not self._running:
            return
        self._pending.pop(link_id, None)
        self.network.set_link_state(link_id.a, link_id.b, up=True)
        self._arm(self.mean_up, self._fail, link_id)


class ServerOutageSchedule:
    """Scheduled whole-server crashes and repairs (paper §3).

    Drives :meth:`repro.net.topology.Network.set_server_state` on the
    simulator's clock; as with links, the application is never told.
    Every applied change emits the same ``failure.apply`` trace event as
    :class:`FailureSchedule` and bumps ``net.failures.server.*``
    counters, so chaos runs are debuggable from traces alone.
    """

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network

    def crash(self, time: float, server: str) -> "ServerOutageSchedule":
        """Crash ``server`` at ``time`` (chainable)."""
        self.sim.schedule_at(time, self._apply, server, False)
        return self

    def repair(self, time: float, server: str) -> "ServerOutageSchedule":
        """Repair ``server`` at ``time`` (chainable)."""
        self.sim.schedule_at(time, self._apply, server, True)
        return self

    def outage(self, start: float, end: float,
               server: str) -> "ServerOutageSchedule":
        """``server`` is down during [start, end)."""
        if end <= start:
            raise ValueError(f"outage end {end} must be after start {start}")
        return self.crash(start, server).repair(end, server)

    def _apply(self, server: str, up: bool) -> None:
        self.network.set_server_state(server, up)
        self.sim.trace.emit("failure.apply", "schedule", server=server, up=up)
        self.sim.metrics.counter(
            "net.failures.server.up" if up else "net.failures.server.down").inc()


def cut_links_between(
    network: Network, group_a: Sequence[str], group_b: Sequence[str]
) -> List[Tuple[str, str]]:
    """Find all links with one endpoint in each node group."""
    set_a, set_b = set(group_a), set(group_b)
    out = []
    for link in network.links.values():
        a, b = link.link_id.a, link.link_id.b
        if (a in set_a and b in set_b) or (a in set_b and b in set_a):
            out.append((a, b))
    return sorted(out)


class PartitionScheduler:
    """Partition the network into node groups for a time window.

    All links crossing between the given groups are failed at ``start``
    and repaired at ``end``.  Links internal to a group are untouched.
    """

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.schedule = FailureSchedule(sim, network)

    def isolate(
        self, group: Sequence[str], start: float, end: float
    ) -> List[Tuple[str, str]]:
        """Cut ``group`` off from the rest of the network during [start, end)."""
        others = [name for name in self._all_nodes() if name not in set(group)]
        return self.partition([list(group), others], start, end)

    def partition(
        self, groups: Sequence[Sequence[str]], start: float, end: float
    ) -> List[Tuple[str, str]]:
        """Split the network into the given groups during [start, end).

        Returns the list of links that were cut.
        """
        cut: Set[Tuple[str, str]] = set()
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                cut.update(cut_links_between(self.network, group_a, group_b))
        for a, b in sorted(cut):
            self.schedule.outage(start, end, a, b)
        return sorted(cut)

    def _all_nodes(self) -> List[str]:
        nodes = list(self.network.server_names())
        nodes.extend(str(h) for h in self.network.hosts())
        return nodes


def host_group(network: Network, hosts: Iterable[HostId]) -> List[str]:
    """Node group containing the given hosts and their servers.

    Convenience for partitioning along host lines: isolating a host
    group means cutting the trunks between their servers and the rest.
    """
    names: Set[str] = set()
    for host_id in hosts:
        names.add(str(host_id))
        server = network.server_of(host_id)
        if server is not None:
            names.add(server)
    return sorted(names)
