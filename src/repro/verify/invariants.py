"""The Section 4.3 invariants, each computed once (verification oracles).

These read protocol *and* ground-truth state — they are test oracles,
never used by the protocol itself.  Ground truth comes from the
:class:`~repro.io.interfaces.Deployment` queries ``true_clusters()``
and ``reachable(a, b)``, so every check runs on any tree deployment
with ``parent_edges()``: a simulated
:class:`~repro.core.engine.BroadcastSystem` or a
:class:`~repro.io.node.UdpBroadcastSystem`, opened or not.

Each invariant is one function returning its violations, each the
tuple of host names it involves, and :data:`INVARIANTS` lists them in
order:

* no *harmful* cycle in the host parent graph: a cycle is tolerated
  only while its hosts are partitioned away from everyone with newer
  messages;
* INFO dominance: a host's INFO maximum never exceeds its parent's
  (hosts accept new-maximum data only from their parent);
* at quiescence only, each true cluster has exactly one leader, and
  every parent pointer is mirrored by the parent's CHILDREN set.

Every consumer reads that table: :func:`check_all` formats it,
:class:`~repro.verify.monitor.InvariantMonitor` samples its safety
rows, and :mod:`repro.verify.containment` classifies it.  The tree
checks (:func:`check_is_tree_rooted_at_source`,
:func:`check_induces_cluster_tree`) complete ``check_all`` at rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..net import HostId

#: one violation: the names of the hosts it involves
Violation = Tuple[str, ...]


@dataclass(frozen=True)
class Invariant:
    """One row of :data:`INVARIANTS`."""

    #: the name containment reports it under
    name: str
    #: the first element of the monitor's span key
    kind: str
    #: holds only at quiescence (never sampled mid-run)
    quiescent: bool
    #: the violations on a live tree deployment
    violations: Callable[[Any], List[Violation]]


def find_parent_cycles(system: Any) -> List[List[HostId]]:
    """All distinct cycles in the current host parent graph."""
    parents = system.parent_edges()
    cycles: List[List[HostId]] = []
    seen_cycle_members: Set[HostId] = set()
    for start in sorted(parents):
        if start in seen_cycle_members:
            continue
        walk: List[HostId] = []
        positions: Dict[HostId, int] = {}
        current: Optional[HostId] = start
        while current is not None and current not in seen_cycle_members:
            if current in positions:
                cycle = walk[positions[current]:]
                cycles.append(cycle)
                seen_cycle_members.update(cycle)
                break
            positions[current] = len(walk)
            walk.append(current)
            current = parents.get(current)
    return cycles


def harmful_cycles(system: Any) -> List[Violation]:
    """Cycles (sorted members) that persist although a member reaches
    a host with a larger INFO maximum."""
    hosts = system.hosts
    out: List[Violation] = []
    for cycle in find_parent_cycles(system):
        cycle_max = max(hosts[h].info.max_seqno for h in cycle)
        if any(hosts[other].info.max_seqno > cycle_max
               and any(system.reachable(member, other) for member in cycle)
               for other in hosts if other not in cycle):
            out.append(tuple(sorted(str(h) for h in cycle)))
    return out


def info_dominance(system: Any) -> List[Violation]:
    """(child, parent) pairs where the child's INFO maximum is larger."""
    hosts = system.hosts
    out: List[Violation] = []
    for child_id, parent_id in system.parent_edges().items():
        if parent_id is None or parent_id not in hosts:
            continue
        if hosts[child_id].info.max_seqno > hosts[parent_id].info.max_seqno:
            out.append((str(child_id), str(parent_id)))
    return out


def _leaders_by_cluster(system: Any) -> List[Tuple[Set[HostId], List[HostId]]]:
    """Each true cluster with its leaders (parent None or outside it)."""
    parents = system.parent_edges()
    return [(cluster, [h for h in sorted(cluster)
                       if parents.get(h) is None or parents[h] not in cluster])
            for cluster in system.true_clusters()]


def true_leaders(system: Any) -> Dict[int, List[HostId]]:
    """Leaders per ground-truth cluster, keyed by cluster index."""
    return {idx: leaders
            for idx, (_, leaders) in enumerate(_leaders_by_cluster(system))}


def leadership(system: Any) -> List[Violation]:
    """The leaders of every true cluster that has more than one, and the
    sorted members of every true cluster that has none."""
    return [tuple(str(h) for h in (leaders or sorted(cluster)))
            for cluster, leaders in _leaders_by_cluster(system)
            if len(leaders) != 1]


def unmirrored_children(system: Any) -> List[Violation]:
    """(child, parent) pairs the parent's CHILDREN set does not list."""
    hosts = system.hosts
    return [(str(child_id), str(parent_id))
            for child_id, parent_id in system.parent_edges().items()
            if parent_id is not None and parent_id in hosts
            and child_id not in hosts[parent_id].children]


#: every Section 4.3 invariant, in report order
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant("no_harmful_cycles", "harmful_cycle", False, harmful_cycles),
    Invariant("info_dominance", "info_dominance", False, info_dominance),
    Invariant("single_leader_per_cluster", "leaders", True, leadership),
    Invariant("children_consistency", "children", True, unmirrored_children),
)


def describe(invariant: Invariant, hosts: Violation) -> str:
    """The human-readable form of one violation."""
    return f"{invariant.name}: {list(hosts)}"


_CYCLES, _DOMINANCE, _LEADERSHIP, _CHILDREN = INVARIANTS


def _format(invariant: Invariant, system: Any) -> List[str]:
    return [describe(invariant, hosts) for hosts in invariant.violations(system)]


def check_no_harmful_cycles(system: Any) -> List[str]:
    """Cycles are only tolerable while their members are partitioned
    away from every host with a larger INFO set (Section 4.3)."""
    return _format(_CYCLES, system)


def check_info_dominance(system: Any) -> List[str]:
    """A child's INFO maximum never exceeds its parent's."""
    return _format(_DOMINANCE, system)


def check_single_leader_per_cluster(system: Any) -> List[str]:
    """At quiescence every true cluster has exactly one leader."""
    return _format(_LEADERSHIP, system)


def check_children_consistency(system: Any) -> List[str]:
    """Every parent pointer is mirrored by a CHILDREN entry (quiescent)."""
    return _format(_CHILDREN, system)


def check_is_tree_rooted_at_source(system: Any) -> List[str]:
    """Every host reaches the source by following parent pointers."""
    violations = []
    parents = system.parent_edges()
    source = system.source_id
    if parents[source] is not None:
        violations.append(f"source {source} has a parent: {parents[source]}")
    limit = len(system.hosts) + 1
    for host_id in system.hosts:
        if host_id == source:
            continue
        current: Optional[HostId] = host_id
        hops = 0
        while current is not None and current != source and hops <= limit:
            current = parents.get(current)
            hops += 1
        if current != source:
            violations.append(f"{host_id} does not reach the source "
                              f"via parent pointers")
    return violations


def _members_off_their_leader(system: Any) -> List[str]:
    """Members of a single-leader cluster whose parent is not its leader."""
    violations = []
    parents = system.parent_edges()
    for cluster, leaders in _leaders_by_cluster(system):
        if len(leaders) != 1:
            continue  # the leadership row reports it
        leader = leaders[0]
        for member in sorted(cluster):
            if member != leader and parents.get(member) != leader:
                violations.append(
                    f"{member} is in {leader}'s cluster but its parent is "
                    f"{parents.get(member)}")
    return violations


def check_induces_cluster_tree(system: Any) -> List[str]:
    """The Section 4.1 predicate: H is a tree, and in every cluster all
    non-leader members are children of the cluster's single leader."""
    return (check_is_tree_rooted_at_source(system)
            + check_single_leader_per_cluster(system)
            + _members_off_their_leader(system))


def check_all(system: Any, quiescent: bool = False) -> List[str]:
    """Every applicable invariant, formatted; ``quiescent`` adds the
    rows that hold only at rest and the cluster-tree checks."""
    violations = [describe(inv, hosts) for inv in INVARIANTS
                  if quiescent or not inv.quiescent
                  for hosts in inv.violations(system)]
    if quiescent:
        violations += check_is_tree_rooted_at_source(system)
        violations += _members_off_their_leader(system)
    return violations
