"""Tests for the verification oracles."""

import pytest

from repro.core import BroadcastSystem, ProtocolConfig
from repro.io import UdpBroadcastSystem, cluster_names
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator
from repro.verify import (
    InvariantMonitor,
    check_all,
    classify_containment,
    check_children_consistency,
    check_induces_cluster_tree,
    check_info_dominance,
    check_is_tree_rooted_at_source,
    check_no_harmful_cycles,
    check_single_leader_per_cluster,
    find_parent_cycles,
    run_to_quiescence,
    true_leaders,
)
from repro.verify.invariants import INVARIANTS, describe


def build(k=2, m=2, seed=0):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m, backbone="line",
                        convergence_delay=0.0)
    system = BroadcastSystem(built)
    return sim, built, system


def h(name):
    return HostId(name)


class TestCycleFinding:
    def test_no_cycles_initially(self):
        _, _, system = build()
        assert find_parent_cycles(system) == []

    def test_finds_forced_cycle(self):
        _, _, system = build()
        system.hosts[h("h0.0")].parent = h("h0.1")
        system.hosts[h("h0.1")].parent = h("h0.0")
        cycles = find_parent_cycles(system)
        assert len(cycles) == 1
        assert set(cycles[0]) == {h("h0.0"), h("h0.1")}

    def test_chain_into_cycle_reports_only_cycle(self):
        _, _, system = build(k=1, m=4)
        system.hosts[h("h0.0")].parent = h("h0.1")
        system.hosts[h("h0.1")].parent = h("h0.2")
        system.hosts[h("h0.2")].parent = h("h0.1")
        cycles = find_parent_cycles(system)
        assert len(cycles) == 1
        assert set(cycles[0]) == {h("h0.1"), h("h0.2")}

    def test_harmful_cycle_flagged_when_better_host_reachable(self):
        _, _, system = build()
        system.hosts[h("h1.0")].parent = h("h1.1")
        system.hosts[h("h1.1")].parent = h("h1.0")
        system.source.broadcast("x")  # source now ahead, and reachable
        violations = check_no_harmful_cycles(system)
        assert violations

    def test_cycle_tolerated_when_partitioned(self):
        _, built, system = build()
        system.hosts[h("h1.0")].parent = h("h1.1")
        system.hosts[h("h1.1")].parent = h("h1.0")
        system.source.broadcast("x")
        built.network.set_link_state("s0", "s1", up=False)
        assert check_no_harmful_cycles(system) == []


class TestInfoDominance:
    def test_holds_initially(self):
        _, _, system = build()
        assert check_info_dominance(system) == []

    def test_violation_detected(self):
        _, _, system = build()
        system.hosts[h("h0.1")].parent = h("h0.0")  # source is h0.0
        system.hosts[h("h0.1")].info.add(5)
        violations = check_info_dominance(system)
        assert len(violations) == 1
        assert "h0.1" in violations[0]


class TestStructureChecks:
    def converge(self, k=2, m=2, seed=1):
        sim, built, system = build(k=k, m=m, seed=seed)
        system.start()
        system.broadcast_stream(5, interval=0.5, start_at=2.0)
        assert system.run_until_delivered(5, timeout=120.0)
        assert run_to_quiescence(system, stable_window=10.0, timeout=120.0)
        return sim, built, system

    def test_quiescent_system_passes_everything(self):
        _, _, system = self.converge()
        assert check_all(system, quiescent=True) == []

    def test_tree_rooted_at_source(self):
        _, _, system = self.converge()
        assert check_is_tree_rooted_at_source(system) == []

    def test_single_leader_per_cluster(self):
        _, _, system = self.converge()
        assert check_single_leader_per_cluster(system) == []
        leaders = true_leaders(system)
        assert all(len(ls) == 1 for ls in leaders.values())

    def test_induces_cluster_tree(self):
        _, _, system = self.converge(k=3, m=3)
        assert check_induces_cluster_tree(system) == []

    def test_children_consistency(self):
        _, _, system = self.converge()
        assert check_children_consistency(system) == []

    def test_orphan_detected(self):
        _, _, system = build()
        # h1.0 claims a parent that doesn't list it.
        system.hosts[h("h1.0")].parent = h("h0.0")
        assert check_children_consistency(system)

    def test_multiple_leaders_detected(self):
        _, _, system = build(k=1, m=3)
        # Nobody has a parent yet: 3 leaders in the single cluster.
        violations = check_single_leader_per_cluster(system)
        assert len(violations) == 1


# ----------------------------------------------------------------------
# One table, every consumer, both backends
# ----------------------------------------------------------------------


def lay_cluster_tree(system):
    """Hand-set the quiescent cluster tree of a 2 x 2 deployment whose
    source is h0.0: every invariant holds."""
    edges = {"h0.1": "h0.0", "h1.0": "h0.0", "h1.1": "h1.0"}
    for child, parent in edges.items():
        system.hosts[h(child)].parent = h(parent)
        system.hosts[h(parent)].children.add(h(child))


def force_cycle(system):
    """A parent cycle while the reachable source is ahead."""
    system.hosts[h("h1.0")].parent = h("h1.1")
    system.hosts[h("h1.1")].parent = h("h1.0")
    system.source.info.add(3)


def force_child_ahead(system):
    system.hosts[h("h0.1")].info.add(5)


def force_two_leaders(system):
    system.hosts[h("h1.1")].parent = None


def force_unmirrored_child(system):
    system.hosts[h("h1.0")].children.discard(h("h1.1"))


#: invariant name -> (how to break it, the one violation it must show)
FORCED = {
    "no_harmful_cycles": (force_cycle, ("h1.0", "h1.1")),
    "info_dominance": (force_child_ahead, ("h0.1", "h0.0")),
    "single_leader_per_cluster": (force_two_leaders, ("h1.0", "h1.1")),
    "children_consistency": (force_unmirrored_child, ("h1.1", "h1.0")),
}


@pytest.mark.parametrize("name", list(FORCED))
def test_every_consumer_names_the_same_hosts(name):
    sim, _, system = build()
    lay_cluster_tree(system)
    assert check_all(system, quiescent=True) == []
    force, hosts = FORCED[name]
    force(system)
    messages = check_all(system, quiescent=True)
    monitor = InvariantMonitor(system, sample_period=1.0).start()
    sim.run(until=1.5)
    assert monitor.report().samples == 1
    sampled = [span.key for span in monitor.report().spans]
    contained = {r.invariant: set(r.violations)
                 for r in classify_containment(system, (), quiescent=True)}
    for inv in INVARIANTS:
        found = set(inv.violations(system))
        if inv.name == name:
            assert found == {hosts}
        assert {m for m in messages if m.startswith(inv.name + ":")} == {
            describe(inv, v) for v in found}
        assert contained[inv.name] == found
        if not inv.quiescent:
            assert {key[1:] for key in sampled if key[0] == inv.kind} == found


@pytest.mark.parametrize("name", list(FORCED))
def test_an_unopened_udp_deployment_reports_forced_violations(name):
    """Ground truth comes from the deployment, so the oracles run on a
    UDP deployment that never bound a socket."""
    system = UdpBroadcastSystem(cluster_names(2, 2))
    lay_cluster_tree(system)
    assert check_all(system, quiescent=True) == []
    force, hosts = FORCED[name]
    force(system)
    inv = next(inv for inv in INVARIANTS if inv.name == name)
    assert describe(inv, hosts) in check_all(system, quiescent=True)


class TestQuiescence:
    def test_times_out_when_stream_keeps_flowing(self):
        sim, built, system = build()
        system.start()
        system.broadcast_stream(1000, interval=1.0, start_at=1.0)
        assert not run_to_quiescence(system, stable_window=5.0, timeout=20.0)

    def test_validates_args(self):
        _, _, system = build()
        import pytest
        with pytest.raises(ValueError):
            run_to_quiescence(system, stable_window=0.0)
