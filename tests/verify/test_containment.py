"""Tests for per-invariant containment classification under adversaries."""

from repro.core import BroadcastSystem, ProtocolConfig
from repro.io import UdpBroadcastSystem, cluster_names
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator
from repro.verify import (CONTAINMENT_STATUSES, InvariantContainment,
                          classify_containment, classify_spans, span_hosts,
                          worst_status)
from repro.verify.containment import _classify
from repro.verify.monitor import ViolationSpan


def _span(kind, *hosts, stable=True, unresolved=False):
    return ViolationSpan(key=(kind, *hosts), first_seen=1.0, last_seen=30.0,
                         stable=stable, unresolved_at_end=unresolved)


def test_classify_statuses():
    adv = frozenset({"h1.1"})
    assert _classify("x", [], adv).status == "holds_globally"
    assert _classify("x", [("h1.1", "h1.0")], adv).status == \
        "holds_correct_only"
    assert _classify("x", [("h0.1", "h1.0")], adv).status == "broken"
    # one contained violation does not excuse an uncontained one
    assert _classify("x", [("h1.1",), ("h0.1",)], adv).status == "broken"


def test_contained_property_and_worst_status():
    results = (InvariantContainment("a", "holds_globally"),
               InvariantContainment("b", "holds_correct_only",
                                    ((("h1.1",),))),
               InvariantContainment("c", "broken", ((("h0.1",),))))
    assert results[0].contained and results[1].contained
    assert not results[2].contained
    assert worst_status(results) == "broken"
    assert worst_status(results[:2]) == "holds_correct_only"
    assert worst_status(()) == "holds_globally"
    assert tuple(CONTAINMENT_STATUSES) == (
        "holds_globally", "holds_correct_only", "broken")


def test_span_attribution_is_structural():
    span = _span("info_dominance", "h1.0", "h1.1")
    assert span_hosts(span) == ("h1.0", "h1.1")


def test_classify_spans_filters_transients_and_seeds_kinds():
    spans = [
        _span("info_dominance", "h1.0", "h1.1"),             # stable
        _span("info_dominance", "h0.1", "h0.0", stable=False),  # transient
        _span("harmful_cycle", "h2.0", "h2.1", stable=False,
              unresolved=True),                               # open at end
    ]
    results = {r.invariant: r for r in classify_spans(spans, {"h1.1"})}
    # transient wobble among correct hosts is not a broken verdict
    assert results["info_dominance"].status == "holds_correct_only"
    # an unresolved-at-end span counts even though it never went stable
    assert results["harmful_cycle"].status == "broken"
    # both monitored kinds always report, even with no spans at all
    empty = {r.invariant: r.status for r in classify_spans([], ())}
    assert empty == {"harmful_cycle": "holds_globally",
                     "info_dominance": "holds_globally"}


def test_classify_containment_on_a_healthy_live_system():
    sim = Simulator(seed=11)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                        backbone="line")
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(4)).start()
    n = 5
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    assert system.run_until_delivered(n, timeout=120.0)
    results = classify_containment(system, adversaries=(), quiescent=True,
                                   n=n)
    names = {r.invariant for r in results}
    assert names == {"no_harmful_cycles", "info_dominance",
                     "single_leader_per_cluster", "children_consistency",
                     "delivery"}
    assert worst_status(results) == "holds_globally"


def test_delivery_invariant_is_contained_when_only_adversaries_starve():
    sim = Simulator(seed=11)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                        backbone="line")
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(4)).start()
    n = 5
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    sim.run(until=60.0)
    # Pretend a host that did deliver everything is an adversary and a
    # fully-delivered run has no delivery violations at all.
    results = {r.invariant: r for r in classify_containment(
        system, adversaries={"h1.0"}, n=n)}
    assert results["delivery"].status == "holds_globally"


def test_classify_containment_on_an_unopened_udp_deployment():
    """Ground truth is the deployment's: its static clusters, and every
    pair reachable.  No socket is bound and no host runs."""
    system = UdpBroadcastSystem(cluster_names(2, 2))
    system.hosts[HostId("h1.0")].parent = HostId("h1.1")
    system.hosts[HostId("h1.1")].parent = HostId("h1.0")
    system.source.info.add(3)  # the source is ahead of the cycle
    results = {r.invariant: r for r in classify_containment(
        system, adversaries={"h1.1"}, quiescent=True)}
    assert results["no_harmful_cycles"].violations == (("h1.0", "h1.1"),)
    assert results["no_harmful_cycles"].status == "holds_correct_only"
    # cluster 0 has two leaders (nobody has a parent); cluster 1 has
    # none, so its members are named
    assert results["single_leader_per_cluster"].violations == (
        ("h0.0", "h0.1"), ("h1.0", "h1.1"))
    assert results["single_leader_per_cluster"].status == "broken"
    assert results["info_dominance"].status == "holds_globally"


def test_an_adversary_cycle_leaving_its_cluster_leaderless_is_contained():
    """A cycle the adversary built inside its own cluster is the only
    violation: the leaderless cluster names its members, one of them
    the adversary, so every invariant holds for the correct hosts."""
    system = UdpBroadcastSystem(cluster_names(2, 2))
    hosts = system.hosts
    h00, h01, h10, h11 = (HostId(n) for n in ("h0.0", "h0.1", "h1.0", "h1.1"))
    hosts[h01].parent = h00
    hosts[h00].children.add(h01)
    hosts[h10].parent, hosts[h11].parent = h11, h10
    hosts[h10].children.add(h11)
    hosts[h11].children.add(h10)
    results = {r.invariant: r for r in classify_containment(
        system, adversaries={"h1.1"}, quiescent=True)}
    assert results["single_leader_per_cluster"].violations == (
        ("h1.0", "h1.1"),)
    assert results["single_leader_per_cluster"].status == "holds_correct_only"
    assert worst_status(results.values()) == "holds_correct_only"
