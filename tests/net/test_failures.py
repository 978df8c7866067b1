"""Tests for failure schedules, flappers, and partition scheduling."""

import pytest

from repro.net import (
    FailureSchedule,
    HostId,
    LinkFlapper,
    PartitionScheduler,
    ServerOutageSchedule,
    cut_links_between,
    host_group,
    wan_of_lans,
)
from repro.sim import Simulator


def build(k=3, m=2, backbone="line"):
    sim = Simulator(seed=1)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m, backbone=backbone,
                        convergence_delay=0.0)
    return sim, built


def test_schedule_applies_changes_at_times():
    sim, built = build(k=2, m=1)
    network = built.network
    schedule = FailureSchedule(sim, network)
    schedule.outage(5.0, 10.0, "s0", "s1")
    assert network.link("s0", "s1").up
    sim.run(until=6.0)
    assert not network.link("s0", "s1").up
    sim.run(until=11.0)
    assert network.link("s0", "s1").up


def test_outage_validates_interval():
    sim, built = build(k=2, m=1)
    with pytest.raises(ValueError):
        FailureSchedule(sim, built.network).outage(5.0, 5.0, "s0", "s1")


def test_overlapping_outages_compose():
    """The link stays down until the *last* covering outage ends; the
    first outage's repair must not revive it mid-way."""
    sim, built = build(k=2, m=1)
    network = built.network
    schedule = FailureSchedule(sim, network)
    schedule.outage(5.0, 10.0, "s0", "s1")
    schedule.outage(8.0, 15.0, "s0", "s1")
    sim.run(until=9.0)
    assert not network.link("s0", "s1").up
    sim.run(until=11.0)  # first outage ended; second still covers
    assert not network.link("s0", "s1").up
    sim.run(until=16.0)
    assert network.link("s0", "s1").up


def test_unmatched_repair_clamps_at_up():
    sim, built = build(k=2, m=1)
    network = built.network
    schedule = FailureSchedule(sim, network)
    schedule.up(2.0, "s0", "s1")  # repair with no matching outage
    schedule.outage(4.0, 6.0, "s0", "s1")
    sim.run(until=5.0)
    assert not network.link("s0", "s1").up
    sim.run(until=7.0)
    assert network.link("s0", "s1").up


def test_failure_schedule_emits_trace_and_counters():
    sim, built = build(k=2, m=1)
    schedule = FailureSchedule(sim, built.network)
    schedule.outage(2.0, 4.0, "s0", "s1")
    sim.run(until=5.0)
    applies = sim.trace.records(kind="failure.apply")
    assert [(r.fields["a"], r.fields["b"], r.fields["up"])
            for r in applies] == [("s0", "s1", False), ("s0", "s1", True)]
    assert sim.metrics.counter("net.failures.link.down").value == 1
    assert sim.metrics.counter("net.failures.link.up").value == 1


def test_server_outage_emits_trace_and_counters():
    sim, built = build(k=2, m=1)
    network = built.network
    schedule = ServerOutageSchedule(sim, network)
    schedule.outage(2.0, 4.0, "s1")
    sim.run(until=3.0)
    assert not network.servers["s1"].up
    sim.run(until=5.0)
    assert network.servers["s1"].up
    applies = sim.trace.records(kind="failure.apply")
    assert [(r.fields["server"], r.fields["up"]) for r in applies] == [
        ("s1", False), ("s1", True)]
    assert sim.metrics.counter("net.failures.server.down").value == 1
    assert sim.metrics.counter("net.failures.server.up").value == 1


def test_cut_links_between_finds_crossing_links():
    sim, built = build(k=3, m=1, backbone="line")
    cut = cut_links_between(built.network, ["s0", "h0.0"], ["s1", "s2", "h1.0", "h2.0"])
    assert cut == [("s0", "s1")]


def test_partition_scheduler_isolates_and_heals():
    sim, built = build(k=3, m=2, backbone="line")
    network = built.network
    scheduler = PartitionScheduler(sim, network)
    group = host_group(network, built.clusters[0])
    cut = scheduler.isolate(group, start=2.0, end=8.0)
    assert cut == [("s0", "s1")]
    sim.run(until=3.0)
    assert len(network.partitions()) == 2
    sim.run(until=9.0)
    assert len(network.partitions()) == 1


def test_partition_into_three_groups():
    sim, built = build(k=3, m=1, backbone="mesh")
    network = built.network
    scheduler = PartitionScheduler(sim, network)
    groups = [host_group(network, [h]) for h in built.hosts]
    cut = scheduler.partition(groups, start=1.0, end=5.0)
    assert len(cut) == 3  # mesh of 3 clusters
    sim.run(until=2.0)
    assert len(network.partitions()) == 3
    sim.run(until=6.0)
    assert len(network.partitions()) == 1


def test_host_group_includes_server():
    sim, built = build(k=2, m=2)
    group = host_group(built.network, [HostId("h0.0"), HostId("h0.1")])
    assert group == ["h0.0", "h0.1", "s0"]


def test_flapper_produces_transitions_and_is_deterministic():
    def run(seed):
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, 2, 1, backbone="line", convergence_delay=0.0)
        flapper = LinkFlapper(sim, built.network, [("s0", "s1")],
                              mean_up=5.0, mean_down=1.0)
        flapper.start()
        sim.run(until=100.0)
        downs = built.network.sim.trace.count("link.down")
        ups = built.network.sim.trace.count("link.up")
        return downs, ups

    downs, ups = run(3)
    assert downs > 5
    assert abs(downs - ups) <= 1
    assert run(3) == (downs, ups)


def test_flapper_same_seed_identical_event_sequence():
    """Same seed ⇒ the identical timed sequence of link transitions
    (the flapper draws from a dedicated RNG stream, so unrelated
    randomness elsewhere cannot perturb the churn)."""
    def sequence(seed):
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, 3, 1, backbone="ring", convergence_delay=0.0)
        LinkFlapper(sim, built.network, built.backbone,
                    mean_up=4.0, mean_down=2.0).start()
        sim.run(until=60.0)
        return [(round(r.time, 9), r.kind, tuple(sorted(r.fields.items())))
                for r in sim.trace.records(kind="link.")]

    first = sequence(9)
    assert first
    assert first == sequence(9)
    assert first != sequence(10)


def test_flapper_stop_halts_transitions():
    sim = Simulator(seed=4)
    built = wan_of_lans(sim, 2, 1, backbone="line", convergence_delay=0.0)
    flapper = LinkFlapper(sim, built.network, [("s0", "s1")],
                          mean_up=1.0, mean_down=1.0).start()
    sim.run(until=10.0)
    flapper.stop()
    count_at_stop = sim.trace.count("link.down")
    sim.run(until=100.0)
    assert sim.trace.count("link.down") == count_at_stop


def test_flapper_validates_means():
    sim = Simulator()
    built = wan_of_lans(sim, 2, 1, convergence_delay=0.0)
    with pytest.raises(ValueError):
        LinkFlapper(sim, built.network, [("s0", "s1")], mean_up=0.0)


def test_flapper_stop_cancels_pending_transitions():
    """stop() must cancel already-armed fail/repair timers, not just
    gate them — an armed timer could down a link after heal()."""
    sim = Simulator(seed=4)
    built = wan_of_lans(sim, 2, 1, backbone="line", convergence_delay=0.0)
    flapper = LinkFlapper(sim, built.network, [("s0", "s1")],
                          mean_up=1.0, mean_down=1.0).start()
    sim.run(until=10.0)
    pending = list(flapper._pending.values())
    assert pending
    flapper.stop()
    assert not flapper._pending
    assert not any(sim.try_cancel(event) for event in pending)
    downs = sim.trace.count("link.down")
    ups = sim.trace.count("link.up")
    sim.run(until=200.0)
    assert sim.trace.count("link.down") == downs
    assert sim.trace.count("link.up") == ups
