"""Tests for the ChaosPlan orchestrator and its declarative spec."""

import pytest

from repro.chaos import (
    AdversarySpec,
    ChaosPlan,
    ChaosSpec,
    HostChurnSpec,
    HostOutageSpec,
    LinkChurnSpec,
    LinkOutageSpec,
    PacketFaultSpec,
    PartitionSpec,
    PartitionWindowSpec,
    ServerOutageSpec,
)
from repro.scenarios.partitions import WindowSpec
from repro.core import BroadcastSystem, ProtocolConfig
from repro.io.node import UdpBroadcastSystem, cluster_names
from repro.net import wan_of_lans
from repro.sim import Simulator


def build_system(seed=1, k=3, m=2, backbone="ring"):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                        backbone=backbone, convergence_delay=0.0)
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(k * m))
    return sim, built, system.start()


def test_spec_rejects_outage_past_heal_by():
    with pytest.raises(ValueError):
        ChaosSpec(heal_by=10.0,
                  host_outages=(HostOutageSpec("h0.1", 5.0, 12.0),))
    with pytest.raises(ValueError):
        ChaosSpec(heal_by=10.0,
                  link_outages=(LinkOutageSpec("s0", "s1", 5.0, 11.0),))


def test_spec_rejects_bad_windows_and_means():
    with pytest.raises(ValueError):
        ChaosSpec(heal_by=0.0)
    with pytest.raises(ValueError):
        ChaosSpec(heal_by=10.0,
                  server_outages=(ServerOutageSpec("s0", 5.0, 5.0),))
    with pytest.raises(ValueError):
        ChaosSpec(heal_by=10.0,
                  host_churn=(HostChurnSpec(("h0.1",), mean_up=0.0),))


def test_plan_applies_scheduled_outages():
    sim, built, system = build_system()
    spec = ChaosSpec(
        heal_by=20.0,
        host_outages=(HostOutageSpec("h1.0", 2.0, 6.0),),
        server_outages=(ServerOutageSpec("s2", 3.0, 7.0),),
        link_outages=(LinkOutageSpec("s0", "s1", 4.0, 8.0),),
    )
    ChaosPlan(sim, system, spec).start()
    sim.run(until=5.0)
    assert [str(h) for h in system.crashed_hosts()] == ["h1.0"]
    assert not built.network.servers["s2"].up
    assert not built.network.link("s0", "s1").up
    sim.run(until=9.0)
    assert system.crashed_hosts() == []
    assert built.network.servers["s2"].up
    assert built.network.link("s0", "s1").up


def test_plan_partition_spec():
    sim, built, system = build_system(k=3, m=1, backbone="line")
    groups = (("s0", "h0.0"), ("s1", "s2", "h1.0", "h2.0"))
    spec = ChaosSpec(heal_by=20.0,
                     partitions=(PartitionSpec(groups, 2.0, 6.0),))
    ChaosPlan(sim, system, spec).start()
    sim.run(until=3.0)
    assert len(built.network.partitions()) == 2
    sim.run(until=7.0)
    assert len(built.network.partitions()) == 1


def test_windowed_partition_spec_validation():
    groups = (("s0", "h0.0"), ("s1", "h1.0"))
    window = WindowSpec(period=5.0, width=1.0, first_open=2.0)
    with pytest.raises(ValueError):
        PartitionWindowSpec(groups[:1], window, until=10.0)  # one side
    with pytest.raises(ValueError):
        PartitionWindowSpec(groups, window, until=2.0)  # ends at first open
    with pytest.raises(ValueError):  # must end before the heal horizon
        ChaosSpec(heal_by=10.0, window_partitions=(
            PartitionWindowSpec(groups, window, until=10.0),))


def test_plan_windowed_partition_opens_and_heals():
    sim, built, system = build_system(k=2, m=1, backbone="line")
    spec = ChaosSpec(heal_by=20.0, window_partitions=(
        PartitionWindowSpec(
            groups=(("s0", "h0.0"), ("s1", "h1.0")),
            window=WindowSpec(period=6.0, width=2.0, first_open=3.0),
            until=15.0),))
    ChaosPlan(sim, system, spec).start()
    link = built.network.link("s0", "s1")
    sim.run(until=1.0)
    assert not link.up          # cut from the start until the first window
    sim.run(until=3.5)
    assert link.up              # first window [3, 5)
    sim.run(until=5.5)
    assert not link.up
    sim.run(until=9.5)
    assert link.up              # second window [9, 11)
    sim.run(until=13.5)
    assert not link.up
    sim.run(until=16.0)
    assert link.up              # force-healed past `until`


def test_plan_composed_chaos_is_deterministic_per_seed():
    # Window partitions and packet faults composed with churn: the
    # whole plan's observable behaviour is a function of the seed.
    def state_trace(seed):
        sim, built, system = build_system(seed=seed, k=3, m=1,
                                          backbone="line")
        spec = ChaosSpec(
            heal_by=30.0,
            window_partitions=(PartitionWindowSpec(
                groups=(("s0", "h0.0"), ("s1", "s2", "h1.0", "h2.0")),
                window=WindowSpec(period=8.0, width=2.0, first_open=2.0),
                until=26.0),),
            host_churn=(HostChurnSpec(("h1.0", "h2.0"),
                                      mean_up=5.0, mean_down=2.0),),
        )
        ChaosPlan(sim, system, spec).start()
        samples = []
        for t in range(1, 31):
            sim.schedule_at(float(t), lambda: samples.append((
                sim.now,
                tuple(sorted(str(h) for h in system.crashed_hosts())),
                tuple(sorted(str(name) for name, link
                             in built.network.links.items()
                             if not link.up)),
            )))
        sim.run(until=31.0)
        return samples

    first = state_trace(5)
    assert any(down for _, _, down in first)     # partitions happened
    assert any(crashed for _, crashed, _ in first)  # churn happened
    assert first == state_trace(5)
    assert first != state_trace(6)


def test_plan_heals_churn_by_horizon():
    sim, built, system = build_system()
    hosts = tuple(str(h) for h in built.hosts if h != system.source_id)
    links = tuple((a, b) for a, b in built.backbone)
    spec = ChaosSpec(
        heal_by=30.0,
        host_churn=(HostChurnSpec(hosts, mean_up=4.0, mean_down=3.0),),
        link_churn=(LinkChurnSpec(links, mean_up=4.0, mean_down=3.0),),
    )
    plan = ChaosPlan(sim, system, spec).start()
    sim.run(until=31.0)
    assert plan.healed
    assert system.crashed_hosts() == []
    assert all(link.up for link in built.network.links.values())
    # Healed means healed: no further churn transitions ever fire.
    crashes = sim.metrics.counter("proto.host.crash").value
    sim.run(until=120.0)
    assert system.crashed_hosts() == []
    assert sim.metrics.counter("proto.host.crash").value == crashes
    assert all(link.up for link in built.network.links.values())


def test_plan_is_deterministic_per_seed():
    hosts = ("h0.1", "h1.0", "h1.1")

    def fault_trace(seed):
        sim, built, system = build_system(seed=seed)
        links = tuple((a, b) for a, b in built.backbone)
        spec = ChaosSpec(
            heal_by=40.0,
            host_churn=(HostChurnSpec(hosts, mean_up=5.0, mean_down=2.0),),
            link_churn=(LinkChurnSpec(links, mean_up=5.0, mean_down=2.0),),
        )
        ChaosPlan(sim, system, spec).start()
        sim.run(until=41.0)
        return [(round(r.time, 9), r.kind, r.source)
                for r in sim.trace.records(kind="host.crash")]

    first = fault_trace(5)
    assert first  # churn actually happened
    assert first == fault_trace(5)
    assert first != fault_trace(6)


def test_plan_delivers_full_stream_after_heal():
    sim, built, system = build_system()
    hosts = tuple(str(h) for h in built.hosts if h != system.source_id)
    spec = ChaosSpec(
        heal_by=25.0,
        host_churn=(HostChurnSpec(hosts, mean_up=8.0, mean_down=3.0),),
    )
    ChaosPlan(sim, system, spec).start()
    system.broadcast_stream(10, interval=1.0, start_at=1.0)
    sim.run(until=26.0)
    assert system.run_until_delivered(10, timeout=400.0)


@pytest.mark.parametrize("backend", ["sim", "udp"])
@pytest.mark.parametrize("leg,spec", [
    ("host_outages", ChaosSpec(heal_by=10.0, host_outages=(
        HostOutageSpec("h9.9", 2.0, 4.0),))),
    ("host_churn", ChaosSpec(heal_by=10.0, host_churn=(
        HostChurnSpec(("h0.1", "h9.9")),))),
    ("packet_faults", ChaosSpec(heal_by=10.0, packet_faults=(
        PacketFaultSpec(dst="h9.9", drop_prob=1.0),))),
    ("packet_faults", ChaosSpec(heal_by=10.0, packet_faults=(
        PacketFaultSpec(src="h9.9", drop_prob=1.0),))),
])
def test_plan_rejects_unknown_hosts_at_start(backend, leg, spec):
    # Unopened UDP system: the check runs before any timer is armed.
    if backend == "sim":
        sim, built, system = build_system(k=2, m=2, backbone="line")
        runtime = sim
    else:
        system = UdpBroadcastSystem(cluster_names(2, 2))
        runtime = system.runtime
    with pytest.raises(ValueError, match=f"{leg} names 'h9.9'"):
        ChaosPlan(runtime, system, spec).start()


def test_plan_rejects_an_unknown_adversary_host():
    sim, built, system = build_system()
    spec = ChaosSpec(heal_by=10.0, adversaries=(
        AdversarySpec(host="h9.9", persona="stale_info"),))
    with pytest.raises(ValueError, match="adversaries names 'h9.9'"):
        ChaosPlan(sim, system, spec).start()
