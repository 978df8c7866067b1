"""Tests for BroadcastSystem assembly and workload helpers."""

import pytest

from repro.core import BroadcastSystem, ClusterMode, ProtocolConfig
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator


def build(k=2, m=2, seed=0, **kwargs):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                        convergence_delay=0.0)
    return sim, built, BroadcastSystem(built, **kwargs)


def test_default_source_is_first_host():
    _, built, system = build()
    assert system.source_id == built.hosts[0]
    assert system.source.is_source


def test_explicit_source_selection():
    _, built, system = build(source=HostId("h1.0"))
    assert system.source_id == HostId("h1.0")
    assert system.hosts[HostId("h0.0")].is_source is False


def test_unknown_source_rejected():
    sim = Simulator(seed=0)
    built = wan_of_lans(sim, 2, 1, convergence_delay=0.0)
    with pytest.raises(ValueError):
        BroadcastSystem(built, source=HostId("nope"))


def test_source_has_highest_static_order():
    _, built, system = build()
    order = system.source.order
    assert all(order(h) < order(system.source_id)
               for h in built.hosts if h != system.source_id)


def test_broadcast_stream_validation():
    _, _, system = build()
    with pytest.raises(ValueError):
        system.broadcast_stream(5, interval=0.0)
    with pytest.raises(ValueError):
        system.broadcast_stream(-1, interval=1.0)


def test_broadcast_stream_custom_content():
    sim, _, system = build()
    system.broadcast_stream(3, interval=0.5, start_at=1.0,
                            content=lambda k: {"update": k})
    sim.run(until=3.0)
    assert system.source.deliveries.get(2).content == {"update": 2}


def test_run_until_delivered_times_out_honestly():
    sim, built, system = build()
    # Not started: nothing will ever deliver.
    system.broadcast_stream(1, interval=1.0, start_at=1.0)
    assert system.run_until_delivered(1, timeout=5.0) is False
    assert sim.now <= 6.0


def test_static_cluster_mode_seeds_ground_truth():
    _, built, system = build(
        config=ProtocolConfig(cluster_mode=ClusterMode.STATIC))
    h00 = system.hosts[HostId("h0.0")]
    assert HostId("h0.1") in h00.cluster
    assert HostId("h1.0") not in h00.cluster


def test_delivered_counts_and_children_view():
    sim, built, system = build()
    system.start()
    system.broadcast_stream(3, interval=0.5, start_at=1.0)
    assert system.run_until_delivered(3, timeout=60.0)
    counts = system.delivered_counts()
    assert all(v == 3 for v in counts.values())
    children = system.children_view()
    assert sum(len(c) for c in children.values()) >= len(built.hosts) - 1
