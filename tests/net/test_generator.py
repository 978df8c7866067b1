"""Tests for topology generators."""

import pytest

from repro.net import (
    HostId,
    RawPayload,
    hierarchical_wan,
    line_topology,
    random_topology,
    star_topology,
    wan_of_lans,
)
from repro.net.link import expensive_spec
from repro.sim import Simulator


@pytest.mark.parametrize("backbone", ["tree", "ring", "star", "line", "mesh"])
def test_wan_of_lans_shapes_are_connected(backbone):
    sim = Simulator(seed=2)
    built = wan_of_lans(sim, clusters=4, hosts_per_cluster=2, backbone=backbone,
                        convergence_delay=0.0)
    network = built.network
    assert len(built.hosts) == 8
    assert len(network.partitions()) == 1
    assert len(network.true_clusters()) == 4


def test_wan_of_lans_backbone_link_counts():
    sim = Simulator(seed=2)
    for backbone, expected in [("tree", 3), ("ring", 4), ("star", 3),
                               ("line", 3), ("mesh", 6)]:
        built = wan_of_lans(Simulator(seed=2), 4, 1, backbone=backbone,
                            convergence_delay=0.0)
        assert len(built.backbone) == expected, backbone


def test_two_cluster_ring_is_its_one_trunk():
    wan = wan_of_lans(Simulator(seed=2), 2, 2, backbone="ring",
                      convergence_delay=0.0)
    assert wan.backbone == [("s0", "s1")]
    hier = hierarchical_wan(Simulator(seed=2), 2, 2, 1, backbone="ring",
                            convergence_delay=0.0)
    assert hier.backbone == [("s0.0", "s1.0")]
    for built in (wan, hier):
        assert len(built.network.partitions()) == 1


def test_wan_of_lans_backbone_is_expensive():
    sim = Simulator(seed=0)
    built = wan_of_lans(sim, 3, 1, backbone="line", convergence_delay=0.0)
    for a, b in built.backbone:
        assert built.network.link(a, b).spec.expensive


def test_wan_of_lans_source_is_first_host():
    built = wan_of_lans(Simulator(seed=0), 2, 2, convergence_delay=0.0)
    assert built.source == HostId("h0.0")


def test_wan_of_lans_validates_args():
    with pytest.raises(ValueError):
        wan_of_lans(Simulator(), 0, 1)
    with pytest.raises(ValueError):
        wan_of_lans(Simulator(), 1, 0)
    with pytest.raises(ValueError):
        wan_of_lans(Simulator(), 2, 1, backbone="donut")


def test_wan_of_lans_tree_is_deterministic_per_seed():
    first = wan_of_lans(Simulator(seed=5), 6, 1, backbone="tree").backbone
    second = wan_of_lans(Simulator(seed=5), 6, 1, backbone="tree").backbone
    third = wan_of_lans(Simulator(seed=6), 6, 1, backbone="tree").backbone
    assert first == second
    assert first != third


def test_line_topology_delivery_end_to_end():
    sim = Simulator(seed=0)
    built = line_topology(sim, 4, convergence_delay=0.0)
    got = []
    built.network.host_port(HostId("h3")).set_receiver(got.append)
    built.network.host_port(HostId("h0")).send(HostId("h3"), RawPayload())
    sim.run()
    assert len(got) == 1


def test_line_topology_cluster_layout_depends_on_spec():
    cheap_line = line_topology(Simulator(), 3)
    assert len(cheap_line.clusters) == 1
    exp_line = line_topology(Simulator(), 3, spec=expensive_spec())
    assert len(exp_line.clusters) == 3


def test_star_topology_structure():
    sim = Simulator(seed=0)
    built = star_topology(sim, 5, convergence_delay=0.0)
    assert len(built.network.servers) == 6  # hub + 5 leaves
    assert len(built.network.partitions()) == 1


def test_random_topology_is_connected_and_deterministic():
    built1 = random_topology(Simulator(seed=9), n_servers=8, n_hosts=6, extra_links=4)
    built2 = random_topology(Simulator(seed=9), n_servers=8, n_hosts=6, extra_links=4)
    assert len(built1.network.partitions()) == 1
    assert sorted(map(str, built1.network.links)) == sorted(map(str, built2.network.links))


def test_random_topology_hosts_round_robin():
    built = random_topology(Simulator(seed=1), n_servers=3, n_hosts=6)
    assert built.network.server_of(HostId("h0")) == "s0"
    assert built.network.server_of(HostId("h4")) == "s1"


def test_generators_validate_args():
    with pytest.raises(ValueError):
        line_topology(Simulator(), 0)
    with pytest.raises(ValueError):
        star_topology(Simulator(), 0)
    with pytest.raises(ValueError):
        random_topology(Simulator(), 0, 1)
