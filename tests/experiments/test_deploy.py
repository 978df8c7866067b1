"""``deploy``: the one place a protocol name becomes a started system."""

import pytest

from repro.baseline import BasicBroadcastSystem, EpidemicBroadcastSystem
from repro.core import BroadcastSystem, ProtocolConfig
from repro.experiments import PROTOCOLS, SWEEP_DATA_BITS, deploy
from repro.net import wan_of_lans
from repro.sim import Simulator


def build(seed=1, clusters=2, hosts_per_cluster=2):
    sim = Simulator(seed=seed)
    return wan_of_lans(sim, clusters=clusters,
                       hosts_per_cluster=hosts_per_cluster, backbone="line")


@pytest.mark.parametrize("protocol,cls", [
    ("tree", BroadcastSystem),
    ("basic", BasicBroadcastSystem),
    ("epidemic", EpidemicBroadcastSystem),
])
def test_each_name_builds_its_class_with_sweep_sized_data(protocol, cls):
    system = deploy(protocol, build())
    assert type(system) is cls
    assert SWEEP_DATA_BITS == 4_000
    assert system.config.data_size_bits == SWEEP_DATA_BITS
    # Started: a short stream is delivered without calling start().
    system.broadcast_stream(2, interval=1.0, start_at=1.0)
    assert system.run_until_delivered(2, timeout=120.0)


def test_tree_config_is_for_scale_over_the_topology_hosts():
    built = build(clusters=3, hosts_per_cluster=3)
    system = deploy("tree", built)
    assert system.config == ProtocolConfig.for_scale(
        9, data_size_bits=SWEEP_DATA_BITS)


def test_overrides_reach_the_config():
    tree = deploy("tree", build(), crash_stable_lag=3, adaptive=True)
    assert tree.config.crash_stable_lag == 3
    assert tree.config.adaptive is True
    basic = deploy("basic", build(), crash_stable_lag=2)
    assert basic.config.crash_stable_lag == 2
    epidemic = deploy("epidemic", build(), data_size_bits=8_000)
    assert epidemic.config.data_size_bits == 8_000


def test_unknown_name_lists_the_known_ones():
    with pytest.raises(ValueError, match="tree, basic, epidemic") as err:
        deploy("gossip", build())
    assert "'gossip'" in str(err.value)
    assert PROTOCOLS == ("tree", "basic", "epidemic")
