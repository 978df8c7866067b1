"""Tests for the host's periodic activities: exchange targeting,
heartbeat timeout selection, and pruning across partial views."""

import pytest

from repro.core import BroadcastSystem, ProtocolConfig
from repro.core.seqnoset import SeqnoSet
from repro.net import DistanceVectorEngine, HostId, LinkFlapper, wan_of_lans
from repro.sim import Simulator


def build(k=2, m=2, seed=0, config=None):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                        convergence_delay=0.0)
    system = BroadcastSystem(built, config=config)
    return sim, built, system


class TestInfoExchangeTargeting:
    def test_intra_tick_sends_only_to_believed_cluster(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.0")]
        host.cluster.observe(HostId("h0.1"), cost_bit=False)
        host._info_intra_tick()
        sends = sim.trace.records(kind="net.host_send", source="h0.0")
        assert [r["dst"] for r in sends] == ["h0.1"]

    def test_inter_tick_sends_to_everyone_else(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.0")]
        host.cluster.observe(HostId("h0.1"), cost_bit=False)
        host._info_inter_tick()
        sends = sim.trace.records(kind="net.host_send", source="h0.0")
        assert sorted(r["dst"] for r in sends) == ["h1.0", "h1.1"]

    def test_exchange_rates_differ_between_scopes(self):
        config = ProtocolConfig(info_intra_period=0.5, info_inter_period=5.0,
                                info_jitter_frac=0.0)
        sim, built, system = build(config=config)
        system.start()
        sim.run(until=20.0)
        intra = sim.metrics.counter("proto.info.sent.intra").value
        inter = sim.metrics.counter("proto.info.sent.inter").value
        # Cluster views form quickly; intra rate must dominate per target.
        assert intra > inter


class TestParentTimeoutSelection:
    def test_in_cluster_parent_uses_intra_timeout(self):
        config = ProtocolConfig(parent_timeout_intra=1.5,
                                parent_timeout_inter=50.0)
        sim, built, system = build(config=config)
        host = system.hosts[HostId("h0.1")]
        host.cluster.observe(HostId("h0.0"), cost_bit=False)
        host.parent = HostId("h0.0")
        host._arm_parent_timer()
        built.network.set_link_state("h0.1", "s0", up=False)  # isolate
        sim.run(until=3.0)
        assert host.parent is None  # intra timeout (1.5 s) fired

    def test_out_of_cluster_parent_uses_inter_timeout(self):
        config = ProtocolConfig(parent_timeout_intra=1.5,
                                parent_timeout_inter=50.0)
        sim, built, system = build(config=config)
        host = system.hosts[HostId("h0.1")]
        host.parent = HostId("h1.0")  # not in (believed) cluster
        host._arm_parent_timer()
        built.network.set_link_state("h0.1", "s0", up=False)
        sim.run(until=10.0)
        assert host.parent == HostId("h1.0")  # inter timeout not yet due
        sim.run(until=60.0)
        assert host.parent is None


class TestPruningAcrossViews:
    def test_prefix_limited_by_slowest_peer(self):
        config = ProtocolConfig(enable_info_pruning=True)
        sim, built, system = build(config=config)
        host = system.hosts[HostId("h0.0")]
        for seq in range(1, 11):
            host.info.add(seq)
        # Two peers proved 1..10, one only 1..4, one never heard from.
        host.maps.apply_info(HostId("h0.1"), SeqnoSet.range(1, 10), None)
        host.maps.apply_info(HostId("h1.0"), SeqnoSet.range(1, 4), None)
        host._maybe_prune()
        assert host.info.floor == 0  # h1.1 unknown -> no pruning at all
        host.maps.apply_info(HostId("h1.1"), SeqnoSet.range(1, 10), None)
        host._maybe_prune()
        assert host.info.floor == 4  # limited by h1.0's proven prefix

    def test_pruning_never_uses_optimistic_marks(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.0")]
        for seq in range(1, 6):
            host.info.add(seq)
        for peer in ("h0.1", "h1.0", "h1.1"):
            for seq in range(1, 6):
                host.maps.note_sent(HostId(peer), seq)  # marks only
        host._maybe_prune()
        assert host.info.floor == 0


class TestProtocolOverDistanceVector:
    def test_delivery_with_message_driven_routing_and_churn(self):
        """The full stack the paper assumes: a real distributed routing
        protocol below, link churn, and the broadcast protocol above."""
        sim = Simulator(seed=13)
        built = wan_of_lans(sim, clusters=3, hosts_per_cluster=2,
                            backbone="ring")
        engine = DistanceVectorEngine(sim, built.network, period=0.5,
                                      max_age=3.0)
        built.network.use_routing(engine)
        flapper = LinkFlapper(sim, built.network, built.backbone,
                              mean_up=25.0, mean_down=5.0).start()
        system = BroadcastSystem(built,
                                 config=ProtocolConfig.for_scale(6)).start()
        system.broadcast_stream(20, interval=1.0, start_at=5.0)
        ok = system.run_until_delivered(20, timeout=500.0)
        flapper.stop()
        engine.stop()
        assert ok
