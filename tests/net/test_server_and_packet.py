"""Unit tests for packets and server forwarding behavior (TTL, drops)."""

import pytest

from repro.net import HostId, Network, RawPayload, cheap_spec, make_packet
from repro.net.message import DEFAULT_TTL, Packet
from repro.net.routing import RoutingEngine
from repro.sim import Simulator


class TestPacket:
    def test_fork_shares_id_but_not_hops_list(self):
        packet = make_packet(HostId("a"), HostId("b"))
        dup = packet.fork()
        assert dup.packet_id == packet.packet_id
        assert dup.hops is not packet.hops

    def test_record_hop_decrements_ttl(self):
        from repro.net import LinkId, expensive_spec
        from repro.net.link import Link

        sim = Simulator()
        cheap = Link(sim, LinkId.of("x", "y"), cheap_spec())
        costly = Link(sim, LinkId.of("y", "z"), expensive_spec())
        packet = make_packet(HostId("a"), HostId("b"))
        assert packet.ttl == DEFAULT_TTL
        cheap.transmit(packet, "x", lambda p: None)
        assert packet.ttl == DEFAULT_TTL - 1
        assert not packet.cost_bit
        costly.transmit(packet, "y", lambda p: None)
        assert packet.ttl == DEFAULT_TTL - 2
        assert packet.cost_bit
        assert [str(h) for h in packet.hops] == ["x<->y", "y<->z"]

    def test_size_and_kind_delegate_to_payload(self):
        packet = make_packet(HostId("a"), HostId("b"),
                             RawPayload(kind="data", size_bits=777))
        assert packet.size_bits == 777
        assert packet.kind == "data"


class _LoopRouting(RoutingEngine):
    """Pathological engine: two servers forward every packet to each other."""

    def next_hop(self, at_server, dst_server):
        return {"a": "b", "b": "a"}[at_server]

    def on_topology_change(self):
        pass


class TestForwarding:
    def build(self):
        sim = Simulator(seed=0)
        network = Network(sim)
        network.add_server("a")
        network.add_server("b")
        network.connect("a", "b", cheap_spec())
        network.add_host(HostId("x"), "a")
        network.add_host(HostId("y"), "b")
        return sim, network

    def test_routing_loop_killed_by_ttl(self):
        sim, network = self.build()
        # Destination "z" exists on neither server; the loop engine
        # bounces the packet a<->b until the TTL runs out.
        network.add_server("c")
        network.add_host(HostId("z"), "c")
        network.use_routing(_LoopRouting())
        network.host_port(HostId("x")).send(HostId("z"), RawPayload())
        sim.run(until=30.0)
        assert sim.metrics.counter("net.drop.ttl_expired").value == 1
        # The loop really did consume about TTL hops, then stopped.
        assert sim.metrics.counter("net.link_tx.total").value <= DEFAULT_TTL + 2
        assert sim.pending == 0

    def test_unknown_host_drop_reason(self):
        sim, network = self.build()
        network.use_global_routing(convergence_delay=0.0)
        network.host_port(HostId("x")).send(HostId("ghost"), RawPayload())
        sim.run()
        assert sim.metrics.counter("net.drop.unknown_host").value == 1

    def test_processing_delay_adds_per_hop_latency(self):
        sim, network = self.build()
        network.use_global_routing(convergence_delay=0.0)
        got = []
        network.host_port(HostId("y")).set_receiver(lambda p: got.append(sim.now))
        network.host_port(HostId("x")).send(HostId("y"), RawPayload())
        sim.run()
        # access + processing + trunk + access; processing delay included.
        assert got[0] > 3 * 0.002

    def test_normal_delivery_leaves_ttl_headroom(self):
        sim, network = self.build()
        network.use_global_routing(convergence_delay=0.0)
        got = []
        network.host_port(HostId("y")).set_receiver(got.append)
        network.host_port(HostId("x")).send(HostId("y"), RawPayload())
        sim.run()
        assert got[0].ttl > DEFAULT_TTL - 5


class TestForwardMemo:
    """Server.receive memoizes the forward step per destination host,
    stamped with the routing generation."""

    def build(self):
        sim = Simulator(seed=0)
        network = Network(sim)
        for name in "abcd":
            network.add_server(name)
        # Two paths a -> d; the one through b is faster.
        network.connect("a", "b", cheap_spec(latency=0.001))
        network.connect("b", "d", cheap_spec(latency=0.001))
        network.connect("a", "c", cheap_spec(latency=0.01))
        network.connect("c", "d", cheap_spec(latency=0.01))
        network.add_host(HostId("x"), "a")
        network.add_host(HostId("y"), "d")
        network.use_global_routing(convergence_delay=1.0)
        got = []
        network.host_port(HostId("y")).set_receiver(got.append)
        return sim, network, got

    def test_link_failure_then_recompute_reroutes(self):
        sim, network, got = self.build()
        send = network.host_port(HostId("x")).send
        send(HostId("y"), RawPayload())
        sim.run(until=0.5)
        assert [str(h) for h in got[-1].hops] == ["a<->x", "a<->b", "b<->d", "d<->y"]

        # Stale tables: the memo still forwards via b, onto the dead link.
        network.set_link_state("b", "d", False)
        send(HostId("y"), RawPayload())
        sim.run(until=0.9)
        assert len(got) == 1
        assert sim.metrics.counter("net.drop.down").value == 1

        # Recompute bumps the generation; the next packet reroutes via c.
        sim.run(until=1.6)
        send(HostId("y"), RawPayload())
        sim.run(until=2.0)
        assert len(got) == 2
        assert [str(h) for h in got[-1].hops] == ["a<->x", "a<->c", "c<->d", "d<->y"]

    def test_swapping_the_engine_drops_the_memo(self):
        sim, network, got = self.build()
        send = network.host_port(HostId("x")).send
        send(HostId("y"), RawPayload())
        sim.run(until=0.5)
        network.use_routing(_LoopRouting())  # generation 0 again, new engine
        send(HostId("y"), RawPayload())
        sim.run(until=5.0)
        assert len(got) == 1
        assert sim.metrics.counter("net.drop.no_route").value == 0
        assert sim.metrics.counter("net.drop.ttl_expired").value == 1

