"""Drivers for the simulated network and the layers that tap or watch it:
a bare packet hop, the packet-chaos tap, one invariant-monitor sample."""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import RawPayload, make_packet, wan_of_lans
from repro.sim import Simulator

from . import per_op


def hop(budget_s: float) -> Dict[str, float]:
    """``HostPort.send`` to delivery over an idle path of three links
    (access, trunk, access) with no protocol on top; per link crossed."""
    packets = 2_000
    links = 3

    def make() -> Tuple[Simulator, Any, Any, list]:
        sim = Simulator(seed=1)
        sim.trace.enabled = False
        built = wan_of_lans(sim, clusters=2, hosts_per_cluster=1,
                            backbone="line")
        sim.run(until=1.0)  # routing has converged
        sender = built.network.host_port(built.hosts[0])
        received: list = []
        built.network.host_port(built.hosts[1]).set_receiver(received.append)
        return sim, sender, built.hosts[1], received

    def run(state: Tuple[Simulator, Any, Any, list]) -> None:
        sim, sender, dst, received = state
        payload = RawPayload()
        for i in range(packets):
            # Spaced wider than the trunk's transmission time: no queueing.
            sim.schedule(0.5 * i, sender.send, dst, payload)
        sim.run()
        if len(received) != packets:
            raise AssertionError("an idle loss-free path lost a packet")

    return {"net.hop_us": per_op(budget_s, make, run, packets * links) * 1e6}


def chaos_tap(budget_s: float) -> Dict[str, float]:
    """What an installed ``PacketChaos`` whose faults never fire adds to
    one inbound packet: tapped minus untapped delivery."""
    from repro.chaos import PacketChaos, PacketFaultSpec

    packets = 5_000

    def make(tapped: bool) -> Tuple[Any, list]:
        sim = Simulator(seed=1)
        sim.trace.enabled = False
        built = wan_of_lans(sim, clusters=1, hosts_per_cluster=2)
        port = built.network.host_port(built.hosts[1])
        port.set_receiver(lambda packet: None)
        if tapped:
            PacketChaos(sim, built.network, [PacketFaultSpec()]).start()
        return port, [make_packet(built.hosts[0], built.hosts[1])
                      for _ in range(packets)]

    def run(state: Tuple[Any, list]) -> None:
        port, inbound = state
        deliver = port.deliver_from_network
        for packet in inbound:
            deliver(packet)

    tapped = per_op(budget_s, lambda: make(True), run, packets)
    bare = per_op(budget_s, lambda: make(False), run, packets)
    return {"chaos.packets.tap_us": (tapped - bare) * 1e6}


def monitor_sample(budget_s: float) -> Dict[str, float]:
    """One ``InvariantMonitor`` sample over a formed 36-host tree, with the
    warm-up's trace retained (the monitor scans it for recoveries)."""
    from repro.verify import InvariantMonitor

    samples = 50
    sim = Simulator(seed=1)
    built = wan_of_lans(sim, clusters=6, hosts_per_cluster=6, backbone="line")
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(
        36, data_size_bits=4_000)).start()
    system.broadcast_stream(10, interval=1.0, start_at=2.0)
    system.run_until_delivered(10, timeout=600.0)
    # With the hosts' periodic tasks stopped and in-flight packets
    # drained, (nearly) the only events left are the monitor's samples.
    system.stop()
    sim.run(until=sim.now + 60.0)

    def make() -> Tuple[Simulator, InvariantMonitor]:
        return sim, InvariantMonitor(system).start()

    def run(state: Tuple[Simulator, InvariantMonitor]) -> None:
        sim, monitor = state
        sim.run(until=sim.now + samples * monitor.sample_period + 0.5)
        monitor.stop()
        if monitor.report().samples != samples:
            raise AssertionError("the monitor did not take the expected samples")

    return {"verify.monitor.sample_ms":
            per_op(budget_s, make, run, samples) * 1e3}


DRIVERS = (hop, chaos_tap, monitor_sample)
