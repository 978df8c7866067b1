"""End-to-end tests of intra-cluster cycle detection and breaking.

The paper (Section 4.3): a cycle within one cluster is detected when a
host walking its ancestors finds itself; "the host with the highest
static order number on the cycle shall detach from its parent and go
through the appropriate options for finding a new one."
"""

from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator
from repro.verify import find_parent_cycles


def engineer_cycle(system, names):
    """Force a parent cycle among the named hosts (in one cluster).

    Sets both the real parent pointers and everyone's p_i[] views so the
    very next attachment tick can detect it without waiting for INFO
    exchange to distribute the pointers.
    """
    hosts = [system.hosts[HostId(n)] for n in names]
    ring = {hosts[i].me: hosts[(i + 1) % len(hosts)].me
            for i in range(len(hosts))}
    for host in hosts:
        host.parent = ring[host.me]
        host._arm_parent_timer()
        for other in hosts:
            if other.me != host.me:
                host.maps.set_parent_view(other.me, ring[other.me])
        # Everyone is (correctly) believed to be in the same cluster.
        for other in hosts:
            host.cluster.observe(other.me, cost_bit=False)
    for host in hosts:
        system.hosts[ring[host.me]].children.add(host.me)


def test_cycle_broken_by_highest_order_member():
    sim = Simulator(seed=3)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=4, backbone="line")
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(8))
    # Cycle among three non-source hosts of cluster 1.
    names = ["h1.0", "h1.1", "h1.2"]
    engineer_cycle(system, names)
    assert find_parent_cycles(system)
    # Run the attachment tick on every cycle member once.
    breakers = []
    for name in names:
        host = system.hosts[HostId(name)]
        before = host.parent
        host._attachment_tick()
        if host.parent != before or host._pending is not None or \
                host.parent is None:
            breakers.append(name)
    # Exactly the highest-order member acted (detached and re-planned).
    orders = {n: system.source.order(HostId(n)) for n in names}
    highest = max(names, key=orders.get)
    assert breakers == [highest]
    assert sim.metrics.counter("proto.cycle.detected").value >= 1
    assert sim.metrics.counter("proto.cycle.broken").value == 1


def test_cycle_resolves_end_to_end_and_broadcast_continues():
    sim = Simulator(seed=3)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=4, backbone="line")
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(8))
    system.start()
    # Let the system converge, then sabotage cluster 1 with a cycle.
    system.broadcast_stream(5, interval=0.5, start_at=2.0)
    assert system.run_until_delivered(5, timeout=200.0)
    engineer_cycle(system, ["h1.0", "h1.1", "h1.2"])
    assert find_parent_cycles(system)
    # The protocol must dissolve the cycle and keep delivering.
    system.broadcast_stream(10, interval=1.0, start_at=sim.now + 1.0)
    assert system.run_until_delivered(15, timeout=300.0)
    sim.run(until=sim.now + 30.0)
    assert find_parent_cycles(system) == []


def test_lower_order_members_wait():
    sim = Simulator(seed=3)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=4, backbone="line")
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(8))
    names = ["h1.0", "h1.1", "h1.2"]
    engineer_cycle(system, names)
    orders = {n: system.source.order(HostId(n)) for n in names}
    lowest = min(names, key=orders.get)
    host = system.hosts[HostId(lowest)]
    parent_before = host.parent
    host._attachment_tick()
    assert host.parent == parent_before  # waiting for the highest-order host
    assert host._pending is None
