"""The hop's hot-path contract (DESIGN.md §8 "One hop").

* A link direction is the transmitter.  Its arrival events (a
  duplicate's too) and a server's processing-delay step go onto the
  kernel heap through ``Simulator.post(sim.now + delay, ...)``, the
  push every ``schedule`` call ends in, so same-time events still run
  in scheduling order and ``events_executed`` counts what ``schedule``
  would have counted.
* ``set_down``/``set_up`` reach both directions; ``set_down`` cancels
  live entries with the check that raises on a dead one.
* A host port stamps a send as ``Network.local_time`` reads.
* Per-packet emits in ``repro.net`` and the basic source's per-retry
  emit are guarded by ``trace.active``: with the tracer off they never
  call ``Tracer.emit``, and the counters are what they always were.
"""

import pytest

from repro.baseline import BasicBroadcastSystem
from repro.net import (
    ClockModel,
    LinkId,
    Packet,
    RawPayload,
    cheap_spec,
    make_packet,
    wan_of_lans,
)
from repro.net.addressing import HostId
from repro.net.link import Link
from repro.net.server import Server
from repro.sim import EventAlreadyCancelledError, SchedulingInPastError, Simulator, Tracer

X, Y = HostId("x"), HostId("y")


def boom(*args, **kwargs):
    raise AssertionError("emit called with the tracer inactive")


def pkt(size_bits=1000):
    return make_packet(X, Y, RawPayload(size_bits=size_bits))


def two_clusters():
    """Two one-host clusters on a trunk, routes converged at t=1."""
    sim = Simulator(seed=0)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=1, backbone="line",
                        convergence_delay=0.0)
    sim.run(until=1.0)
    return sim, built


# -- in-place pushes --------------------------------------------------------


def test_same_time_events_run_in_scheduling_order():
    sim, built = two_clusters()
    network = built.network
    src, dst = built.hosts
    server = network.servers[network.server_of(src)]
    delay = Server.PROCESSING_DELAY
    link = Link(sim, LinkId.of("a", "b"), cheap_spec(latency=delay))
    log = []

    # Memoize the server's trunk step toward dst, then watch it fire.
    server._forward_step(Packet(src, dst, RawPayload()))
    _, deliver, step_delay = server._forward[dst]
    assert step_delay == delay
    server._forward[dst] = (lambda packet, deliver: log.append("server step"),
                            deliver, step_delay)

    def first():
        log.append("schedule 1")
        sim.call_soon(log.append, "call_soon")

    assert sim.pending == 0
    scheduled = sim.schedule(delay, first)
    packet = RawPayload(size_bits=0)  # no transmission time: due at now + latency
    link.transmit(make_packet(X, Y, packet), "a", lambda p: log.append("arrival"))
    arrival = link.direction("a").pending
    [arrival_entry] = arrival.values()
    server.receive(Packet(src, dst, RawPayload()))
    last = sim.schedule(delay, log.append, "schedule 2")
    assert sim.pending == 4

    assert type(arrival_entry) is list

    before = sim.events_executed
    sim.run(until=sim.now + 2 * delay)
    assert log == ["schedule 1", "arrival", "server step", "schedule 2", "call_soon"]
    assert sim.events_executed - before == 5
    assert sim.pending == 0


def test_post_gives_schedules_key_and_a_cancellable_plain_entry():
    sim = Simulator(seed=0)
    sim.schedule(0.25, lambda: None)
    sim.run()
    log = []
    sim.schedule(0.5, log.append, "scheduled")
    posted = sim.post(sim.now + 0.5, log.append, ("posted",))
    sim.schedule(0.5, log.append, "scheduled after")
    victim = sim.post(sim.now + 0.5, log.append, ("cancelled",))
    assert type(posted) is list
    sim.cancel(victim)
    with pytest.raises(EventAlreadyCancelledError):
        sim.cancel(victim)
    with pytest.raises(SchedulingInPastError):
        sim.post(sim.now - 0.1, print, ())
    sim.run()
    assert log == ["scheduled", "posted", "scheduled after"]
    assert sim.now == 0.75


def test_a_duplicate_arrives_one_transmission_time_later_on_the_same_path():
    sim = Simulator(seed=0)
    link = Link(sim, LinkId.of("a", "b"),
                cheap_spec(latency=1.0, bandwidth_bps=1000.0, dup_prob=1.0))
    arrived = []
    link.transmit(pkt(1000), "a", lambda p: arrived.append((sim.now, p)))
    entries = list(link.direction("a").pending.values())
    assert [type(e) for e in entries] == [list, list]
    assert link.queue_length("a") == link.queue_peak("a") == 2
    link.set_down()
    assert not any(sim.try_cancel(e) for e in entries)
    assert sim.metrics.counter("net.drop.down").value == 2

    link.set_up()
    original = pkt(1000)
    link.transmit(original, "a", lambda p: arrived.append((sim.now, p)))
    sim.run()
    # 1 s to send, 1 s latency; the copy follows one transmission time later.
    assert [t for t, _ in arrived] == [2.0, 3.0]
    assert arrived[0][1] is original and arrived[1][1] is not original
    assert arrived[1][1].hops == original.hops


def test_a_negative_transmission_time_is_scheduling_in_the_past():
    sim = Simulator(seed=0)
    link = Link(sim, LinkId.of("a", "b"), cheap_spec(latency=0.0))
    with pytest.raises(SchedulingInPastError):
        link.transmit(pkt(size_bits=-1000), "a", lambda p: None)


def test_a_non_endpoint_has_no_direction():
    sim = Simulator(seed=0)
    link = Link(sim, LinkId.of("a", "b"), cheap_spec())
    with pytest.raises(ValueError):
        link.transmit(pkt(), "zzz", lambda p: None)
    with pytest.raises(ValueError):
        link.direction("zzz")


def test_set_down_and_set_up_reach_both_directions():
    sim = Simulator(seed=0)
    link = Link(sim, LinkId.of("a", "b"), cheap_spec(latency=1.0, bandwidth_bps=1000.0))
    got = []
    for node in ("a", "b"):
        link.transmit(pkt(1000), node, got.append)  # busy until t=1
    link.set_down()
    assert [link.direction(n).up for n in ("a", "b")] == [False, False]
    assert [link.direction(n).busy_until for n in ("a", "b")] == [0.0, 0.0]
    for node in ("a", "b"):
        link.transmit(pkt(1000), node, got.append)
    # Two lost in flight, two sent onto the down link.
    assert sim.metrics.counter("net.drop.down").value == 4
    assert link.queue_length("a") == link.queue_length("b") == 0

    link.set_up()
    assert [link.direction(n).up for n in ("a", "b")] == [True, True]
    link.transmit(pkt(1000), "b", lambda p: got.append(sim.now))
    sim.run()
    assert got == [2.0]  # 1 s to send plus 1 s latency: no stale backlog


@pytest.mark.parametrize("skewed", [False, True])
def test_a_send_is_stamped_as_network_local_time_reads(skewed):
    sim, built = two_clusters()
    network = built.network
    src, dst = built.hosts
    if skewed:
        network.use_clocks(ClockModel(sim)).set_clock(src, offset=0.25, drift=0.01)
    port = network.host_port(src)
    sent = []
    port._uplink = lambda packet, deliver: sent.append(packet)
    port.send_raw(dst, RawPayload())
    [packet] = sent
    assert packet.sent_at == sim.now
    assert packet.stamped_at == network.local_time(src)
    assert (packet.stamped_at != sim.now) is skewed


# -- guarded per-packet emits ------------------------------------------------


def test_link_dup_and_down_losses_skip_an_inactive_tracer(monkeypatch):
    monkeypatch.setattr(Tracer, "emit", boom)
    sim = Simulator(seed=0)
    sim.trace.enabled = False
    link = Link(sim, LinkId.of("a", "b"), cheap_spec(latency=1.0, dup_prob=1.0))
    got = []
    for node in ("a", "b"):
        link.transmit(pkt(), node, got.append)  # plus a duplicate each
    sim.run(until=0.5)
    link.set_down()
    link.transmit(pkt(), "a", got.append)
    link.set_up()
    sim.run()
    assert got == []
    counters = sim.metrics.counters()
    assert counters["net.dup"] == 2
    assert counters["net.drop.down"] == 5
    assert counters["net.link_tx.total"] == 2
    assert counters["linktx.a<->b"] == 2


def test_server_drops_skip_an_inactive_tracer(monkeypatch):
    sim, built = two_clusters()
    sim.trace.enabled = False
    monkeypatch.setattr(Tracer, "emit", boom)
    src, dst = built.hosts
    server = built.network.servers[built.network.server_of(src)]
    server.receive(Packet(src, HostId("nowhere"), RawPayload()))
    server.receive(Packet(src, dst, RawPayload(), ttl=0))
    counters = sim.metrics.counters("net.drop.")
    assert counters == {"net.drop.unknown_host": 1, "net.drop.ttl_expired": 1}


# -- the basic source's retry tick ---------------------------------------------


def basic_with_unacked():
    """A basic deployment whose source has two messages unacked everywhere."""
    sim = Simulator(seed=0)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2, backbone="line",
                        convergence_delay=0.0)
    system = BasicBroadcastSystem(built)
    source = system.hosts[built.source]
    source.broadcast("m1")
    source.broadcast("m2")
    return sim, system, source


def test_a_retry_tick_on_an_inactive_tracer_never_emits(monkeypatch):
    sim, system, source = basic_with_unacked()
    sim.trace.enabled = False
    monkeypatch.setattr(Tracer, "emit", boom)
    monkeypatch.setattr(system.runtime, "trace", boom)
    sent = sim.metrics.counter("net.h2h.sent").value
    source._retry_tick()
    copies = 2 * len(source.receivers)
    assert sim.metrics.counter("basic.retransmissions").value == copies
    assert sim.metrics.counter("net.h2h.sent").value == sent + copies


def test_an_active_tracer_records_every_retry():
    sim, system, source = basic_with_unacked()
    first = source.receivers[0]
    source.unacked.discard((first, 2))
    source._retry_tick()
    retries = [(r.source, r.fields) for r in sim.trace.records(kind="basic.retry")]
    expected = [(str(source.me), {"target": str(host), "seq": seq})
                for host in source.receivers for seq in (1, 2)
                if (host, seq) != (first, 2)]
    assert retries == expected
    assert sim.metrics.counter("basic.retransmissions").value == len(expected)


def test_a_subscriber_alone_still_sees_every_retry():
    sim, system, source = basic_with_unacked()
    sim.trace.enabled = False
    seen = []
    sim.trace.subscribe("basic.", seen.append)
    source._retry_tick()
    assert len(seen) == 2 * len(source.receivers)
    assert all(record.kind == "basic.retry" for record in seen)
