"""Unit tests for the link model: delay, failures, loss, dup, reorder."""

import pytest

from repro.net import LinkId, RawPayload, cheap_spec, expensive_spec, make_packet
from repro.net.link import Link
from repro.net.addressing import HostId
from repro.sim import Simulator


def make_link(spec, seed=0):
    sim = Simulator(seed=seed)
    link = Link(sim, LinkId.of("a", "b"), spec)
    return sim, link


def pkt(size_bits=1000):
    return make_packet(HostId("x"), HostId("y"), RawPayload(size_bits=size_bits))


def test_delivery_delay_is_latency_plus_tx_time():
    sim, link = make_link(cheap_spec(latency=0.5, bandwidth_bps=1000.0))
    got = []
    link.transmit(pkt(size_bits=1000), "a", lambda p: got.append(sim.now))
    sim.run()
    assert got == [pytest.approx(0.5 + 1.0)]


def test_serialization_queues_back_to_back_packets():
    sim, link = make_link(cheap_spec(latency=0.0, bandwidth_bps=1000.0))
    got = []
    for _ in range(3):
        link.transmit(pkt(size_bits=1000), "a", lambda p: got.append(sim.now))
    sim.run()
    assert got == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_opposite_directions_do_not_serialize():
    sim, link = make_link(cheap_spec(latency=0.0, bandwidth_bps=1000.0))
    got = []
    link.transmit(pkt(1000), "a", lambda p: got.append(("ab", sim.now)))
    link.transmit(pkt(1000), "b", lambda p: got.append(("ba", sim.now)))
    sim.run()
    assert got == [("ab", pytest.approx(1.0)), ("ba", pytest.approx(1.0))]


def test_cost_bit_set_only_on_expensive_links():
    sim, link = make_link(expensive_spec())
    got = []
    link.transmit(pkt(), "a", got.append)
    sim.run()
    assert got[0].cost_bit is True

    sim2, cheap_link = make_link(cheap_spec())
    got2 = []
    cheap_link.transmit(pkt(), "a", got2.append)
    sim2.run()
    assert got2[0].cost_bit is False


def test_cost_bit_sticks_across_later_cheap_hops():
    sim = Simulator()
    exp = Link(sim, LinkId.of("a", "b"), expensive_spec())
    chp = Link(sim, LinkId.of("b", "c"), cheap_spec())
    got = []
    exp.transmit(pkt(), "a", lambda p: chp.transmit(p, "b", got.append))
    sim.run()
    assert got[0].cost_bit is True
    assert [str(h) for h in got[0].hops] == ["a<->b", "b<->c"]


def test_down_link_drops_silently():
    sim, link = make_link(cheap_spec())
    link.set_down()
    got = []
    link.transmit(pkt(), "a", got.append)
    sim.run()
    assert got == []
    assert sim.metrics.counter("net.drop.down").value == 1


def test_set_down_loses_in_flight_packets():
    sim, link = make_link(cheap_spec(latency=5.0))
    got = []
    link.transmit(pkt(), "a", got.append)
    sim.schedule(1.0, link.set_down)
    sim.run()
    assert got == []


def test_set_up_after_down_resumes_delivery():
    sim, link = make_link(cheap_spec())
    link.set_down()
    link.set_up()
    got = []
    link.transmit(pkt(), "a", got.append)
    sim.run()
    assert len(got) == 1


def test_set_down_twice_is_idempotent():
    sim, link = make_link(cheap_spec())
    link.set_down()
    link.set_down()
    link.set_up()
    link.set_up()
    assert link.up


def test_loss_probability_one_drops_everything():
    sim, link = make_link(cheap_spec(loss_prob=1.0))
    got = []
    for _ in range(10):
        link.transmit(pkt(), "a", got.append)
    sim.run()
    assert got == []
    assert sim.metrics.counter("net.drop.loss").value == 10


def test_loss_probability_statistics():
    sim, link = make_link(cheap_spec(loss_prob=0.3, queue_limit=10_000), seed=42)
    got = []
    for _ in range(1000):
        link.transmit(pkt(), "a", got.append)
    sim.run()
    assert 620 <= len(got) <= 780  # ~700 expected


def test_duplication_delivers_twice_with_same_packet_id():
    sim, link = make_link(cheap_spec(dup_prob=1.0))
    got = []
    link.transmit(pkt(), "a", got.append)
    sim.run()
    assert len(got) == 2
    assert got[0].packet_id == got[1].packet_id
    assert got[0] is not got[1]


def test_reorder_jitter_can_invert_order():
    sim, link = make_link(cheap_spec(latency=0.001, reorder_jitter=1.0), seed=7)
    order = []
    for i in range(20):
        p = pkt()
        link.transmit(p, "a", lambda q, i=i: order.append(i))
    sim.run()
    assert sorted(order) == list(range(20))
    assert order != list(range(20))  # at least one inversion with this seed


def test_transmit_from_non_endpoint_raises():
    sim, link = make_link(cheap_spec())
    with pytest.raises(ValueError):
        link.transmit(pkt(), "zzz", lambda p: None)


def test_queue_length_tracks_outstanding():
    sim, link = make_link(cheap_spec(latency=0.0, bandwidth_bps=1000.0))
    for _ in range(3):
        link.transmit(pkt(1000), "a", lambda p: None)
    assert link.queue_length("a") == 3
    sim.run()
    assert link.queue_length("a") == 0


def test_transmission_counters():
    sim, link = make_link(expensive_spec())
    link.transmit(pkt(), "a", lambda p: None)
    sim.run()
    assert sim.metrics.counter("net.link_tx.total").value == 1
    assert sim.metrics.counter("net.link_tx.expensive").value == 1
    assert sim.metrics.counter("net.link_tx.kind.raw").value == 1


def test_set_down_loses_exactly_the_in_flight_copies():
    sim, link = make_link(cheap_spec(latency=1.0, dup_prob=1.0))
    prior = sim.pending
    got = []
    ab, ba = pkt(), pkt()
    link.transmit(ab, "a", got.append)  # plus its duplicate
    link.transmit(ba, "b", got.append)  # plus its duplicate
    assert (link.queue_length("a"), link.queue_length("b")) == (2, 2)
    assert sim.pending == prior + 4
    sim.schedule(0.5, link.set_down)
    sim.run(until=0.6)
    assert got == []
    assert sim.pending == prior
    assert (link.queue_length("a"), link.queue_length("b")) == (0, 0)
    assert sim.metrics.counter("net.drop.down").value == 4
    lost = [r.fields["packet"] for r in sim.trace.records(kind="link.drop_down")]
    assert sorted(lost) == sorted([ab.packet_id] * 2 + [ba.packet_id] * 2)

    # After repair the link behaves like a fresh one: no stale queue.
    link.set_up()
    fresh_sim, fresh = make_link(cheap_spec(latency=1.0, dup_prob=1.0))
    fresh_got = []
    after = pkt()
    link.transmit(after, "a", lambda p: got.append((p.packet_id, sim.now - 0.6)))
    fresh.transmit(pkt(), "a", lambda p: fresh_got.append(fresh_sim.now))
    sim.run()
    fresh_sim.run()
    assert [pid for pid, _ in got] == [after.packet_id] * 2
    assert [delay for _, delay in got] == pytest.approx(fresh_got)
    assert sim.metrics.counter("net.drop.down").value == 4
