"""The host data path's hot-path contract (DESIGN.md §8 "Per-packet
fixed cost").

* With the tracer inactive, accepting and forwarding data never calls
  ``Tracer.emit``: every per-delivery and per-packet emit is guarded by
  ``trace_sink.active``.
* Metric handles are registered at their first real use, so a host
  that delivers but never forwards registers no forward counter.
* A subclass of ``DataMsg`` or ``InfoMsg`` still reaches its handler
  through ``_on_packet``'s ``isinstance`` chain.
* The UDP transport's in-place counter increments leave the
  ``net.h2h.*`` counters of a fixed exchange where ``inc()`` left them.
"""

import asyncio
import types

from repro.core import BroadcastSystem, DataMsg, InfoMsg, SeqnoSet
from repro.core import wire
from repro.io import AsyncioRuntime, UdpTransport
from repro.net import HostId, Packet, RawPayload, wan_of_lans
from repro.sim import Simulator, Tracer

PARENT, ME, CHILD = HostId("h0.0"), HostId("h0.1"), HostId("h0.2")


def build_system():
    sim = Simulator(seed=0)
    built = wan_of_lans(sim, clusters=1, hosts_per_cluster=3,
                        convergence_delay=0.0)
    return sim, BroadcastSystem(built)


def data(seq, gapfill=False):
    return DataMsg(seq=seq, content=f"m{seq}", created_at=0.0, origin=PARENT,
                   gapfill=gapfill)


def arrive(host, sender, payload):
    host._on_packet(Packet(src=sender, dst=host.me, payload=payload))


def test_an_inactive_tracer_is_never_called_on_the_data_path(monkeypatch):
    sim, system = build_system()
    sim.trace.enabled = False
    assert not sim.trace.active

    def boom(*args, **kwargs):
        raise AssertionError("emit called with the tracer inactive")

    monkeypatch.setattr(Tracer, "emit", boom)
    monkeypatch.setattr(system.runtime, "trace", boom)
    source, host = system.hosts[PARENT], system.hosts[ME]
    source.children.add(ME)
    host.parent = PARENT
    host.children.add(CHILD)
    source.broadcast("m1")                     # source record + forward
    arrive(host, PARENT, data(3))              # new maximum: deliver, forward
    arrive(host, CHILD, data(2, gapfill=True))  # a hole: deliver, relay
    arrive(host, PARENT, data(3))              # duplicate discard
    arrive(host, CHILD, data(9))               # not from the parent: discard
    host._fill_gaps_of(CHILD)                  # gap-fill sends
    # The packets cross the network; cold paths such as the parent
    # timeout may emit unguarded, so stop before it can fire.
    sim.run(until=host.config.parent_timeout_intra / 2)
    assert 3 in host.deliveries and 2 in host.deliveries
    counters = sim.metrics.counters()
    assert counters["proto.data.forwarded"] >= 2
    assert counters["proto.gapfill.sent"] >= 1


def test_a_host_that_never_forwards_registers_no_forward_counter():
    sim, system = build_system()
    host = system.hosts[ME]
    host.parent = PARENT  # and no children
    arrive(host, PARENT, data(1))
    counters = sim.metrics.counters("proto.")
    assert counters["proto.deliver"] == 1
    assert "proto.data.forwarded" not in counters
    assert "proto.info.sent.intra" not in counters
    assert "proto.info.sent.inter" not in counters


def subclass_of(base, monkeypatch):
    """A wire subclass of ``base`` with the same fields, kept out of the
    frame decoder table."""
    monkeypatch.setattr(wire, "_DECODERS", dict(wire._DECODERS))
    fields = {"__slots__": (), "__annotations__": dict(base.__annotations__)}
    return types.new_class(f"Sub{base.__name__}", (base,),
                           {"tag": 250, "name": f"sub_{base.__name__}"},
                           lambda namespace: namespace.update(fields))


def test_a_data_subclass_reaches_the_data_handler(monkeypatch):
    sim, system = build_system()
    host = system.hosts[ME]
    host.parent = PARENT
    sub = subclass_of(DataMsg, monkeypatch)
    msg = sub(1, "m1", 0.0, PARENT, False, 8_000, -1)  # -1: compute checksum
    assert type(msg) is not DataMsg and wire.checksum_ok(msg)
    arrive(host, PARENT, msg)
    assert 1 in host.deliveries


def test_an_info_subclass_reaches_the_info_handler(monkeypatch):
    sim, system = build_system()
    host = system.hosts[ME]
    sub = subclass_of(InfoMsg, monkeypatch)
    msg = sub(PARENT, SeqnoSet([1, 2]), None, 1_000, 0.5, -1.0, 0.0, 7, -1)
    assert type(msg) is not InfoMsg and wire.checksum_ok(msg)
    arrive(host, PARENT, msg)
    assert host.maps.info_of(PARENT) == SeqnoSet([1, 2])


def test_a_fixed_udp_exchange_counts_what_it_always_counted():
    a, b = HostId("a"), HostId("b")
    payloads = [DataMsg(seq=1, content="m1", created_at=0.0, origin=a),
                DataMsg(seq=2, content="m2", created_at=0.0, origin=a,
                        gapfill=True),
                InfoMsg(sender=a, info=SeqnoSet([1, 2]), parent=None, stamp=0.5),
                RawPayload(content="ping", size_bits=64)]

    async def exchange():
        runtime = AsyncioRuntime(seed=0, time_scale=0.05, trace=False)
        ta = UdpTransport(runtime, a, peers={})
        tb = UdpTransport(runtime, b, peers={})
        await ta.open(("127.0.0.1", 0))
        await tb.open(("127.0.0.1", 0))
        try:
            peers = {a: ta.local_address, b: tb.local_address}
            ta.set_peers(peers)
            tb.set_peers(peers)
            got = []
            tb.set_receiver(got.append)
            ta.set_receiver(lambda packet: None)
            for payload in payloads:
                ta.send(b, payload)
            tb.send(a, RawPayload())
            for _ in range(500):
                if len(got) == len(payloads) and runtime.metrics.counter(
                        "net.h2h.recv").value == len(payloads) + 1:
                    break
                await asyncio.sleep(0.005)
            return runtime.metrics.counters("net.h2h.")
        finally:
            ta.close()
            tb.close()

    # What the transport counted with ``inc()``: frames of 50, 50, 86
    # and 33 B from a to b, and a 29-B raw frame back.
    assert asyncio.run(exchange()) == {
        "net.h2h.recv": 5.0,
        "net.h2h.recv.bytes": 248.0,
        "net.h2h.recv.kind.control": 1.0,
        "net.h2h.recv.kind.data": 2.0,
        "net.h2h.recv.kind.raw": 2.0,
        "net.h2h.sent": 5.0,
        "net.h2h.sent.bytes": 248.0,
        "net.h2h.sent.kind.control": 1.0,
        "net.h2h.sent.kind.data": 2.0,
        "net.h2h.sent.kind.raw": 2.0,
    }
