"""Retained trace rows: every reader gets back exactly what was emitted.

The tracer keeps one flat tuple per retained record and builds a
:class:`TraceRecord` only when something reads it.  A subscriber sees
each record at emit time, built from the emit itself, so comparing its
capture with the read side checks the round trip through the rows.
"""

import gc
import sys

import pytest

from repro.chaos import ChaosPlan, ChaosSpec, HostOutageSpec, PacketFaultSpec
from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import wan_of_lans
from repro.sim import Simulator, summarize_kinds


def chaos_run(retain_last=None):
    """A seeded chaos run whose whole stream a subscriber also captured."""
    sim = Simulator(seed=7)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=3,
                        backbone="line", convergence_delay=0.0)
    system = BroadcastSystem(built,
                             config=ProtocolConfig.for_scale(6)).start()
    captured = []
    sim.trace.subscribe("", captured.append)
    if retain_last is not None:
        sim.trace.retain_last(retain_last)
    ChaosPlan(sim, system, ChaosSpec(
        heal_by=15.0,
        host_outages=(HostOutageSpec("h1.1", 3.0, 8.0),),
        packet_faults=(PacketFaultSpec(drop_prob=0.1, corrupt_prob=0.1,
                                       dup_prob=0.1, start=1.0),),
    )).start()
    system.broadcast_stream(6, interval=1.0, start_at=2.0)
    sim.run(until=40.0)
    return sim, captured


@pytest.fixture(scope="module")
def run():
    return chaos_run()


def test_the_read_side_equals_what_subscribers_saw(run):
    sim, captured = run
    assert len(captured) > 1000
    assert list(sim.trace) == captured
    kinds = summarize_kinds(captured)
    assert {"host.crash", "chaos.packet.drop", "host.deliver"} <= set(kinds)
    assert summarize_kinds(sim.trace) == kinds


@pytest.mark.parametrize("query", [
    dict(kind="host."),
    dict(kind="host.deliver", source="h1.0"),
    dict(kind=("host.crash", "host.recover")),
    dict(since=12.5),
    dict(kind="net.host_send", payload_kind="data"),
    dict(kind="host.deliver", seq=3, gapfill=True),
    dict(source="h0.1", dst="h1.2"),
    dict(no_such_field=None),
])
def test_records_filters_like_a_scan_of_the_captured_stream(run, query):
    sim, captured = run
    query = dict(query)
    kind = query.pop("kind", None)
    source = query.pop("source", None)
    since = query.pop("since", float("-inf"))
    expected = [r for r in captured
                if (kind is None or r.kind.startswith(kind))
                and (source is None or r.source == source)
                and r.time >= since
                and all(r.get(k) == v for k, v in query.items())]
    got = sim.trace.records(kind=kind, source=source, since=since, **query)
    assert got == expected
    if source is None and since == float("-inf"):
        assert sim.trace.count(kind=kind, **query) == len(expected)


def test_last_is_the_newest_capture_of_the_kind(run):
    sim, captured = run
    for kind in ("host.deliver", "chaos.", "net.host_recv", "host.recover"):
        assert sim.trace.last(kind) == [
            r for r in captured if r.kind.startswith(kind)][-1]
    assert sim.trace.last("no.such.kind") is None


def test_retain_last_keeps_the_newest_rows():
    sim, captured = chaos_run(retain_last=500)
    assert len(sim.trace) == 500
    assert list(sim.trace) == captured[-500:]
    assert sim.trace.count() == 500


def test_retained_rows_of_atomic_values_leave_the_collector(run):
    sim, _ = run
    gc.collect()
    gc.collect()
    rows = list(sim.trace._rows)
    atomic = (str, int, float, bool, type(None))
    flat = [row for row in rows
            if all(isinstance(v, atomic) for v in row[4:])]
    assert len(flat) == len(rows)  # chaos emits no container fields
    assert not any(gc.is_tracked(row) for row in flat)
    # one tuple per record: header plus one slot per element, against a
    # record object and its own field dict (248 bytes with three fields)
    for row in rows:
        assert sys.getsizeof(row) <= 40 + 8 * len(row)
    send = sim.trace.records(kind="net.host_send")[0]
    assert len(send.fields) == 3
    row = next(r for r in rows if r[1] == "net.host_send")
    assert sys.getsizeof(row) <= 96


def test_rows_with_one_field_layout_share_their_names(run):
    sim, _ = run
    layouts = {row[3] for row in sim.trace._rows if row[1] == "net.host_recv"}
    assert len(layouts) == 1
    (names,) = layouts
    assert all(row[3] is names for row in sim.trace._rows
               if row[1] == "net.host_recv")


def test_editing_a_read_record_leaves_the_trace_alone():
    sim = Simulator(seed=0)
    seen = []
    sim.trace.subscribe("host.", seen.append)
    sim.trace.emit("host.deliver", "h1", seq=1, sender="h0")
    for record in (sim.trace.last("host.deliver"),
                   sim.trace.records()[0], next(iter(sim.trace)), seen[0]):
        record.fields["seq"] = 99
        record.fields["extra"] = True
    (record,) = sim.trace.records(kind="host.deliver", seq=1)
    assert record.fields == {"seq": 1, "sender": "h0"}


def test_a_list_field_round_trips():
    sim = Simulator(seed=0)
    sim.trace.emit("route.path", "s0", hops=["s0", "s1", "s2"], cost=2)
    (record,) = sim.trace
    assert record["hops"] == ["s0", "s1", "s2"]
    assert record.fields == {"hops": ["s0", "s1", "s2"], "cost": 2}
    assert sim.trace.count(hops=["s0", "s1", "s2"]) == 1
    # a row holding a container stays visible to the collector
    gc.collect()
    gc.collect()
    assert gc.is_tracked(sim.trace._rows[0])


def test_one_kind_with_changing_field_names():
    sim = Simulator(seed=0)
    sim.trace.emit("k", "x", a=1, b=2)
    sim.trace.emit("k", "x", c=3, d=4)  # same size, other names
    sim.trace.emit("k", "x", b=5, a=6)  # same names, other order
    sim.trace.emit("k", "x", a=7)
    sim.trace.emit("k", "x")
    assert [r.fields for r in sim.trace] == [
        {"a": 1, "b": 2}, {"c": 3, "d": 4}, {"a": 6, "b": 5}, {"a": 7}, {}]
    assert sim.trace.count(kind="k", a=6) == 1
