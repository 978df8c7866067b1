"""Tracer fast-path contract: disabled emits must allocate nothing.

These tests pin the behavior DESIGN.md's "Tracer fast path" section
promises: a fully inactive tracer retains nothing, a disabled-but-
subscribed tracer builds a record only when a prefix actually matches,
and the ring-buffer mode bounds retention without touching subscribers.
"""

from repro.sim import Simulator, TraceRecord, Tracer


class CountingSubscriber:
    """Records every delivered record and how often it was called."""

    def __init__(self):
        self.calls = 0
        self.records = []

    def __call__(self, record):
        self.calls += 1
        self.records.append(record)


def test_disabled_tracer_retains_nothing():
    sim = Simulator(seed=0)
    sim.trace.enabled = False
    for i in range(100):
        sim.trace.emit("net.host_send", "h0", i=i)
    assert len(sim.trace) == 0
    assert sim.trace.records() == []


def test_disabled_tracer_is_inactive_without_subscribers():
    sim = Simulator(seed=0)
    assert sim.trace.active  # enabled by default
    sim.trace.enabled = False
    assert not sim.trace.active
    sim.trace.enabled = True
    assert sim.trace.active


def test_subscribe_reactivates_disabled_tracer():
    sim = Simulator(seed=0)
    sim.trace.enabled = False
    sub = CountingSubscriber()
    sim.trace.subscribe("proto.", sub)
    assert sim.trace.active
    sim.trace.emit("proto.deliver", "h1", seq=3)
    assert sub.calls == 1
    # Subscribers fire, but a disabled tracer still retains nothing.
    assert len(sim.trace) == 0


def test_prefix_miss_skips_record_construction():
    """A non-matching kind must not build a TraceRecord at all."""
    sim = Simulator(seed=0)
    sim.trace.enabled = False
    sub = CountingSubscriber()
    sim.trace.subscribe("proto.", sub)

    built = []
    original_init = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    TraceRecord.__init__ = counting_init
    try:
        for i in range(50):
            sim.trace.emit("net.link_tx", "l0", i=i)  # prefix miss
        assert built == []
        assert sub.calls == 0
        sim.trace.emit("proto.deliver", "h1", seq=1)  # prefix hit
        assert len(built) == 1
        assert sub.calls == 1
    finally:
        TraceRecord.__init__ = original_init
    assert len(sim.trace) == 0


def test_matching_record_shared_across_subscribers():
    """One matching emit builds exactly one record for all subscribers."""
    sim = Simulator(seed=0)
    sim.trace.enabled = False
    first, second = CountingSubscriber(), CountingSubscriber()
    sim.trace.subscribe("proto.", first)
    sim.trace.subscribe("proto.deliver", second)
    sim.trace.emit("proto.deliver", "h2", seq=9)
    assert first.calls == second.calls == 1
    assert first.records[0] is second.records[0]
    assert first.records[0]["seq"] == 9


def test_enabled_tracer_still_notifies_subscribers():
    sim = Simulator(seed=0)
    sub = CountingSubscriber()
    sim.trace.subscribe("proto.", sub)
    sim.trace.emit("proto.deliver", "h0", seq=1)
    sim.trace.emit("net.link_tx", "l0")
    assert sub.calls == 1
    assert len(sim.trace) == 2


def test_unsubscribe_returns_active_to_enabled():
    """When the last subscriber leaves, a disabled tracer is inactive
    again and its emit builds nothing."""
    sim = Simulator(seed=0)
    sim.trace.enabled = False
    first, second = CountingSubscriber(), CountingSubscriber()
    sim.trace.subscribe("proto.", first)
    sim.trace.subscribe("proto.deliver", second)
    sim.trace.unsubscribe(first)
    assert sim.trace.active  # one subscriber is left
    sim.trace.emit("proto.deliver", "h0", seq=1)
    assert (first.calls, second.calls) == (0, 1)
    sim.trace.unsubscribe(second)
    assert not sim.trace.active

    built = []
    original_init = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    TraceRecord.__init__ = counting_init
    try:
        for i in range(50):
            sim.trace.emit("proto.deliver", "h0", seq=i)
    finally:
        TraceRecord.__init__ = original_init
    assert built == []
    assert (first.calls, second.calls) == (0, 1)
    assert len(sim.trace) == 0


def test_unsubscribe_keeps_an_enabled_tracer_active():
    sim = Simulator(seed=0)
    sub = CountingSubscriber()
    sim.trace.subscribe("proto.", sub)
    sim.trace.unsubscribe(sub)
    sim.trace.unsubscribe(sub)  # not registered any more: ignored
    assert sim.trace.active
    sim.trace.emit("proto.deliver", "h0", seq=1)
    assert sub.calls == 0
    assert len(sim.trace) == 1


def test_subscriber_may_unsubscribe_while_called():
    sim = Simulator(seed=0)
    later = CountingSubscriber()

    def once(record):
        sim.trace.unsubscribe(once)

    sim.trace.subscribe("proto.", once)
    sim.trace.subscribe("proto.", later)
    sim.trace.emit("proto.deliver", "h0", seq=1)
    sim.trace.emit("proto.deliver", "h0", seq=2)
    assert later.calls == 2  # the list under iteration was not mutated


def test_ring_buffer_bounds_retention():
    sim = Simulator(seed=0)
    tracer = Tracer(sim, retain_last=10)
    for i in range(25):
        tracer.emit("bench.tick", "k", i=i)
    assert len(tracer) == 10
    assert tracer.retention == 10
    assert [record["i"] for record in tracer] == list(range(15, 25))


def test_retain_last_rebounds_existing_records():
    sim = Simulator(seed=0)
    for i in range(8):
        sim.trace.emit("bench.tick", "k", i=i)
    sim.trace.retain_last(3)
    assert [record["i"] for record in sim.trace] == [5, 6, 7]
    sim.trace.retain_last(None)
    for i in range(8, 13):
        sim.trace.emit("bench.tick", "k", i=i)
    assert sim.trace.retention is None
    assert len(sim.trace) == 8  # 3 survivors + 5 new, unbounded again


def test_retain_last_rejects_nonpositive_limit():
    import pytest

    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        sim.trace.retain_last(0)
