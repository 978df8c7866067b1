"""Parent liveness is a deadline that one armed timer chases.

A packet from the parent only moves ``_parent_deadline``; the timer is
re-armed when it fires early, or at once when the deadline moves before
its firing time.  The timeout must still fire at exactly the float the
old cancel-and-re-arm-per-packet timer fired at: ``t_last + timeout``.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import BroadcastSystem, ProtocolConfig
from repro.core.host import _exact_delay
from repro.core.wire import DataMsg
from repro.net import HostId, Packet, wan_of_lans
from repro.sim import Simulator

INTRA, INTER = 1.5, 50.0


class CountingRuntime:
    """Delegates to the host's runtime and counts ``start_timer`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.timers_started = 0

    def start_timer(self, delay, callback):
        self.timers_started += 1
        return self.inner.start_timer(delay, callback)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def build(**config):
    """An unstarted 1x2 system: only the events a test schedules run."""
    sim = Simulator(seed=0)
    built = wan_of_lans(sim, clusters=1, hosts_per_cluster=2,
                        convergence_delay=0.0)
    config.setdefault("parent_timeout_intra", INTRA)
    config.setdefault("parent_timeout_inter", INTER)
    system = BroadcastSystem(built, config=ProtocolConfig(**config))
    child = system.hosts[HostId("h0.1")]
    parent = system.source_id
    child.parent = parent
    return sim, child, parent


def send_at(sim, child, parent, when, seq, expensive=False):
    """Deliver data ``seq`` from ``parent`` to ``child`` at ``when``."""

    def deliver():
        msg = DataMsg(seq=seq, content=seq, created_at=when, origin=parent)
        child.port.inject(Packet(src=parent, dst=child.me, payload=msg,
                                 cost_bit=expensive, sent_at=when,
                                 stamped_at=when))

    sim.schedule_at(when, deliver)


def timeout_times(sim):
    return [r.time for r in sim.trace.records(kind="host.parent_timeout")]


def first_timeout(sim):
    """When the first parent timeout fired (the child then re-attaches)."""
    return timeout_times(sim)[0]


def test_a_parent_that_keeps_sending_never_times_out():
    sim, child, parent = build()
    runtime = child.runtime = CountingRuntime(child.runtime)
    packets = 500
    for i in range(packets):
        send_at(sim, child, parent, 1.0 + 0.02 * i, seq=i + 1)
    elapsed = 0.02 * packets
    sim.run(until=1.0 + elapsed)
    assert child.parent == parent
    assert timeout_times(sim) == []
    # One arm, then one chase per timeout elapsed — not one per packet.
    assert runtime.timers_started <= elapsed / INTRA + 2
    assert runtime.timers_started < packets / 10


def test_a_silent_parent_times_out_at_exactly_t_last_plus_timeout():
    sim, child, parent = build()
    times = [0.37 + 0.013 * i for i in range(40)]
    for seq, when in enumerate(times, start=1):
        send_at(sim, child, parent, when, seq)
    sim.run(until=times[-1] + 3 * INTRA)
    assert first_timeout(sim) == times[-1] + INTRA


def test_the_chase_lands_on_the_deadline_where_the_plain_difference_does_not():
    # Intra-cluster parent armed at 0.59 (fires 2.09); its packet at 0.6
    # crosses an expensive link, so the deadline becomes 0.6 + 50.  The
    # chase re-arms from 2.09, where 2.09 + (50.6 - 2.09) is one ulp late
    # and no delay at all sums to 50.6 (a rounding tie skips it).
    sim, child, parent = build()
    send_at(sim, child, parent, 0.59, seq=1)
    send_at(sim, child, parent, 0.6, seq=2, expensive=True)
    deadline = 0.6 + INTER
    assert (0.59 + INTRA) + (deadline - (0.59 + INTRA)) > deadline
    sim.run(until=deadline + 1.0)
    assert first_timeout(sim) == deadline


def test_inter_to_intra_shrink_rearms_earlier():
    sim, child, parent = build()
    send_at(sim, child, parent, 1.0, seq=1, expensive=True)  # inter: 51.0
    send_at(sim, child, parent, 2.0, seq=2)  # now in the cluster: intra
    sim.run(until=10.0)
    assert first_timeout(sim) == 2.0 + INTRA


def test_rto_shrink_rearms_earlier():
    sim, child, parent = build(adaptive=True)
    send_at(sim, child, parent, 1.0, seq=1, expensive=True)
    sim.run(until=1.5)
    assert child._parent_deadline == 1.0 + INTER  # unmeasured: fixed
    expected = []

    def measured_packet():
        child._rtt.observe(parent, 0.01)
        expected.append(2.0 + child._parent_timeout_value())

    sim.schedule_at(2.0, measured_packet)
    send_at(sim, child, parent, 2.0, seq=2, expensive=True)
    sim.run(until=1.0 + INTER + 5.0)
    assert expected[0] < 1.0 + INTER
    assert first_timeout(sim) == expected[0]


@pytest.mark.parametrize("leave", ["stop", "crash", "detach"])
def test_leaving_leaves_no_armed_parent_timer(leave):
    sim, child, parent = build()
    send_at(sim, child, parent, 1.0, seq=1)
    sim.run(until=1.5)
    handle = child._parent_timer
    assert handle is not None and handle.armed
    {"stop": child.stop, "crash": child.crash,
     "detach": lambda: child._detach_from_parent("test")}[leave]()
    assert child._parent_timer is None
    assert not handle.armed
    sim.run(until=10 * INTER)
    assert timeout_times(sim) == []
    assert child._parent_timer is None


times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(times, times)
@example(2.09, 0.6 + INTER)
@example(0.0, 5e-324)
def test_exact_delay_is_never_late_and_the_chase_lands_exactly(a, b):
    now, deadline = min(a, b), max(a, b)
    delay = _exact_delay(now, deadline)
    assert delay >= 0.0
    fired = now + delay
    assert fired <= deadline
    if fired < deadline:  # the tie case: the next re-arm is exact
        assert fired + _exact_delay(fired, deadline) == deadline
