"""Unit tests for the simulator's pending-event heap: ordering,
cancellation, the live count."""

import pytest

from repro.sim import EventAlreadyCancelledError, Simulator


def test_empty_queue_pops_none():
    sim = Simulator()
    assert sim.step() is False
    assert sim.pending == 0
    assert sim.events_executed == 0


def test_pop_orders_by_time():
    sim = Simulator()
    fired = []
    for when in (3.0, 1.0, 2.0):
        sim.schedule_at(when, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_same_time_events_pop_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(5.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_cancelled_event_is_skipped():
    sim = Simulator()
    fired = []
    first = sim.schedule_at(1.0, fired.append, "first")
    sim.schedule_at(2.0, fired.append, "second")
    sim.cancel(first)
    assert sim.pending == 1
    assert sim.step() is True
    assert (fired, sim.now) == (["second"], 2.0)
    assert sim.step() is False


def test_double_cancel_raises():
    sim = Simulator()
    event = sim.schedule_at(1.0, lambda: None)
    sim.cancel(event)
    with pytest.raises(EventAlreadyCancelledError):
        sim.cancel(event)


def test_len_counts_live_events_only():
    sim = Simulator()
    events = [sim.schedule_at(float(i), lambda: None) for i in range(5)]
    sim.cancel(events[2])
    assert sim.pending == 4
