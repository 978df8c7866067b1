"""Unit tests for the event queue: ordering, cancellation, determinism."""

import pytest

from repro.sim import EventAlreadyCancelledError, EventQueue


def test_empty_queue_pops_none():
    q = EventQueue()
    assert q.pop() is None
    assert len(q) == 0
    assert not q


def test_pop_orders_by_time():
    q = EventQueue()
    q.push(3.0, lambda: None)
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    times = [q.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_same_time_events_pop_fifo():
    q = EventQueue()
    events = [q.push(5.0, lambda: None) for _ in range(10)]
    popped = [q.pop() for _ in range(10)]
    assert popped == events


def test_priority_breaks_time_ties():
    q = EventQueue()
    low = q.push(1.0, lambda: None, priority=5)
    high = q.push(1.0, lambda: None, priority=-5)
    assert q.pop() is high
    assert q.pop() is low


def test_cancelled_event_is_skipped():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    second = q.push(2.0, lambda: None)
    first.cancel()
    assert len(q) == 1
    assert q.pop() is second
    assert q.pop() is None


def test_double_cancel_raises():
    q = EventQueue()
    event = q.push(1.0, lambda: None)
    event.cancel()
    with pytest.raises(EventAlreadyCancelledError):
        event.cancel()


def test_peek_time_skips_cancelled():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    q.push(4.0, lambda: None)
    first.cancel()
    assert q.peek_time() == 4.0


def test_peek_time_empty():
    assert EventQueue().peek_time() is None


def test_len_counts_live_events_only():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(5)]
    events[2].cancel()
    assert len(q) == 4
