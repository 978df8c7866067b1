"""The call_soon FIFO fast path must be observably identical to the heap.

``EventQueue.push_soon`` keeps "run now" events in a deque merged
against the heap at pop time; the execution order must match what a
single heap would have produced, including cancellation and the
``pop_next`` time limit.
"""

from repro.sim import EventQueue, Simulator


def test_fifo_and_heap_merge_preserves_global_order():
    queue = EventQueue()
    order = []
    queue.push(1.0, order.append, ("heap-1.0",), None)
    queue.push_soon(0.0, order.append, ("soon-a",), None)
    queue.push(0.0, order.append, ("heap-0.0",), None)
    queue.push_soon(0.0, order.append, ("soon-b",), None)
    while (event := queue.pop()) is not None:
        event.callback(*event.args)
    # Sequence numbers are shared, so the interleave is pure FIFO per time.
    assert order == ["soon-a", "heap-0.0", "soon-b", "heap-1.0"]


def test_cancelled_fifo_event_is_skipped():
    queue = EventQueue()
    order = []
    keep = queue.push_soon(0.0, order.append, ("keep",), None)
    victim = queue.push_soon(0.0, order.append, ("victim",), None)
    victim.cancel()
    assert len(queue) == 1
    assert queue.pop() is keep
    assert queue.pop() is None


def test_peek_time_sees_earlier_of_fifo_and_heap():
    queue = EventQueue()
    queue.push_soon(1.0, lambda: None, (), None)
    assert queue.peek_time() == 1.0
    queue.push(0.5, lambda: None, (), None)
    assert queue.peek_time() == 0.5


def test_pop_next_respects_limit_for_both_structures():
    queue = EventQueue()
    queue.push(2.0, lambda: None, (), None)
    assert queue.pop_next(1.0) is None
    assert len(queue) == 1
    queue.push_soon(3.0, lambda: None, (), None)
    assert queue.pop_next(1.0) is None
    assert queue.pop_next(2.5) is not None  # heap event at 2.0
    assert queue.pop_next(2.5) is None      # fifo event at 3.0 beyond limit
    assert queue.pop_next(None) is not None


def test_call_soon_interleaves_like_schedule_zero():
    """A sim mixing call_soon and zero-delay schedules runs in push order."""
    sim = Simulator(seed=0)
    order = []

    def start():
        sim.call_soon(order.append, "soon-1")
        sim.schedule(0.0, order.append, "sched-1")
        sim.call_soon(order.append, "soon-2")

    sim.schedule(1.0, start)
    sim.run()
    assert order == ["soon-1", "sched-1", "soon-2"]


def test_call_soon_event_is_cancellable():
    sim = Simulator(seed=0)
    fired = []

    def start():
        event = sim.call_soon(fired.append, "nope")
        sim.cancel(event)

    sim.schedule(0.5, start)
    sim.run()
    assert fired == []
