"""``call_soon`` is a heap push at the current time: "run now" entries
and scheduled entries interleave in push order, a cancelled one is
skipped, and ``run(until=...)`` stops at its limit for both.
"""

from repro.sim import Simulator


def test_fifo_and_heap_merge_preserves_global_order():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, order.append, "heap-1.0")
    sim.call_soon(order.append, "soon-a")
    sim.schedule_at(0.0, order.append, "heap-0.0")
    sim.call_soon(order.append, "soon-b")
    sim.run()
    # One sequence counter, so the interleave is push order per time.
    assert order == ["soon-a", "heap-0.0", "soon-b", "heap-1.0"]


def test_cancelled_fifo_event_is_skipped():
    sim = Simulator()
    order = []
    sim.call_soon(order.append, "keep")
    victim = sim.call_soon(order.append, "victim")
    sim.cancel(victim)
    assert sim.pending == 1
    assert sim.step() is True
    assert sim.step() is False
    assert order == ["keep"]


def test_pop_next_respects_limit_for_both_structures():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, fired.append, "at 2.0")
    sim.run(until=1.0)
    assert (fired, sim.pending) == ([], 1)
    sim.schedule_at(3.0, lambda: sim.call_soon(fired.append, "soon at 3.0"))
    sim.run(until=2.5)
    assert (fired, sim.pending) == (["at 2.0"], 1)
    sim.run(until=2.9)
    assert fired == ["at 2.0"]
    sim.run()
    assert (fired, sim.now) == (["at 2.0", "soon at 3.0"], 3.0)


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
