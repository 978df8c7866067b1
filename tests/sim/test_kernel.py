"""Unit tests for the Simulator: clock, scheduling, run semantics."""

import pytest

from repro.sim import (
    EventAlreadyCancelledError,
    PeriodicTask,
    SchedulingInPastError,
    Simulator,
    SimulatorFinishedError,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(2.5, fired.append, "a")
    sim.schedule(1.0, fired.append, "b")
    sim.run()
    assert fired == ["b", "a"]
    assert sim.now == 2.5


def test_schedule_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SchedulingInPastError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingInPastError):
        sim.schedule_at(4.0, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.pending == 1
    sim.run(until=20.0)
    assert sim.pending == 0
    assert sim.now == 20.0


def test_run_until_executes_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, 1)
    sim.run(until=3.0)
    assert fired == [1]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []

    def outer():
        sim.call_soon(lambda: times.append(sim.now))

    sim.schedule(5.0, outer)
    sim.run()
    assert times == [5.0]


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_try_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    assert sim.try_cancel(event) is True
    assert sim.try_cancel(event) is False
    assert sim.try_cancel(None) is False


def test_try_cancel_on_a_fired_event_is_a_no_op():
    """A periodic task that stops itself from its own tick must not
    cancel the tick that is running: pending keeps the live count."""
    sim = Simulator()
    task = PeriodicTask(sim, 1.0, lambda: task.stop()).start()
    sim.schedule(10.0, lambda: None)
    sim.run(until=2.0)
    assert not task.running
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_a_fired_event_is_dead():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.pending == 0
    assert sim.try_cancel(event) is False
    with pytest.raises(EventAlreadyCancelledError):
        sim.cancel(event)


def test_step_runs_one_event_and_reports_idle():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.call_soon(fired.append, "a")
    assert sim.step() is True
    assert (fired, sim.now) == (["a"], 0.0)
    assert sim.step() is True
    assert (fired, sim.now) == (["a", "b"], 2.0)
    assert sim.step() is False
    assert sim.events_executed == 2


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_finish_prevents_further_runs():
    sim = Simulator()
    sim.finish()
    with pytest.raises(SimulatorFinishedError):
        sim.run()


def test_events_executed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_deterministic_ordering_same_time():
    """Two identical simulations interleave same-time events identically."""

    def build():
        sim = Simulator(seed=3)
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        return order

    assert build() == build() == list("abcde")
