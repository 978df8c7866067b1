"""Property-based tests of the event kernel's ordering guarantees."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import EventAlreadyCancelledError, Simulator

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(st.lists(times, min_size=1, max_size=50))
def test_events_execute_in_nondecreasing_time_order(delays):
    sim = Simulator()
    executed = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: executed.append((sim.now, d)))
    sim.run()
    observed_times = [t for t, _ in executed]
    assert observed_times == sorted(observed_times)
    # Every event ran at exactly its scheduled time.
    assert all(t == d for t, d in executed)
    assert len(executed) == len(delays)


@given(st.lists(times, min_size=2, max_size=30),
       st.data())
def test_cancellation_removes_exactly_the_cancelled(delays, data):
    sim = Simulator()
    fired = []
    events = [sim.schedule(d, lambda i=i: fired.append(i))
              for i, d in enumerate(delays)]
    to_cancel = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(events) - 1),
        max_size=len(events)))
    for idx in to_cancel:
        sim.cancel(events[idx])
    sim.run()
    assert sorted(fired) == [i for i in range(len(delays))
                             if i not in to_cancel]


@given(st.lists(times, min_size=1, max_size=30), times)
def test_run_until_executes_exactly_the_due_events(delays, horizon):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run(until=horizon)
    assert sorted(fired) == sorted(d for d in delays if d <= horizon)
    assert sim.now == max([horizon] + [d for d in delays if d <= horizon])


@given(st.lists(times, min_size=1, max_size=20))
def test_split_runs_equal_single_run(delays):
    """Running in two segments reaches the same state as one run."""

    def run_once():
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run(until=200.0)
        return fired

    def run_split():
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run(until=50.0)
        sim.run(until=200.0)
        return fired

    assert run_once() == run_split()


# -- the kernel against a reference model ------------------------------------


class ReferenceKernel:
    """The kernel's contract, written the slow way: a list of entries and
    a linear scan for the least ``(time, push index)`` among the live
    ones due.  Same API as :class:`Simulator` for what the programs use."""

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self.entries = []  # [time, push index, callback, args, live]

    @property
    def pending(self):
        return sum(entry[4] for entry in self.entries)

    def _push(self, when, callback, args):
        entry = [when, len(self.entries), callback, args, True]
        self.entries.append(entry)
        return entry

    def schedule(self, delay, callback, *args):
        return self._push(self.now + delay, callback, args)

    def schedule_at(self, when, callback, *args):
        return self._push(when, callback, args)

    def call_soon(self, callback, *args):
        return self._push(self.now, callback, args)

    def cancel(self, entry):
        if not self.try_cancel(entry):
            raise EventAlreadyCancelledError("dead")

    def try_cancel(self, entry):
        live, entry[4] = entry[4], False
        return live

    def run(self, until=None, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            due = [e for e in self.entries
                   if e[4] and (until is None or e[0] <= until)]
            if not due:
                break
            entry = min(due, key=lambda e: (e[0], e[1]))
            self.now = entry[0]
            entry[4] = False
            executed += 1
            self.events_executed += 1
            entry[2](*entry[3])
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self):
        before = self.events_executed
        self.run(max_events=1)
        return self.events_executed != before


# A few distinct offsets, so that ties at one time are common.
offsets = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
cancels = st.tuples(st.just("cancel"), st.integers(0, 40), st.booleans())
ops = st.recursive(
    cancels | st.tuples(st.just("push"),
                        st.sampled_from(["schedule", "schedule_at", "call_soon"]),
                        offsets, st.just(())),
    lambda children: st.tuples(
        st.just("push"), st.sampled_from(["schedule", "schedule_at", "call_soon"]),
        offsets, st.lists(children, max_size=3).map(tuple)),
    max_leaves=12)
stops = st.one_of(st.tuples(st.just("run_until"), offsets),
                  st.tuples(st.just("step")), st.tuples(st.just("run")))
programs = st.lists(st.tuples(st.just("do"), st.lists(ops, max_size=4)) | stops,
                    min_size=1, max_size=12)


class Interpreter:
    """Runs one program on one kernel and logs what it observes."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.handles = []
        self.log = []

    def do(self, op):
        kernel = self.kernel
        if op[0] == "cancel":
            if not self.handles:
                return
            _, k, strict = op
            entry = self.handles[k % len(self.handles)]
            if strict:
                try:
                    kernel.cancel(entry)
                    outcome = True
                except EventAlreadyCancelledError:
                    outcome = False
            else:
                outcome = kernel.try_cancel(entry)
            self.log.append(("cancel", k % len(self.handles), outcome))
            return
        _, how, offset, children = op
        label = len(self.handles)
        if how == "schedule":
            entry = kernel.schedule(offset, self.fire, label, children)
        elif how == "schedule_at":
            entry = kernel.schedule_at(kernel.now + offset, self.fire, label, children)
        else:
            entry = kernel.call_soon(self.fire, label, children)
        self.handles.append(entry)

    def fire(self, label, children):
        self.log.append(("fire", label, self.kernel.now))
        for op in children:
            self.do(op)

    def stop(self, op):
        kernel = self.kernel
        if op[0] == "run_until":
            kernel.run(until=kernel.now + op[1])
        elif op[0] == "step":
            self.log.append(("step", kernel.step()))
        else:
            kernel.run()
        return (kernel.now, kernel.pending, kernel.events_executed)


@given(programs)
def test_kernel_matches_the_reference_model(program):
    """Random programs of schedule/schedule_at/call_soon (also from inside
    callbacks, at the current time), cancel/try_cancel and
    run(until=...)/step()/run(): at every stop the firing order is the
    model's (time, push index) order and ``pending`` is the live count."""
    real, model = Interpreter(Simulator()), Interpreter(ReferenceKernel())
    for item in program:
        if item[0] == "do":
            for op in item[1]:
                real.do(op)
                model.do(op)
        else:
            assert real.stop(item) == model.stop(item)
            assert real.log == model.log
    real.stop(("run",))
    model.stop(("run",))
    assert real.log == model.log
    assert real.kernel.pending == model.kernel.pending == 0
