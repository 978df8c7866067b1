"""SimRuntime adapter semantics over the event kernel."""

from repro.core import BroadcastSystem, ProtocolConfig
from repro.io import SimRuntime
from repro.net import wan_of_lans
from repro.sim import Simulator


def make_runtime(seed=0):
    sim = Simulator(seed=seed)
    return sim, SimRuntime(sim)


class TestClockAndScheduling:
    def test_now_tracks_virtual_time(self):
        sim, runtime = make_runtime()
        assert runtime.now() == 0.0
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert runtime.now() == sim.now == 3.5

    def test_call_soon_runs_at_current_time_in_order(self):
        sim, runtime = make_runtime()
        seen = []
        runtime.call_soon(seen.append, "a")
        runtime.call_soon(seen.append, "b")
        sim.run()
        assert seen == ["a", "b"]
        assert sim.now == 0.0

    def test_trace_and_metrics_pass_through(self):
        sim, runtime = make_runtime()
        runtime.trace("unit.kind", "src", detail=7)
        assert sim.trace.count("unit.kind") == 1
        runtime.counter("unit.counter").inc(2)
        assert sim.metrics.counter("unit.counter").value == 2
        runtime.histogram("unit.hist").observe(1.5)
        assert runtime.histogram("unit.hist") is sim.metrics.histogram("unit.hist")

    def test_rng_is_the_simulator_stream(self):
        sim, runtime = make_runtime(seed=9)
        draws = [runtime.rng("unit.stream").random() for _ in range(3)]
        replay = Simulator(seed=9)
        assert draws == [replay.rng.stream("unit.stream").random()
                         for _ in range(3)]


class TestTimers:
    def test_timer_fires_once_at_delay(self):
        sim, runtime = make_runtime()
        fired = []
        runtime.start_timer(2.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [2.0]

    def test_cancel_disarms(self):
        sim, runtime = make_runtime()
        fired = []
        handle = runtime.start_timer(2.0, lambda: fired.append(sim.now))
        assert handle.armed
        runtime.cancel_timer(handle)
        assert not handle.armed
        sim.run(until=10.0)
        assert fired == []

    def test_cancel_is_idempotent_and_none_safe(self):
        sim, runtime = make_runtime()
        runtime.cancel_timer(None)  # disarmed machine state: no handle
        handle = runtime.start_timer(1.0, lambda: None)
        sim.run(until=5.0)  # expires
        runtime.cancel_timer(handle)  # post-expiry cancel is a no-op
        runtime.cancel_timer(handle)

    def test_periodic_created_stopped_then_ticks(self):
        sim, runtime = make_runtime()
        ticks = []
        task = runtime.start_periodic(1.0, lambda: ticks.append(sim.now),
                                      name="unit")
        assert not task.running
        sim.run(until=5.0)
        assert ticks == []
        task.start()
        sim.run(until=8.6)
        assert ticks == [6.0, 7.0, 8.0]
        task.stop()
        assert not task.running
        sim.run(until=20.0)
        assert len(ticks) == 3


class TestHostTimerHygiene:
    """stop()/start() manage every timer through the Runtime handles."""

    def build(self, seed=3):
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2)
        system = BroadcastSystem(
            built, config=ProtocolConfig.for_scale(4)).start()
        return sim, system

    def test_stop_disarms_all_timers_and_tasks(self):
        sim, system = self.build()
        sim.run(until=30.0)
        for host in system.hosts.values():
            host.stop()
            assert host._ack_timer is None
            assert host._parent_timer is None
            assert all(not task.running for task in host._tasks)
        events_at_stop = sim.events_executed
        sim.run(until=300.0)
        # A fully stopped system schedules nothing further.
        assert sim.events_executed == events_at_stop

    def test_restart_rearms_through_the_runtime(self):
        sim, system = self.build()
        sim.run(until=30.0)
        for host in system.hosts.values():
            host.stop()
        for host in system.hosts.values():
            host.start()
        assert all(task.running for host in system.hosts.values()
                   for task in host._tasks)
        system.broadcast_stream(2, interval=1.0, start_at=sim.now + 1.0)
        assert system.run_until_delivered(2, timeout=120.0)
