"""Tests for the online invariant monitor."""

import pytest

from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator
from repro.verify import InvariantMonitor


def build_system(seed=1, k=2, m=2):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m, backbone="line",
                        convergence_delay=0.0)
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(k * m))
    return sim, built, system


def test_monitor_clean_on_healthy_run():
    sim, built, system = build_system()
    system.start()
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=10.0).start()
    system.broadcast_stream(6, interval=1.0, start_at=1.0)
    assert system.run_until_delivered(6, timeout=200.0)
    monitor.stop()
    report = monitor.report()
    assert report.samples > 0
    assert report.clean
    assert report.spans == ()


def test_monitor_classifies_transient_vs_stable():
    sim, built, system = build_system()
    # Freeze the protocol (never started) and forge an INFO-dominance
    # violation by hand: child h0.1 claims more than its parent h0.0.
    child, parent = system.hosts[HostId("h0.1")], system.hosts[HostId("h0.0")]
    child.parent = parent.me
    child.info.add(5)
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=4.0).start()
    sim.run(until=2.5)           # present for ~2 samples: transient
    child.info.truncate_above(0)  # violation disappears
    sim.run(until=6.0)
    child.info.add(7)            # reappears, and now persists
    sim.run(until=20.0)
    report = monitor.report()
    assert not report.clean
    keys = [(s.key, s.stable) for s in report.spans]
    assert (("info_dominance", "h0.1", "h0.0"), False) in keys
    assert (("info_dominance", "h0.1", "h0.0"), True) in keys
    assert len(report.transient_violations) == 1
    assert len(report.stable_violations) == 1


def test_monitor_detects_harmful_cycle():
    sim, built, system = build_system(k=2, m=2)
    # Forge a two-host parent cycle; the source (outside it) has newer
    # messages and is reachable, making the cycle harmful.
    a, b = system.hosts[HostId("h0.1")], system.hosts[HostId("h1.0")]
    a.parent, b.parent = b.me, a.me
    system.source.info.add(3)
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=3.0).start()
    sim.run(until=10.0)
    report = monitor.report()
    assert any(s.key[0] == "harmful_cycle" and s.stable
               for s in report.spans)


def test_monitor_collects_recovery_times():
    sim, built, system = build_system(k=3, m=2)
    system.start()
    monitor = InvariantMonitor(system).start()
    victim = HostId("h1.0")
    system.broadcast_stream(8, interval=1.0, start_at=1.0)
    sim.schedule_at(3.0, lambda: system.crash_host(victim))
    sim.schedule_at(8.0, lambda: system.recover_host(victim))
    assert system.run_until_delivered(8, timeout=400.0)
    report = monitor.report()
    assert [host for host, _ in report.recoveries] == [str(victim)]
    assert all(t > 0 for t in report.recovery_times())
    assert report.clean


def test_monitor_keeps_recoveries_the_ring_buffer_evicted():
    """Recoveries are collected as they are emitted, so evicting an
    already-collected record from a bounded trace loses nothing."""
    sim, built, system = build_system()
    sim.trace.retain_last(3)
    monitor = InvariantMonitor(system, sample_period=1.0).start()
    sim.trace.emit("host.recovery_delivery", "h0.1", elapsed=2.0)
    sim.run(until=1.5)
    sim.trace.emit("host.recovery_delivery", "h1.0", elapsed=3.0)
    sim.trace.emit("filler.one", "x")
    sim.trace.emit("filler.two", "x")
    sim.run(until=2.5)
    assert monitor.report().recoveries == (("h0.1", 2.0), ("h1.0", 3.0))


def test_monitor_reads_recoveries_retained_before_it_was_built():
    sim, built, system = build_system()
    sim.trace.emit("host.recovery_delivery", "h0.1", elapsed=2.0)
    monitor = InvariantMonitor(system, sample_period=1.0).start()
    sim.trace.emit("host.recovery_delivery", "h1.0", elapsed=3.0)
    assert monitor.report().recoveries == (("h0.1", 2.0), ("h1.0", 3.0))


def test_monitor_sampling_never_scans_the_trace(monkeypatch):
    """A sample's cost must not grow with the retained trace: once the
    monitor is built, neither sampling nor reporting reads records."""
    from repro.sim import Tracer

    sim, built, system = build_system()
    monitor = InvariantMonitor(system, sample_period=1.0).start()

    def scan(*args, **kwargs):
        raise AssertionError("the monitor scanned the trace")

    monkeypatch.setattr(Tracer, "records", scan)
    sim.trace.emit("host.recovery_delivery", "h0.1", elapsed=2.0)
    sim.run(until=50.5)
    monitor.stop()
    report = monitor.report()
    assert report.samples == 50
    assert report.recoveries == (("h0.1", 2.0),)


def test_monitor_reports_recoveries_on_a_disabled_tracer():
    sim, built, system = build_system()
    sim.trace.enabled = False
    monitor = InvariantMonitor(system, sample_period=1.0).start()
    sim.trace.emit("host.recovery_delivery", "h0.1", elapsed=2.0)
    sim.run(until=1.5)
    assert len(sim.trace) == 0  # nothing retained...
    assert monitor.report().recoveries == (("h0.1", 2.0),)  # ...yet seen


def test_monitor_stop_stops_collecting_recoveries():
    sim, built, system = build_system()
    sim.trace.enabled = False
    monitor = InvariantMonitor(system, sample_period=1.0).start()
    sim.trace.emit("host.recovery_delivery", "h0.1", elapsed=2.0)
    monitor.stop()
    assert not sim.trace.active  # the disabled tracer is inactive again
    sim.trace.enabled = True
    sim.trace.emit("host.recovery_delivery", "h1.0", elapsed=3.0)
    assert monitor.report().recoveries == (("h0.1", 2.0),)


def test_monitor_stop_closes_open_streak_as_unresolved():
    sim, built, system = build_system()
    child, parent = system.hosts[HostId("h0.1")], system.hosts[HostId("h0.0")]
    child.parent = parent.me
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=10.0).start()
    child.info.add(5)  # violation appears and never resolves
    sim.run(until=4.0)
    monitor.stop()
    report = monitor.report()
    assert len(report.spans) == 1
    span = report.spans[0]
    assert span.key == ("info_dominance", "h0.1", "h0.0")
    assert span.unresolved_at_end
    assert not span.stable          # streak shorter than the window...
    assert report.unresolved_violations == (span,)
    assert report.clean             # ...so still transient, not stable
    # stop() is idempotent: a second call adds no duplicate span.
    monitor.stop()
    assert len(monitor.report().spans) == 1


def test_monitor_stop_marks_long_unresolved_streak_stable():
    sim, built, system = build_system()
    child, parent = system.hosts[HostId("h0.1")], system.hosts[HostId("h0.0")]
    child.parent = parent.me
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=5.0).start()
    child.info.add(5)
    sim.run(until=12.0)  # well past the stable window, never resolves
    monitor.stop()
    report = monitor.report()
    assert len(report.spans) == 1
    span = report.spans[0]
    assert span.unresolved_at_end
    assert span.stable
    assert not report.clean


def test_monitor_resolved_spans_are_not_unresolved():
    sim, built, system = build_system()
    child, parent = system.hosts[HostId("h0.1")], system.hosts[HostId("h0.0")]
    child.parent = parent.me
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=10.0).start()
    child.info.add(5)
    sim.run(until=3.0)
    child.info.truncate_above(0)  # violation resolves mid-run
    sim.run(until=6.0)
    monitor.stop()
    report = monitor.report()
    assert len(report.spans) == 1
    assert not report.spans[0].unresolved_at_end
    assert report.unresolved_violations == ()


def test_monitor_validates_parameters():
    sim, built, system = build_system()
    with pytest.raises(ValueError):
        InvariantMonitor(system, sample_period=0.0)
    with pytest.raises(ValueError):
        InvariantMonitor(system, stable_window=-1.0)


# ----------------------------------------------------------------------
# The same oracle on the wall-clock backend (an unopened UDP deployment)
# ----------------------------------------------------------------------


def run_wall(coro_fn, time_scale=0.01):
    """Drive a monitor scenario on a real event loop, 100x compressed,
    over a UDP deployment that is built but never opened: no socket is
    bound and no host runs, so only the test moves protocol state."""
    import asyncio

    from repro.io import UdpBroadcastSystem

    async def main():
        system = UdpBroadcastSystem([["s"], ["a", "b"]],
                                    time_scale=time_scale)
        return await coro_fn(system.runtime, system)

    return asyncio.run(main())


async def _sleep_protocol(runtime, seconds):
    import asyncio

    await asyncio.sleep(seconds * runtime.time_scale)


async def _wait_until(condition, wall_timeout=60.0):
    """Poll until ``condition()`` holds.  The loop may stall for seconds
    on a loaded box, so wait for the outcome, never for a duration."""
    import asyncio
    import time

    deadline = time.monotonic() + wall_timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


def test_monitor_spans_open_and_close_under_wall_clock():
    async def scenario(runtime, system):
        # A window no loop stall can reach: the span must be transient.
        monitor = InvariantMonitor(system, sample_period=0.5,
                                   stable_window=1e9).start()
        child = system.hosts[HostId("a")]
        child.parent = HostId("b")
        child.info.add(5)  # child ahead of parent: dominance broken
        await _wait_until(lambda: monitor.report().spans)  # sampled
        child.info.truncate_above(0)  # resolves
        await _wait_until(lambda: not monitor.report().unresolved_violations)
        monitor.stop()
        return monitor.report()

    report = run_wall(scenario)
    assert report.samples >= 2
    assert len(report.spans) == 1
    span = report.spans[0]
    assert span.key == ("info_dominance", "a", "b")
    assert not span.unresolved_at_end  # it was seen to resolve
    assert not span.stable
    assert report.clean


def test_monitor_stop_marks_unresolved_spans_under_wall_clock():
    async def scenario(runtime, system):
        monitor = InvariantMonitor(system, sample_period=0.5,
                                   stable_window=2.0).start()
        child = system.hosts[HostId("a")]
        child.parent = HostId("b")
        child.info.add(7)  # never resolves
        # Stop once the open streak has outlived the window.
        await _wait_until(lambda: monitor.report().stable_violations)
        monitor.stop()
        return monitor.report()

    report = run_wall(scenario)
    assert len(report.spans) == 1
    span = report.spans[0]
    assert span.unresolved_at_end
    assert span.stable  # persisted past the stable window in real time
    assert not report.clean
    assert report.unresolved_violations == (span,)


def test_monitor_stop_halts_sampling_on_wall_clock():
    async def scenario(runtime, system):
        monitor = InvariantMonitor(system, sample_period=0.5,
                                   stable_window=5.0).start()
        await _wait_until(lambda: monitor.report().samples >= 1)
        monitor.stop()
        samples_at_stop = monitor.report().samples
        await _sleep_protocol(runtime, 2.0)  # four sample periods
        return samples_at_stop, monitor.report().samples

    at_stop, later = run_wall(scenario)
    assert at_stop >= 1
    assert later == at_stop  # stop() guaranteed no further ticks
