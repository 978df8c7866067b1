"""Tests for host crash schedules and the host flapper."""

import pytest

from repro.chaos import HostCrashSchedule, HostFlapper
from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator


def build_system(seed=1, k=2, m=2):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m, backbone="line",
                        convergence_delay=0.0)
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(k * m))
    return sim, built, system.start()


def test_crash_schedule_outage_crashes_and_recovers():
    sim, built, system = build_system()
    victim = HostId("h1.0")
    HostCrashSchedule(system.runtime, system).outage(5.0, 10.0, victim)
    sim.run(until=4.0)
    assert system.crashed_hosts() == []
    sim.run(until=6.0)
    assert system.crashed_hosts() == [victim]
    sim.run(until=11.0)
    assert system.crashed_hosts() == []


def test_crash_schedule_emits_trace_and_counters():
    sim, built, system = build_system()
    HostCrashSchedule(system.runtime, system).outage(2.0, 4.0, HostId("h0.1"))
    sim.run(until=5.0)
    applies = sim.trace.records(kind="failure.apply")
    assert [(r.fields["host"], r.fields["up"]) for r in applies] == [
        ("h0.1", False), ("h0.1", True)]
    assert sim.metrics.counter("net.failures.host.down").value == 1
    assert sim.metrics.counter("net.failures.host.up").value == 1


def test_crash_schedule_validates_interval():
    sim, built, system = build_system()
    with pytest.raises(ValueError):
        HostCrashSchedule(system.runtime, system).outage(5.0, 5.0, HostId("h0.1"))


def test_host_flapper_excludes_source_by_default():
    sim, built, system = build_system()
    flapper = HostFlapper(system.runtime, system, mean_up=2.0, mean_down=1.0)
    assert system.source_id not in flapper.hosts
    assert len(flapper.hosts) == len(built.hosts) - 1


def test_host_flapper_is_deterministic():
    def run(seed):
        sim, built, system = build_system(seed=seed)
        HostFlapper(system.runtime, system, mean_up=4.0, mean_down=2.0).start()
        sim.run(until=80.0)
        return [(round(r.time, 9), r.kind, r.source)
                for r in sim.trace.records(kind="host.crash")
                ] + [(round(r.time, 9), r.kind, r.source)
                     for r in sim.trace.records(kind="host.recover")]

    first = run(7)
    assert any(kind == "host.crash" for _, kind, _ in first)
    assert first == run(7)
    assert first != run(8)


def test_host_flapper_heal_recovers_every_host():
    sim, built, system = build_system()
    flapper = HostFlapper(system.runtime, system, mean_up=2.0, mean_down=5.0).start()
    sim.run(until=30.0)
    flapper.heal()
    assert system.crashed_hosts() == []
    crashes = sim.metrics.counter("proto.host.crash").value
    sim.run(until=120.0)
    assert system.crashed_hosts() == []
    assert sim.metrics.counter("proto.host.crash").value == crashes


def test_host_flapper_validates():
    sim, built, system = build_system()
    with pytest.raises(ValueError):
        HostFlapper(system.runtime, system, mean_up=0.0)
    with pytest.raises(ValueError):
        HostFlapper(system.runtime, system, hosts=[])


def test_host_flapper_stop_cancels_pending_transitions():
    """stop() must cancel already-armed crash/recover timers — a timer
    left armed could crash a host after a chaos plan's heal-by horizon."""
    sim, built, system = build_system()
    flapper = HostFlapper(system.runtime, system, mean_up=2.0, mean_down=1.0).start()
    sim.run(until=10.0)
    pending = list(flapper._pending.values())
    assert pending  # every managed host has its next transition armed
    flapper.heal()
    assert not flapper._pending
    assert all(not timer.armed for timer in pending)
    # No transition ever fires again: hosts stay up forever.
    downs = sim.metrics.counter("net.failures.host.down").value
    sim.run(until=200.0)
    assert sim.metrics.counter("net.failures.host.down").value == downs
    assert system.crashed_hosts() == []
