"""Host crash/recovery: stable-storage semantics and catch-up.

The failure model (paper Section 2): a crashing host loses all volatile
protocol state — only the stable prefix of delivered messages survives
— and its neighbors are never notified.  On recovery it re-enters the
attachment procedure as a fresh orphan and catches up via gap filling.
"""

import pytest

from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator


def build_system(seed=1, k=2, m=2, **overrides):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m, backbone="line",
                        convergence_delay=0.0)
    system = BroadcastSystem(
        built, config=ProtocolConfig.for_scale(k * m, **overrides))
    return sim, built, system.start()


def settle_stream(system, n, timeout=200.0):
    system.broadcast_stream(n, interval=0.5, start_at=1.0)
    assert system.run_until_delivered(n, timeout=timeout)


def test_crash_wipes_volatile_state_keeps_stable_prefix():
    sim, built, system = build_system(crash_stable_lag=2)
    settle_stream(system, 8)
    victim = system.hosts[HostId("h1.1")]
    assert victim.parent is not None
    victim.crash()
    assert victim.crashed
    # Stable storage keeps the contiguous prefix minus the lag.
    assert victim.info.max_seqno == 6
    assert len(victim.deliveries) == 6
    assert 7 not in victim.store and 8 not in victim.store
    # All volatile protocol state is gone: the host is a fresh orphan
    # (and hence, by the Section 4.1 reading, its own trivial leader).
    assert victim.parent is None
    assert victim.children == set()
    assert victim.is_cluster_leader


def test_repeated_crashes_never_lose_already_flushed_messages():
    """Regression: the stable prefix is a monotone flush point.  Each
    crash used to subtract crash_stable_lag from the *current* prefix,
    so rapid crash/recover cycles ratcheted a host below what the rest
    of the network had already pruned, leaving permanent gaps."""
    sim, built, system = build_system(crash_stable_lag=2)
    settle_stream(system, 8)
    victim = system.hosts[HostId("h1.1")]
    victim.crash()
    first_stable = victim.info.max_seqno
    assert first_stable == 6
    for _ in range(3):  # no redelivery in between: nothing new to lose
        victim.recover()
        victim.crash()
    assert victim.info.max_seqno == first_stable
    assert len(victim.deliveries) == first_stable


def test_crashed_host_drops_inbound_packets():
    sim, built, system = build_system()
    victim = HostId("h1.0")
    system.crash_host(victim)
    system.broadcast_stream(4, interval=0.5, start_at=1.0)
    sim.run(until=30.0)
    assert len(system.hosts[victim].deliveries) == 0
    assert sim.metrics.counter("proto.host.drop_crashed").value > 0


def test_recovered_host_reattaches_and_delivers_full_stream():
    """The acceptance scenario: crash a non-source host mid-stream; after
    recovery it re-attaches to the tree and delivers every message."""
    sim, built, system = build_system(k=3, m=2, crash_stable_lag=1)
    victim = HostId("h2.0")
    system.broadcast_stream(12, interval=1.0, start_at=1.0)
    sim.schedule_at(4.0, lambda: system.crash_host(victim))
    sim.schedule_at(10.0, lambda: system.recover_host(victim))
    assert system.run_until_delivered(12, timeout=400.0)
    host = system.hosts[victim]
    assert not host.crashed
    assert host.parent is not None  # re-attached
    assert host.deliveries.has_all(12)
    # Exactly one recovery, with its time-to-first-delivery measured.
    recoveries = sim.trace.records(kind="host.recovery_delivery")
    assert [r.source for r in recoveries] == [str(victim)]
    assert recoveries[0].fields["elapsed"] > 0
    assert sim.metrics.histogram("proto.host.recovery_time").count == 1


def test_crash_during_attachment_handshake_recovers():
    """Crashing while an attach handshake is pending must not wedge the
    host after recovery (the pending state is volatile)."""
    sim, built, system = build_system(k=3, m=2)
    victim = HostId("h1.1")
    sim.schedule_at(0.3, lambda: system.crash_host(victim))
    sim.schedule_at(5.0, lambda: system.recover_host(victim))
    system.broadcast_stream(6, interval=1.0, start_at=1.0)
    assert system.run_until_delivered(6, timeout=400.0)
    assert system.hosts[victim].parent is not None


def test_source_crash_keeps_outbox_and_stream_resumes():
    """The source's outbox is stable storage: messages broadcast while
    it is down reach everyone after it recovers."""
    sim, built, system = build_system()
    source = system.source
    sim.schedule_at(3.0, source.crash)
    sim.schedule_at(9.0, source.recover)
    system.broadcast_stream(8, interval=1.0, start_at=1.0)
    assert system.run_until_delivered(8, timeout=400.0)
    # Sequence numbering survived the crash: no renumbering, no gaps.
    assert source.info.max_seqno == 8
    crashed_issues = [r for r in sim.trace.records(kind="source.broadcast")
                      if r.fields["while_crashed"]]
    assert crashed_issues  # some messages were issued while down


def test_stop_start_is_a_safe_restart_pair():
    """Regression: stop() used to leave a dangling pending-attach state
    whose ack timer had been cancelled, so a restarted host never ran
    its attachment procedure again."""
    sim, built, system = build_system(k=3, m=2)
    victim = system.hosts[HostId("h1.0")]
    sim.run(until=0.5)  # mid-handshake territory
    victim.stop()
    sim.run(until=3.0)
    victim.start()
    system.broadcast_stream(6, interval=1.0, start_at=sim.now + 1.0)
    assert system.run_until_delivered(6, timeout=400.0)
    assert victim.parent is not None


def test_stop_start_twice_keeps_timers_armed():
    sim, built, system = build_system()
    host = system.hosts[HostId("h0.1")]
    host.stop()
    host.start()
    host.stop()
    host.start()
    settle_stream(system, 4)


def test_pruning_leaves_crash_margin():
    """INFO pruning stays crash_stable_lag behind the global minimum, so
    a post-prune crash can never roll a host below every store."""
    lag = 3
    sim, built, system = build_system(crash_stable_lag=lag)
    settle_stream(system, 10)
    sim.run(until=sim.now + 120.0)  # plenty of exchange/prune ticks
    for host in system.hosts.values():
        assert host.info.floor <= 10 - lag
    # Without the margin the default config prunes all the way.
    sim2, built2, system2 = build_system(seed=2)
    settle_stream(system2, 10)
    sim2.run(until=sim2.now + 120.0)
    assert any(host.info.floor > 0 for host in system2.hosts.values())


def test_crash_stable_lag_validated():
    with pytest.raises(ValueError):
        ProtocolConfig(crash_stable_lag=-1)
