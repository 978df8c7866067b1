"""Tests for adversarial packet-level fault injection (PacketChaos)."""

import pytest

from repro.chaos import ChaosPlan, ChaosSpec, HostOutageSpec, PacketChaos, \
    PacketFaultSpec
from repro.baseline import BasicBroadcastSystem, EpidemicBroadcastSystem
from repro.core import BroadcastSystem, ProtocolConfig
from repro.core.seqnoset import SeqnoSet
from repro.core.wire import InfoMsg, corrupted_copy, forged_copy
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator


def build_system(seed=1, k=2, m=2, **config_overrides):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                        backbone="line", convergence_delay=0.0)
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(
        k * m, **config_overrides))
    return sim, built, system.start()


def run_stream(sim, system, n=5, until=60.0):
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    sim.run(until=until)
    return system


def test_spec_validates_probabilities_and_windows():
    with pytest.raises(ValueError):
        PacketFaultSpec(corrupt_prob=1.5)
    with pytest.raises(ValueError):
        PacketFaultSpec(dup_prob=-0.1)
    with pytest.raises(ValueError):
        PacketFaultSpec(delay=-1.0)
    with pytest.raises(ValueError):
        PacketFaultSpec(start=5.0, end=5.0)


def test_corruption_is_detected_and_dropped():
    sim, built, system = build_system()
    PacketChaos(sim, built.network, (PacketFaultSpec(corrupt_prob=0.3),)).start()
    run_stream(sim, system)
    assert sim.metrics.counter("chaos.packet.corrupted").value > 0
    assert sim.metrics.counter("proto.wire.corrupt_dropped").value > 0
    # Corruption slows delivery but must not poison protocol state.
    assert system.run_until_delivered(5, timeout=300.0)


@pytest.mark.parametrize("system_class", [
    BroadcastSystem, BasicBroadcastSystem, EpidemicBroadcastSystem])
def test_every_protocol_drops_payloads_that_fail_their_checksum(system_class):
    sim = Simulator(seed=1)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                        backbone="line", convergence_delay=0.0)
    system = system_class(built).start()
    PacketChaos(sim, built.network, (PacketFaultSpec(corrupt_prob=1.0),)).start()
    run_stream(sim, system, n=3)
    assert all(len(host.deliveries) == 0
               for h, host in system.hosts.items() if h != system.source_id)
    dropped = sim.metrics.counter("proto.wire.corrupt_dropped").value
    assert dropped > 0
    assert dropped == (
        sim.metrics.counter("proto.wire.corrupt_dropped.dup_uid").value
        + sim.metrics.counter("proto.wire.corrupt_dropped.forged_uid").value)


def test_duplicated_control_packets_are_suppressed():
    sim, built, system = build_system()
    PacketChaos(sim, built.network, (PacketFaultSpec(dup_prob=0.5),)).start()
    run_stream(sim, system)
    assert sim.metrics.counter("chaos.packet.duplicated").value > 0
    assert sim.metrics.counter("proto.wire.dup_suppressed").value > 0
    assert system.run_until_delivered(5, timeout=300.0)


def test_replayed_stale_packets_do_not_wedge_the_protocol():
    sim, built, system = build_system()
    PacketChaos(sim, built.network,
                (PacketFaultSpec(replay_prob=0.3, replay_lag=5.0),)).start()
    run_stream(sim, system)
    assert sim.metrics.counter("chaos.packet.replayed").value > 0
    assert system.run_until_delivered(5, timeout=300.0)
    # Every host must still deliver each seqno exactly once.
    for host_id, records in system.delivery_records().items():
        seqs = [r.seq for r in records]
        assert len(seqs) == len(set(seqs)), (host_id, seqs)


def test_delayed_packets_arrive_late_not_never():
    sim, built, system = build_system()
    PacketChaos(sim, built.network,
                (PacketFaultSpec(delay_prob=0.4, delay=1.0),)).start()
    run_stream(sim, system)
    assert sim.metrics.counter("chaos.packet.delayed").value > 0
    assert system.run_until_delivered(5, timeout=300.0)


def test_dst_and_window_scoping():
    sim, built, system = build_system()
    victim = str(sorted(built.hosts)[1])
    chaos = PacketChaos(sim, built.network,
                        (PacketFaultSpec(dst=victim, start=0.0, end=4.0,
                                         corrupt_prob=1.0),)).start()
    # Only the victim's port is tapped.
    tapped = [str(port.host_id) for port, _tap in chaos._tapped]
    assert tapped == [victim]
    run_stream(sim, system, until=30.0)
    # After the window closed, corruption stopped; stream still completes.
    corrupted_at_4 = sim.metrics.counter("chaos.packet.corrupted").value
    sim.run(until=40.0)
    assert sim.metrics.counter("chaos.packet.corrupted").value == corrupted_at_4
    assert system.run_until_delivered(5, timeout=300.0)


def test_stop_removes_taps_and_cancels_pending_injections():
    sim, built, system = build_system()
    chaos = PacketChaos(sim, built.network,
                        (PacketFaultSpec(dup_prob=1.0, dup_lag=50.0),)).start()
    run_stream(sim, system, until=10.0)
    assert chaos._pending  # far-future duplicates are in flight
    recv_at_stop = sim.metrics.counter("net.h2h.recv").value
    duplicated = sim.metrics.counter("chaos.packet.duplicated").value
    chaos.stop()
    assert not chaos._pending
    for port in [built.network.host_port(h) for h in built.network.hosts()]:
        assert port.tap is None
    # The cancelled duplicates never arrive, and no new ones are made.
    sim.run(until=70.0)
    assert sim.metrics.counter("chaos.packet.duplicated").value == duplicated
    assert sim.metrics.counter("net.h2h.recv").value >= recv_at_stop


def test_chaos_plan_composes_packet_faults_and_heals():
    sim, built, system = build_system()
    plan = ChaosPlan(sim, system, ChaosSpec(
        heal_by=15.0,
        # open-ended window: clamped to heal_by when the plan starts
        packet_faults=(PacketFaultSpec(corrupt_prob=0.5, start=1.0),),
    )).start()
    run_stream(sim, system, until=16.0)
    assert sim.metrics.counter("chaos.packet.corrupted").value > 0
    corrupted_at_heal = sim.metrics.counter("chaos.packet.corrupted").value
    sim.run(until=40.0)
    # Healed: no post-horizon corruption, every port untapped.
    assert sim.metrics.counter("chaos.packet.corrupted").value == corrupted_at_heal
    for host in built.network.hosts():
        assert built.network.host_port(host).tap is None
    assert plan  # plan object stays alive for inspection


def test_spec_rejects_packet_fault_window_past_heal_by():
    # A finite rule window reaching past the horizon is a spec bug, not
    # something to clamp silently; the error must name the rule.
    with pytest.raises(ValueError, match=r"ends at 100\.0.*heal_by.*15\.0"):
        ChaosSpec(heal_by=15.0,
                  packet_faults=(PacketFaultSpec(corrupt_prob=0.5, start=1.0,
                                                 end=100.0),))
    # At-the-horizon and open-ended windows are both fine.
    ChaosSpec(heal_by=15.0,
              packet_faults=(PacketFaultSpec(corrupt_prob=0.5, end=15.0),))
    ChaosSpec(heal_by=15.0, packet_faults=(PacketFaultSpec(drop_prob=0.1),))


def test_crash_cancels_pending_injections_for_the_victim():
    # A duplicate queued with a long lag toward a host that crashes
    # mid-window must be cancelled: a recovering host must not receive
    # chaos-made copies of packets from before its crash.
    sim, built, system = build_system()
    victim = str(sorted(built.hosts)[1])
    plan = ChaosPlan(sim, system, ChaosSpec(
        heal_by=30.0,
        host_outages=(HostOutageSpec(host=victim, start=10.0, end=20.0),),
        packet_faults=(PacketFaultSpec(dst=victim, dup_prob=1.0,
                                       dup_lag=50.0, end=9.0),),
    )).start()
    run_stream(sim, system, until=9.5)
    assert sim.metrics.counter("chaos.packet.duplicated").value > 0
    pending = [dst for chaos in plan._packet_chaos
               for dst in chaos._pending.values()]
    assert HostId(victim) in pending  # far-future dups queued pre-crash
    sim.run(until=11.0)  # the crash fires, taking the queue with it
    assert sim.metrics.counter("chaos.packet.cancelled_crashed").value \
        == len(pending)
    assert not any(chaos._pending for chaos in plan._packet_chaos)
    assert system.run_until_delivered(5, timeout=300.0)


def test_corrupt_drops_split_dup_uid_from_forged_uid():
    sim, built, system = build_system()
    run_stream(sim, system, until=20.0)  # protocol is up and attached
    hosts = sorted(built.hosts)
    src, dst = hosts[0], hosts[1]
    info = SeqnoSet()
    info.add(1)
    msg = InfoMsg(sender=src, info=info, parent=None)
    port = built.network.host_port(src)
    # 1) honest delivery: dst records (src, uid) as seen
    port.send(dst, msg)
    sim.run(until=sim.now + 2.0)
    base_dup = sim.metrics.counter(
        "proto.wire.corrupt_dropped.dup_uid").value
    base_forged = sim.metrics.counter(
        "proto.wire.corrupt_dropped.forged_uid").value
    # 2) a mangled retransmission of the *same* uid -> dup_uid
    port.send(dst, corrupted_copy(msg))
    # 3) a corrupt message with a never-seen uid -> forged_uid
    port.send(dst, corrupted_copy(forged_copy(msg, uid=0)))
    sim.run(until=sim.now + 2.0)
    dup = sim.metrics.counter("proto.wire.corrupt_dropped.dup_uid").value
    forged = sim.metrics.counter(
        "proto.wire.corrupt_dropped.forged_uid").value
    assert dup == base_dup + 1
    assert forged == base_forged + 1
    # The legacy aggregate keeps its name and covers both.
    assert sim.metrics.counter("proto.wire.corrupt_dropped").value >= \
        dup + forged - base_dup - base_forged


def test_corrupt_split_counters_sum_to_aggregate_under_chaos():
    sim, built, system = build_system()
    PacketChaos(sim, built.network,
                (PacketFaultSpec(corrupt_prob=0.3),)).start()
    run_stream(sim, system)
    total = sim.metrics.counter("proto.wire.corrupt_dropped").value
    split = (sim.metrics.counter("proto.wire.corrupt_dropped.dup_uid").value
             + sim.metrics.counter(
                 "proto.wire.corrupt_dropped.forged_uid").value)
    assert total > 0 and total == split


def test_same_seed_same_fault_sequence():
    counters = []
    for _ in range(2):
        sim, built, system = build_system(seed=9)
        PacketChaos(sim, built.network,
                    (PacketFaultSpec(corrupt_prob=0.2, dup_prob=0.2,
                                     delay_prob=0.2),)).start()
        run_stream(sim, system)
        counters.append(tuple(
            sim.metrics.counter(name).value
            for name in ("chaos.packet.corrupted", "chaos.packet.duplicated",
                         "chaos.packet.delayed", "net.h2h.recv")))
    assert counters[0] == counters[1]
