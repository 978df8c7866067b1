"""One crash model for every protocol (:class:`repro.core.delivery.HostCore`).

The tree and the basic algorithm in-sim, and the tree over localhost
UDP, crash and recover one receiver and the source through the same
ChaosPlan outages.  Every protocol must report them with the same trace
kinds, field names and counters: the experiments that compare protocols
under host crashes (E20, E23, E24) count these records.
"""

import asyncio

import pytest

from repro.baseline import BasicBroadcastSystem, EpidemicBroadcastSystem
from repro.chaos import ChaosPlan, ChaosSpec, HostOutageSpec, wait_healed
from repro.core import BroadcastHost, BroadcastSystem, ClusterMode, ProtocolConfig
from repro.core.wire import DataMsg
from repro.io import UdpBroadcastSystem, cluster_names
from repro.net import HostId, Packet, wan_of_lans
from repro.sim import Simulator

#: trace kind -> the field names every protocol emits with it
FIELDS = {
    "host.crash": {"stable_prefix", "lost"},
    "host.recover": {"down_for"},
    "host.drop_crashed": {"src", "payload_kind"},
    "host.recovery_delivery": {"elapsed", "seq"},
}
RECEIVER = HostId("h1.0")
N = 6


def outages(source: HostId) -> ChaosSpec:
    """The receiver is down over [3, 6), the source over [4, 7)."""
    return ChaosSpec(heal_by=10.0, host_outages=(
        HostOutageSpec(str(RECEIVER), 3.0, 6.0),
        HostOutageSpec(str(source), 4.0, 7.0)))


def observe(system, down_at_5):
    """What the crash model left in the trace and metrics, then its
    idempotence: recovering a host that is up and crashing a crashed
    one change nothing."""
    runtime = system.runtime
    sink = runtime.trace_sink
    seen = dict(
        # records(kind=...) matches a prefix: host.recover would take
        # in host.recovery_delivery too
        fields={kind: [set(record.fields) for record in sink.records(kind=kind)
                       if record.kind == kind]
                for kind in FIELDS},
        recovered=[record.source
                   for record in sink.records(kind="host.recovery_delivery")],
        recovery_times=runtime.histogram("proto.host.recovery_time").count,
        counters={name: runtime.counter(name).value for name in (
            "proto.host.crash", "proto.host.recover",
            "proto.host.drop_crashed")},
        down_at_5=down_at_5,
        down_at_end=system.crashed_hosts(),
        source=str(system.source_id))
    system.recover_host(RECEIVER)
    system.crash_host(RECEIVER)
    system.crash_host(RECEIVER)
    seen["idempotent"] = (runtime.counter("proto.host.recover").value,
                          runtime.counter("proto.host.crash").value,
                          system.crashed_hosts())
    system.recover_host(RECEIVER)
    return seen


def run_sim(system_class, config):
    sim = Simulator(seed=1)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2, backbone="line",
                        convergence_delay=0.0)
    system = system_class(built, config=config).start()
    down_at_5 = []
    ChaosPlan(system.runtime, system, outages(system.source_id)).start()
    system.runtime.start_timer(
        5.0, lambda: down_at_5.append(system.crashed_hosts()))
    system.broadcast_stream(N, interval=1.0, start_at=1.0)
    assert system.run_until_delivered(N, timeout=300.0)
    return observe(system, down_at_5)


def run_udp():
    async def main():
        system = UdpBroadcastSystem(
            cluster_names(2, 2), seed=7, time_scale=0.05,
            config=ProtocolConfig.for_scale(
                4, cluster_mode=ClusterMode.STATIC))
        await system.open()
        down_at_5 = []
        plan = ChaosPlan(system.runtime, system, outages(system.source_id))
        try:
            plan.start()
            system.runtime.start_timer(
                5.0, lambda: down_at_5.append(system.crashed_hosts()))
            system.broadcast_stream(N, interval=1.0, start_at=1.0)
            await wait_healed(plan)
            assert await system.run_until_delivered(N, timeout=150.0)
            return observe(system, down_at_5)
        finally:
            plan.stop()
            system.close()
    return asyncio.run(main())


RUNS = {
    "tree": lambda: run_sim(BroadcastSystem, ProtocolConfig.for_scale(4)),
    "basic": lambda: run_sim(BasicBroadcastSystem, None),
    "udp_tree": run_udp,
}


@pytest.mark.parametrize("protocol", RUNS)
def test_crash_and_recovery_are_reported_alike(protocol):
    seen = RUNS[protocol]()
    for kind, names in FIELDS.items():
        assert seen["fields"][kind], kind
        assert all(fields == names for fields in seen["fields"][kind]), kind
    assert len(seen["fields"]["host.crash"]) == 2
    assert len(seen["fields"]["host.recover"]) == 2
    assert seen["counters"]["proto.host.crash"] == 2
    assert seen["counters"]["proto.host.recover"] == 2
    assert seen["counters"]["proto.host.drop_crashed"] > 0
    assert seen["down_at_5"] == [sorted([RECEIVER, HostId(seen["source"])])]
    assert seen["down_at_end"] == []
    # Recovery time is observed once per recovered receiver and never
    # for the source, which delivers its own messages at issue time.
    assert seen["recovered"] == [str(RECEIVER)]
    assert seen["recovery_times"] == 1
    assert seen["idempotent"] == (2, 3, [RECEIVER])


@pytest.mark.parametrize("system_class", [BroadcastSystem, BasicBroadcastSystem])
def test_lost_counts_the_deliveries_a_crash_forgets(system_class):
    built = wan_of_lans(Simulator(seed=1), clusters=2, hosts_per_cluster=2,
                        backbone="line", convergence_delay=0.0)
    system = system_class(built)
    host, source = system.hosts[RECEIVER], system.source_id
    if isinstance(host, BroadcastHost):
        host.parent = source  # new maxima are accepted from the parent only
    for seq in (1, 2, 3, 5, 8):
        host._on_packet(Packet(src=source, dst=RECEIVER, payload=DataMsg(
            seq, None, 0.0, source, False, 8_000)))
    host.crash()
    [crash] = system.runtime.trace_sink.records(kind="host.crash")
    # 5 and 8 are forgotten; the holes 4, 6 and 7 were never delivered.
    assert dict(crash.fields) == {"stable_prefix": 3, "lost": 2}


def test_epidemic_host_refuses_to_crash():
    built = wan_of_lans(Simulator(seed=0), clusters=2, hosts_per_cluster=2)
    host = EpidemicBroadcastSystem(built).hosts[RECEIVER]
    with pytest.raises(NotImplementedError):
        host.crash()
    assert not host.crashed
