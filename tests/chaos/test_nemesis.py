"""ChaosPlan over real UDP sockets, and the wall-clock heal wait."""

import asyncio
from dataclasses import replace

import pytest

from repro.chaos import (
    AdversarySpec,
    ChaosPlan,
    ChaosSpec,
    HostChurnSpec,
    HostOutageSpec,
    LinkChurnSpec,
    LinkOutageSpec,
    PacketFaultSpec,
    PartitionSpec,
    PartitionWindowSpec,
    ServerOutageSpec,
    wait_healed,
)
from repro.io.crosscheck import (
    DEMO_CHAOS,
    CrosscheckResult,
    CrosscheckScenario,
    crosscheck,
    run_udp_async,
)
from repro.io.node import UdpBroadcastSystem, cluster_names
from repro.net import HostId
from repro.scenarios.partitions import WindowSpec
from repro.verify.monitor import InvariantMonitor, MonitorReport, ViolationSpan

SCENARIO = CrosscheckScenario(chaos=DEMO_CHAOS)


def make_system(scenario: CrosscheckScenario = SCENARIO) -> UdpBroadcastSystem:
    return UdpBroadcastSystem(
        cluster_names(scenario.clusters, scenario.hosts_per_cluster),
        config=scenario.config(), seed=scenario.seed,
        time_scale=scenario.time_scale)


def chaos(crash, faults, heal_by) -> ChaosSpec:
    """DEMO_CHAOS with its outage, fault window and horizon moved."""
    return ChaosSpec(
        heal_by=heal_by,
        host_outages=(HostOutageSpec("h1.1", *crash),),
        packet_faults=(PacketFaultSpec(drop_prob=0.08, corrupt_prob=0.05,
                                       start=faults[0], end=faults[1]),))


class TestSpecValidation:
    def test_backend_agnostic_subset_is_accepted(self):
        spec = ChaosSpec(
            heal_by=20.0,
            host_outages=(HostOutageSpec(host="h1.1", start=2.0, end=5.0),),
            host_churn=(HostChurnSpec(hosts=("h0.1",)),),
            packet_faults=(PacketFaultSpec(drop_prob=0.1),))

        async def main():
            system = make_system()
            await system.open()
            plan = ChaosPlan(system.runtime, system, spec)
            try:
                plan.start()
                return sum(t.tap is not None
                           for t in system.transports.values())
            finally:
                plan.stop()
                system.close()

        assert asyncio.run(main()) == 4

    @pytest.mark.parametrize("kind,spec", [
        ("link_outages", ChaosSpec(heal_by=10.0, link_outages=(
            LinkOutageSpec(a="h0.0", b="s0", start=1.0, end=2.0),))),
        ("server_outages", ChaosSpec(heal_by=10.0, server_outages=(
            ServerOutageSpec(server="s0", start=1.0, end=2.0),))),
        ("partitions", ChaosSpec(heal_by=10.0, partitions=(
            PartitionSpec(groups=(("h0.0",), ("h1.0",)),
                          start=1.0, end=2.0),))),
        ("window_partitions", ChaosSpec(heal_by=10.0, window_partitions=(
            PartitionWindowSpec(groups=(("h0.0",), ("h1.0",)),
                                window=WindowSpec(period=4.0, width=1.0),
                                until=8.0),))),
        ("link_churn", ChaosSpec(heal_by=10.0, link_churn=(
            LinkChurnSpec(links=(("h0.0", "s0"),)),))),
        ("adversaries", ChaosSpec(heal_by=10.0, adversaries=(
            AdversarySpec(host="h0.1", persona="stale_info"),))),
    ])
    def test_sim_only_fault_kinds_are_rejected_by_name(self, kind, spec):
        # Rejected before anything is armed: no loop, no open sockets.
        system = make_system()
        with pytest.raises(ValueError, match=kind):
            ChaosPlan(system.runtime, system, spec).start()


class TestNemesisOverUdp:
    def test_seeded_crash_and_loss_reach_full_delivery_post_heal(self):
        scenario = replace(SCENARIO, messages=5)

        async def main():
            system = make_system(scenario)
            await system.open()
            monitor = InvariantMonitor(system).start()
            plan = ChaosPlan(system.runtime, system, scenario.chaos)
            try:
                plan.start()
                system.broadcast_stream(scenario.messages,
                                        interval=scenario.interval,
                                        start_at=scenario.start_at)
                await wait_healed(plan)
                assert plan.healed
                # The heal-by guarantee: nobody is down past the horizon.
                assert system.crashed_hosts() == []
                delivered_all = await system.run_until_delivered(
                    scenario.messages, timeout=scenario.timeout)
                victim_crashed = system.runtime.metrics.counter(
                    "net.failures.host.down").value
                dropped = system.runtime.metrics.counter(
                    "chaos.packet.dropped").value
                return (delivered_all, victim_crashed, dropped,
                        system.delivered_seqnos(), monitor.report())
            finally:
                plan.stop()
                monitor.stop()
                system.close()

        delivered_all, crashed, dropped, seqnos, report = asyncio.run(main())
        assert delivered_all, f"post-heal delivery incomplete: {seqnos}"
        assert crashed >= 1  # the outage actually fired
        assert dropped >= 1  # the packet chaos actually bit
        expected = list(range(1, scenario.messages + 1))
        assert all(v == expected for v in seqnos.values())
        # The invariant monitor ran over the live UDP trace stream.
        assert report.samples > 0
        assert report.clean
        # The victim's crash -> first post-recovery delivery was observed.
        assert any(host == "h1.1" for host, _seconds in report.recoveries)

    def test_stop_before_horizon_forces_heal_and_is_idempotent(self):
        spec = chaos(crash=(400.0, 450.0), faults=(0.0, 500.0),
                     heal_by=500.0)

        async def main():
            system = make_system()
            await system.open()
            plan = ChaosPlan(system.runtime, system, spec)
            try:
                plan.start()
                tapped = [t for t in system.transports.values()
                          if t.tap is not None]
                assert tapped  # packet chaos is installed
                outage = list(plan._host_schedule._pending)
                plan.stop()  # run ends long before the horizon
                assert plan.healed
                assert all(t.tap is None
                           for t in system.transports.values())
                await wait_healed(plan)  # resolved: returns at once
                plan.stop()  # idempotent
                return outage
            finally:
                system.close()

        outage = asyncio.run(main())
        # The outage's crash (due at t=400) and recovery were cancelled.
        assert len(outage) == 2
        assert not any(handle.armed for handle in outage)

    def test_heal_recovers_a_host_whose_outage_ends_at_the_horizon(self):
        # Over a wall clock the outage's recovery, due at heal_by, may
        # fire after the heal timer: the heal must not leave it down.
        spec = ChaosSpec(heal_by=50.0, host_outages=(
            HostOutageSpec("h1.1", 0.0, 50.0),))

        async def main():
            system = make_system()
            await system.open()
            plan = ChaosPlan(system.runtime, system, spec)
            try:
                plan.start()
                await asyncio.sleep(0.1)  # 2 protocol seconds
                assert system.crashed_hosts() == [HostId("h1.1")]
                plan._heal_timer.cancel()
                plan._heal()  # the heal fires first
                return system.crashed_hosts()
            finally:
                plan.stop()
                system.close()

        assert asyncio.run(main()) == []

    def test_crash_hook_cancels_pending_injections_for_victim(self):
        # A dup with a huge lag queued toward the victim must die with
        # the victim's crash, exactly as in-sim.
        spec = ChaosSpec(
            heal_by=12.0,
            host_outages=(HostOutageSpec(host="h1.1", start=4.0, end=8.0),),
            packet_faults=(PacketFaultSpec(dst="h1.1", dup_prob=1.0,
                                           dup_lag=300.0, end=4.0),))

        async def main():
            system = make_system()
            await system.open()
            plan = ChaosPlan(system.runtime, system, spec)
            try:
                plan.start()
                system.broadcast_stream(3, interval=1.0, start_at=1.0)
                await wait_healed(plan)
                metrics = system.runtime.metrics
                return (metrics.counter("chaos.packet.duplicated").value,
                        metrics.counter(
                            "chaos.packet.cancelled_crashed").value)
            finally:
                plan.stop()
                system.close()

        duplicated, cancelled = asyncio.run(main())
        assert duplicated >= 1
        assert cancelled == duplicated  # every far-future dup was killed

    def test_wait_healed_raises_a_callback_failure(self):
        def boom():
            raise RuntimeError("injector bug")

        async def main():
            system = make_system()
            await system.open()
            plan = ChaosPlan(system.runtime, system, ChaosSpec(heal_by=40.0))
            try:
                plan.start()
                system.runtime.start_timer(1.0, boom)
                with pytest.raises(RuntimeError, match="injector bug"):
                    await wait_healed(plan)
            finally:
                plan.stop()
                system.close()

        asyncio.run(main())

    def test_wait_healed_times_out_on_a_stalled_heal(self):
        async def main():
            system = make_system()
            await system.open()
            plan = ChaosPlan(system.runtime, system, ChaosSpec(heal_by=2.0))
            try:
                plan.start()
                plan.runtime.cancel_timer(plan._heal_timer)  # never heals
                with pytest.raises(TimeoutError, match="heal_by=2.0"):
                    await wait_healed(plan, wall_slack=0.1)
            finally:
                plan.stop()
                system.close()

        asyncio.run(main())


class TestChaosParity:
    def test_same_seeded_spec_on_both_backends(self):
        result = crosscheck(replace(SCENARIO, messages=5))
        assert result.ok, result.report()

    def test_run_udp_async_returns_report(self):
        scenario = replace(SCENARIO, messages=3,
                           chaos=chaos(crash=(3.0, 7.0), faults=(2.0, 10.0),
                                       heal_by=12.0))
        delivered, report = asyncio.run(run_udp_async(scenario))
        assert sorted(delivered) == sorted(
            str(HostId(f"h{c}.{h}")) for c in range(2) for h in range(2))
        assert report.samples > 0

    def test_stable_violations_fail_the_verdict(self):
        full = [1, 2]
        span = ViolationSpan(key=("harmful_cycle", "h0.0"), first_seen=0.0,
                             last_seen=30.0, stable=True,
                             unresolved_at_end=True)
        result = CrosscheckResult(
            sim_delivered={"h0.0": full}, udp_delivered={"h0.0": full},
            expected=full, udp_report=MonitorReport(
                samples=30, spans=(span,), recoveries=(("h0.0", 3.0),)))
        assert not result.ok
        assert "FAILED" in result.report()
        assert "1 stable, 1 unresolved" in result.report()

    def test_incomplete_delivery_on_either_backend_fails_the_verdict(self):
        full, clean = [1, 2, 3], MonitorReport(0, (), ())

        def verdict(sim, udp):
            return CrosscheckResult(sim_delivered={"h0.0": sim},
                                    udp_delivered={"h0.0": udp},
                                    expected=full, udp_report=clean).ok

        assert verdict(full, full)
        assert not verdict(full, [1, 2])
        assert not verdict([1, 3], full)
