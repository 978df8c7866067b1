"""Seed-matched sim-vs-UDP cross-check (the ``demo udp`` harness).

The sans-IO contract in one sentence: the protocol machines validated
deterministically in simulation are the machines deployed over real
sockets.  This harness makes that checkable end to end — run the same
seed-matched 2-cluster scenario once on the discrete-event backend and
once over localhost UDP, optionally under one seeded
:class:`~repro.chaos.plan.ChaosSpec` that
:class:`~repro.chaos.plan.ChaosPlan` injects on both, and compare the
per-host delivered sequence number sets.

The comparison unit is deliberately the *delivered seqno set*, not the
delivery signature: timestamps and suppliers legitimately differ
between virtual and wall-clock time (UDP reorders, timers jitter in
real time), but a reliable broadcast must hand every host exactly
messages 1..n on both backends, faults or not.  The UDP run also keeps
an :class:`~repro.verify.monitor.InvariantMonitor` sampling, and the
verdict requires it to see no stable violation.

Both runs use ``ClusterMode.STATIC`` with the same cluster map — the
UDP side has no cost bits, so the sim side gets the same a-priori
knowledge to keep the scenarios genuinely matched.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..chaos import ChaosPlan, ChaosSpec, HostOutageSpec, PacketFaultSpec
from ..chaos.nemesis import wait_healed
from ..core.config import ClusterMode, ProtocolConfig
from ..core.engine import BroadcastSystem
from ..net.generator import wan_of_lans
from ..sim import Simulator
from ..verify.monitor import InvariantMonitor, MonitorReport
from .node import UdpBroadcastSystem, cluster_names

#: the ``demo udp-chaos`` fault plan: one outage of a non-source host
#: plus a window of packet loss and corruption, all healed by t=20
DEMO_CHAOS = ChaosSpec(
    heal_by=20.0,
    host_outages=(HostOutageSpec(host="h1.1", start=6.0, end=12.0),),
    packet_faults=(PacketFaultSpec(drop_prob=0.08, corrupt_prob=0.05,
                                   start=2.0, end=18.0),))


@dataclass(frozen=True)
class CrosscheckScenario:
    """One seed-matched scenario, shared by both backends."""

    clusters: int = 2
    hosts_per_cluster: int = 2
    messages: int = 5
    interval: float = 1.0
    start_at: float = 2.0
    seed: int = 7
    #: protocol-seconds budget for full delivery on either backend
    #: (over UDP, counted from the heal when there is chaos)
    timeout: float = 150.0
    #: UDP wall-clock compression (0.05 = 20x faster than real time)
    time_scale: float = 0.05
    #: faults injected on both backends, or None for a fault-free run
    chaos: Optional[ChaosSpec] = None

    def config(self) -> ProtocolConfig:
        n = self.clusters * self.hosts_per_cluster
        return ProtocolConfig.for_scale(
            n, cluster_mode=ClusterMode.STATIC, data_size_bits=4_000,
            crash_stable_lag=2 if self.chaos is not None else 0)


@dataclass(frozen=True)
class CrosscheckResult:
    """Per-host delivered seqno sets from both backends, plus the UDP
    run's invariant report."""

    sim_delivered: Dict[str, List[int]]
    udp_delivered: Dict[str, List[int]]
    expected: List[int]
    udp_report: MonitorReport

    @property
    def ok(self) -> bool:
        """The verdict (the demo's exit status): every host on both
        backends delivered exactly 1..n, and the UDP monitor saw zero
        stable violations."""
        full = {host: self.expected for host in self.sim_delivered}
        return (self.sim_delivered == self.udp_delivered == full
                and self.udp_report.clean)

    def report(self) -> str:
        """Human-readable comparison table plus the oracle verdict."""
        lines = [f"{'host':>8}  {'sim':<28} {'udp':<28}"]
        for name in sorted(self.sim_delivered.keys()
                           | self.udp_delivered.keys()):
            sim_v = self.sim_delivered.get(name, [])
            udp_v = self.udp_delivered.get(name, [])
            mark = "ok" if sim_v == udp_v == self.expected else "DIFFERS"
            lines.append(f"{name:>8}  {str(sim_v):<28} {str(udp_v):<28} "
                         f"{mark}")
        report = self.udp_report
        lines.append(
            f"udp invariants: {len(report.stable_violations)} stable, "
            f"{len(report.unresolved_violations)} unresolved at end")
        if report.recoveries:
            times = ", ".join(f"{host}={seconds:.1f}s"
                              for host, seconds in report.recoveries)
            lines.append(f"udp recoveries: {times}")
        lines.append(
            f"verdict: {'PARITY' if self.ok else 'FAILED'} (expected "
            f"1..{len(self.expected)} on every host of both backends, "
            f"no stable invariant violation over UDP)")
        return "\n".join(lines)


def run_sim(scenario: CrosscheckScenario) -> Dict[str, List[int]]:
    """The scenario on the discrete-event backend."""
    sim = Simulator(seed=scenario.seed)
    built = wan_of_lans(sim, clusters=scenario.clusters,
                        hosts_per_cluster=scenario.hosts_per_cluster,
                        backbone="line")
    system = BroadcastSystem(built, config=scenario.config()).start()
    if scenario.chaos is not None:
        ChaosPlan(sim, system, scenario.chaos).start()
    system.broadcast_stream(scenario.messages, interval=scenario.interval,
                            start_at=scenario.start_at)
    system.run_until_delivered(scenario.messages, timeout=scenario.timeout)
    return system.delivered_seqnos()


async def run_udp_async(
    scenario: CrosscheckScenario,
) -> Tuple[Dict[str, List[int]], MonitorReport]:
    """The scenario over localhost UDP sockets (call under a loop).

    Returns the per-host delivered seqnos and the invariant monitor's
    report.
    """
    system = UdpBroadcastSystem(
        cluster_names(scenario.clusters, scenario.hosts_per_cluster),
        config=scenario.config(), seed=scenario.seed,
        time_scale=scenario.time_scale, trace=False)
    await system.open()
    monitor = InvariantMonitor(system).start()
    plan: Optional[ChaosPlan] = None
    try:
        if scenario.chaos is not None:
            plan = ChaosPlan(system.runtime, system, scenario.chaos).start()
        system.broadcast_stream(scenario.messages,
                                interval=scenario.interval,
                                start_at=scenario.start_at)
        if plan is not None:
            await wait_healed(plan)
        await system.run_until_delivered(scenario.messages,
                                         timeout=scenario.timeout)
    finally:
        if plan is not None:
            plan.stop()
        monitor.stop()
        system.close()
    return system.delivered_seqnos(), monitor.report()


def crosscheck(
    scenario: Optional[CrosscheckScenario] = None,
) -> CrosscheckResult:
    """Run both backends and compare delivered seqno sets per host."""
    scenario = scenario or CrosscheckScenario()
    sim_delivered = run_sim(scenario)
    udp_delivered, report = asyncio.run(run_udp_async(scenario))
    return CrosscheckResult(
        sim_delivered=sim_delivered, udp_delivered=udp_delivered,
        expected=list(range(1, scenario.messages + 1)), udp_report=report)


__all__ = [
    "DEMO_CHAOS",
    "CrosscheckResult",
    "CrosscheckScenario",
    "crosscheck",
    "run_sim",
    "run_udp_async",
]
