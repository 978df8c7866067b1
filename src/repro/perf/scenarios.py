"""The pinned scenario matrix.

Each scenario is a deterministic, self-contained simulation run.  The
seed-determinism guard tests run them twice and demand bit-identical
outcomes; the repo benchmark (``bench/``) times the kernel scenario and
hashes :meth:`ScenarioRun.delivery_signature` into its run signature.

Scenario parameters are **pinned**: changing them changes what the
determinism guard and the benchmark's kernel driver measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import Simulator, summarize_kinds

#: Smaller data payloads, matching the experiment sweeps' convention
#: (keeps 56 kbit/s trunks out of saturation under the basic algorithm).
_DATA_BITS = 4_000


@dataclass
class ScenarioRun:
    """A finished scenario: the simulator plus optional protocol system."""

    sim: Simulator
    system: Optional[Any] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def trace_kinds(self) -> Dict[str, int]:
        """Histogram of retained trace-record kinds."""
        return summarize_kinds(self.sim.trace)

    def delivery_signature(self) -> List[Tuple[str, int, float, str]]:
        """Canonical, order-stable list of every delivery that happened.

        Entries are ``(host, seq, delivered_at, supplier)``.  Two runs
        of the same seeded scenario must produce byte-identical
        signatures — this is what the determinism guard compares.
        """
        if self.system is None:
            return []
        out: List[Tuple[str, int, float, str]] = []
        for host_id, records in sorted(self.system.delivery_records().items(),
                                       key=lambda kv: str(kv[0])):
            for record in records:
                out.append((str(host_id), record.seq, record.delivered_at,
                            str(record.supplier)))
        return out


RunFn = Callable[[bool, int], ScenarioRun]


@dataclass(frozen=True)
class Scenario:
    """One named entry in the benchmark matrix."""

    name: str
    description: str
    _run: RunFn
    default_seed: int

    def run(self, quick: bool = False, seed: Optional[int] = None) -> ScenarioRun:
        """Execute the scenario; ``quick`` shrinks it for CI."""
        return self._run(quick, self.default_seed if seed is None else seed)


# ----------------------------------------------------------------------
# kernel_throughput — synthetic event-loop micro-benchmark
# ----------------------------------------------------------------------


def _run_kernel_throughput(quick: bool, seed: int) -> ScenarioRun:
    """Pure kernel stress: deep heap, call_soon pushes, cancels, dead emits.

    Tracing is disabled (the tracer's zero-cost path is itself part of
    what is measured).  The workload keeps ~``width`` events pending so
    heap sifts dominate, mixes in ``call_soon`` hops, and cancels a
    fraction of events — the three shapes protocol code actually
    produces.
    """
    n_events = 100_000 if quick else 400_000
    width = 2_000
    sim = Simulator(seed=seed)
    sim.trace.enabled = False
    state = {"count": 0, "victim": None}

    def tick(i: int) -> None:
        state["count"] += 1
        sim.trace.emit("bench.tick", "kernel", i=i)  # exercises the dead path
        if state["count"] >= n_events:
            return
        step = state["count"] & 7
        if step == 0:
            sim.call_soon(hop, i)
        else:
            sim.schedule(0.0001 * (1 + (i * 7919) % 97), tick, i)
            if step == 3:
                # Cancel-and-replace, the timer-refresh idiom hosts use.
                victim = state["victim"]
                if victim is not None:
                    sim.try_cancel(victim)
                state["victim"] = sim.schedule(5.0, noop)

    def hop(i: int) -> None:
        state["count"] += 1
        if state["count"] < n_events:
            sim.schedule(0.0001 * (1 + (i * 31) % 89), tick, i)

    def noop() -> None:
        state["count"] += 1

    for i in range(width):
        sim.schedule(0.0001 * (1 + (i * 7919) % 97), tick, i)
    sim.run(max_events=n_events)
    return ScenarioRun(sim=sim, meta={"n_events": n_events, "width": width})


# ----------------------------------------------------------------------
# Experiment-shaped scenarios (tree protocol on wan-of-LANs topologies)
# ----------------------------------------------------------------------


def _tree_system(sim: Simulator, clusters: int, hosts_per_cluster: int,
                 backbone: str):
    from ..core import BroadcastSystem, ProtocolConfig
    from ..net import wan_of_lans

    built = wan_of_lans(sim, clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster,
                        backbone=backbone)
    config = ProtocolConfig.for_scale(clusters * hosts_per_cluster,
                                      data_size_bits=_DATA_BITS)
    return BroadcastSystem(built, config=config).start(), built


def _run_e2_delay(quick: bool, seed: int) -> ScenarioRun:
    """E2-shaped workload: failure-free stream on a line backbone."""
    clusters, hosts = (3, 2) if quick else (4, 4)
    n = 10 if quick else 20
    sim = Simulator(seed=seed)
    system, _ = _tree_system(sim, clusters, hosts, "line")
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    system.run_until_delivered(n, timeout=600.0)
    return ScenarioRun(sim=sim, system=system,
                       meta={"clusters": clusters, "hosts_per_cluster": hosts,
                             "messages": n})


def _run_e5_congestion(quick: bool, seed: int) -> ScenarioRun:
    """E5-shaped workload: star backbone concentrating source load."""
    clusters, hosts = (3, 4) if quick else (4, 8)
    n = 10 if quick else 20
    sim = Simulator(seed=seed)
    system, _ = _tree_system(sim, clusters, hosts, "star")
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    system.run_until_delivered(n, timeout=600.0)
    return ScenarioRun(sim=sim, system=system,
                       meta={"clusters": clusters, "hosts_per_cluster": hosts,
                             "messages": n})


def _run_e20_churn(quick: bool, seed: int) -> ScenarioRun:
    """E20-shaped workload: host crash/recovery churn while streaming."""
    from ..chaos import ChaosPlan, ChaosSpec, HostChurnSpec

    clusters, hosts = (2, 2) if quick else (3, 2)
    n = 10 if quick else 20
    heal_by = 30.0 if quick else 60.0
    sim = Simulator(seed=seed)
    system, built = _tree_system(sim, clusters, hosts, "line")
    churned = tuple(str(h) for h in built.hosts if h != system.source_id)
    ChaosPlan(sim, system, ChaosSpec(
        heal_by=heal_by,
        host_churn=(HostChurnSpec(churned, mean_up=25.0, mean_down=5.0),),
    )).start()
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    sim.run(until=heal_by + 1.0)
    system.run_until_delivered(n, timeout=400.0)
    return ScenarioRun(sim=sim, system=system,
                       meta={"clusters": clusters, "hosts_per_cluster": hosts,
                             "messages": n, "heal_by": heal_by})


def _run_e21_adversarial(quick: bool, seed: int) -> ScenarioRun:
    """E21-shaped workload: adaptive control plane under packet chaos.

    Exercises the RTT estimators, backoff paths, checksum validation,
    and the PacketChaos tap — the code this scenario exists to keep
    honest.  Trunk loss plus corruption/delay/replay faults, adaptive
    timeouts on.
    """
    from ..chaos import ChaosPlan, ChaosSpec, HostOutageSpec, PacketFaultSpec
    from ..core import BroadcastSystem, ProtocolConfig
    from ..net import expensive_spec, wan_of_lans

    clusters, hosts = (2, 2) if quick else (3, 2)
    n = 10 if quick else 20
    heal_by = 20.0 if quick else 40.0
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters, hosts_per_cluster=hosts,
                        backbone="line",
                        expensive=expensive_spec(loss_prob=0.10))
    config = ProtocolConfig.for_scale(clusters * hosts,
                                      data_size_bits=_DATA_BITS,
                                      crash_stable_lag=1, adaptive=True)
    system = BroadcastSystem(built, config=config).start()
    victims = [str(h) for h in built.hosts if h != system.source_id]
    ChaosPlan(sim, system, ChaosSpec(
        heal_by=heal_by,
        host_outages=(HostOutageSpec(victims[-1], 8.0, 12.0),),
        packet_faults=(PacketFaultSpec(
            start=2.0, end=heal_by, corrupt_prob=0.08, delay_prob=0.2,
            delay=0.6, replay_prob=0.05, replay_lag=2.0),),
    )).start()
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    sim.run(until=heal_by + 1.0)
    system.run_until_delivered(n, timeout=400.0)
    return ScenarioRun(sim=sim, system=system,
                       meta={"clusters": clusters, "hosts_per_cluster": hosts,
                             "messages": n, "heal_by": heal_by})


def _run_e25_saturation(quick: bool, seed: int) -> ScenarioRun:
    """E25-shaped workload: open-loop overload on the shedding tree.

    Bursty arrivals at roughly twice the trunk's sustainable rate, with
    bounded buffers, load shedding, and admission control all switched
    on — the hot paths this scenario keeps honest are the per-send
    queue-depth check, store/fill-table eviction, and the token bucket.
    """
    from ..core import BroadcastSystem, ProtocolConfig, ResourceConfig
    from ..experiments.saturation import CountingSource, schedule_open_loop
    from ..net import wan_of_lans

    clusters, hosts = (2, 2) if quick else (3, 2)
    duration = 10.0 if quick else 25.0
    rate = 12.0  # the tree sustains ~6 msg/s on 56 kbit/s trunks
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters, hosts_per_cluster=hosts,
                        backbone="line")
    config = ProtocolConfig.for_scale(
        clusters * hosts, data_size_bits=_DATA_BITS,
        resources=ResourceConfig(store_limit=64, fill_table_limit=512,
                                 outbound_queue_limit=32,
                                 admission_rate=6.0, admission_burst=8))
    system = BroadcastSystem(built, config=config).start()
    counting = CountingSource(system.source)
    schedule_open_loop(sim, counting, "bursty", rate=rate,
                       duration=duration, start_at=2.0)
    sim.run(until=2.0 + duration)
    system.run_until_delivered(counting.admitted, timeout=240.0)
    return ScenarioRun(sim=sim, system=system,
                       meta={"clusters": clusters, "hosts_per_cluster": hosts,
                             "offered": counting.offered,
                             "admitted": counting.admitted,
                             "rate": rate, "duration": duration})


#: the pinned matrix, in execution order
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario("kernel_throughput",
                 "synthetic event-loop stress (deep heap + call_soon + cancels)",
                 _run_kernel_throughput, default_seed=1),
        Scenario("e2_delay",
                 "failure-free broadcast stream, line backbone (E2 shape)",
                 _run_e2_delay, default_seed=1),
        Scenario("e5_congestion",
                 "source-congestion stream, star backbone (E5 shape)",
                 _run_e5_congestion, default_seed=4),
        Scenario("e20_churn",
                 "host crash/recovery churn while streaming (E20 shape)",
                 _run_e20_churn, default_seed=18),
        Scenario("e21_adversarial",
                 "adaptive control plane under packet chaos (E21 shape)",
                 _run_e21_adversarial, default_seed=21),
        Scenario("e25_saturation",
                 "open-loop overload on the shedding tree (E25 shape)",
                 _run_e25_saturation, default_seed=25),
    )
}
