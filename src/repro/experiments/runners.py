"""Experiment runners: one function per experiment in DESIGN.md.

Each ``run_eN_*`` function builds fresh simulations, drives the
workload, and returns an :class:`ExperimentResult` whose rows are the
paper-style table.  Above each runner sit its claims: what that table
must bear out, each with its paper section and threshold, written for
the runner's defaults.  ``@register("EN", claims)`` adds the pair to
the registry, in definition order; the order of this file is the
canonical E-series order.  :func:`deploy` is the one place a protocol
name becomes a started system; runners whose configs differ on purpose
(E6b, E7, E8's tree, E9, E13-E15, E17, E18) build theirs explicitly.
``python -m repro experiments`` runs every runner at its defaults and
prints each table with its verdict; EXPERIMENTS.md records the output.

All runners are deterministic for a given ``seed``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    CounterSnapshot,
    congestion_report,
    cost_report,
    delay_stats,
    delivery_fraction,
    optimal_inter_cluster_cost,
    recovery_locality,
    system_delay_stats,
    time_to_full_delivery,
    traffic_report,
)
from ..baseline import (
    BasicBroadcastSystem,
    BasicConfig,
    EpidemicBroadcastSystem,
    EpidemicConfig,
)
from ..core import BroadcastSystem, ClusterMode, ProtocolConfig, ResourceConfig
from ..net import (
    HostId,
    LinkFlapper,
    cheap_spec,
    expensive_spec,
    link_pressure,
    wan_of_lans,
)
from ..scenarios import (
    BriefWindowSchedule,
    WindowSpec,
    figure_3_1,
    figure_3_2,
    figure_4_1,
    midstream_partition,
)
from ..exec import Executor, SerialExecutor, WorkItem, values_or_raise
from ..sim import Simulator
from ..verify import check_all, run_to_quiescence, true_leaders
from .records import ExperimentResult, Judge
from .registry import register
from .saturation import (
    CountingSource,
    SloSpec,
    delivery_latency_stats,
    measure_capacity,
    schedule_open_loop,
)

#: smaller data messages for sweeps that must not saturate 56 kbit/s
#: trunks under the basic algorithm's N-copies-per-message load
SWEEP_DATA_BITS = 4_000

#: protocol names :func:`deploy` knows
PROTOCOLS: Tuple[str, ...] = ("tree", "basic", "epidemic")


def deploy(protocol: str, built, **overrides):
    """Build and start ``protocol`` over ``built`` with the sweep config.

    ``"tree"`` is :class:`BroadcastSystem` under
    ``ProtocolConfig.for_scale(len(built.hosts))``; ``"basic"`` and
    ``"epidemic"`` are the baselines under their default configs.  All
    three send ``SWEEP_DATA_BITS`` data messages; ``overrides`` replace
    config fields.
    """
    settings = {"data_size_bits": SWEEP_DATA_BITS, **overrides}
    if protocol == "tree":
        system = BroadcastSystem(built, config=ProtocolConfig.for_scale(
            len(built.hosts), **settings))
    elif protocol == "basic":
        system = BasicBroadcastSystem(built, config=BasicConfig(**settings))
    elif protocol == "epidemic":
        system = EpidemicBroadcastSystem(built,
                                         config=EpidemicConfig(**settings))
    else:
        raise ValueError(f"unknown protocol {protocol!r}; known: "
                         f"{', '.join(PROTOCOLS)}")
    return system.start()


def _map_items(executor: Optional[Executor],
               items: Sequence[WorkItem]) -> List[Any]:
    """Run work items (serially by default) and unwrap their values.

    Runners that fan out per grid point route *all* execution — serial
    included — through this, so ``--jobs 1`` and ``--jobs N`` follow
    the identical code path and merge rows in identical (submission)
    order.  A failed point raises :class:`~repro.exec.ExecutionError`
    naming the offending key.
    """
    return values_or_raise((executor or SerialExecutor()).map(items))


def _run_stream(system, n: int, interval: float, warmup: int,
                timeout: float, settle: float = 20.0,
                ) -> Tuple[bool, float, CounterSnapshot, float]:
    """Warmup, settle, snapshot, stream, wait.

    The settle phase lets the host parent graph converge (attachment,
    leader election, gap-fill cleanup) before the measured window, so
    marginal costs reflect steady state rather than tree construction.
    Returns (ok, completion_time, snapshot, warmup_end_time).
    """
    sim = system.sim
    if warmup:
        system.broadcast_stream(warmup, interval=interval, start_at=sim.now + 1.0)
        system.run_until_delivered(warmup, timeout=timeout)
        sim.run(until=sim.now + settle)
    snapshot = CounterSnapshot(sim)
    warmup_end = sim.now
    system.broadcast_stream(n, interval=interval, start_at=sim.now + 1.0)
    ok = system.run_until_delivered(warmup + n, timeout=timeout)
    return ok, sim.now, snapshot, warmup_end


# ----------------------------------------------------------------------
# E1 / E2 — cost and delay vs the basic algorithm, failure-free sweep
# ----------------------------------------------------------------------


def _sweep_point(protocol: str, k: int, m: int, seed: int, n: int,
                 interval: float, warmup: int) -> Dict[str, float]:
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m, backbone="line")
    system = deploy(protocol, built)
    ok, done_at, snapshot, warmup_end = _run_stream(
        system, n, interval, warmup, timeout=600.0)
    cost = cost_report(sim, n, since=snapshot)
    delays = system_delay_stats(system.delivery_records(), system.source_id,
                                since_seq=warmup)
    return {
        "ok": ok,
        "inter_cluster_per_msg": cost.inter_cluster_data_per_msg,
        "delay_mean": delays.mean,
        "delay_p99": delays.p99,
    }


def _e1_e2_items(experiment: str, ks: Sequence[int], ms: Sequence[int],
                 seed: int, n: int, interval: float,
                 warmup: int) -> List[WorkItem]:
    """(protocol, k, m) grid for E1/E2, in deterministic order."""
    return [
        WorkItem(key=(experiment, protocol, k, m), fn=_sweep_point,
                 kwargs=dict(protocol=protocol, k=k, m=m, seed=seed, n=n,
                             interval=interval, warmup=warmup))
        for k in ks for m in ms for protocol in ("tree", "basic")
    ]


def _e1_claims(v: Judge) -> None:
    v.each("§5 ¶2-3: tree <= 1.6 x (k-1) + 0.5",
           lambda r: r["tree"] <= 1.6 * r["optimal"] + 0.5, "tree", "optimal")
    v.each("§5 ¶2-3: basic > tree once clusters hold several hosts",
           lambda r: r["basic"] > r["tree"], "basic", "tree",
           rows=[r for r in v.rows if r["hosts_per_cluster"] >= 2])
    ms = sorted({r["hosts_per_cluster"] for r in v.rows})
    basic, tree = ([sum(r[c] for r in v.where(hosts_per_cluster=m))
                    for m in (ms[0], ms[-1])] for c in ("basic", "tree"))
    v.claim("§5 ¶2-3: summed over k, basic at the most hosts per cluster "
            "> 2 x at the fewest", basic[1] > 2 * basic[0], basic=basic)
    v.claim("§5 ¶2-3: ... while the tree's stays < 1.5 x + 1",
            tree[1] < 1.5 * tree[0] + 1.0, tree=tree)


@register("E1", _e1_claims)
def run_e1_cost(seed: int = 1, ks: Sequence[int] = (2, 4, 6),
                ms: Sequence[int] = (1, 2, 4), n: int = 20,
                interval: float = 2.0, warmup: int = 5,
                executor: Optional[Executor] = None) -> ExperimentResult:
    """E1: inter-cluster transmissions per message, tree vs basic."""
    result = ExperimentResult(
        "E1", "Inter-cluster data transmissions per message (failure-free)",
        ["clusters", "hosts_per_cluster", "optimal", "tree", "basic",
         "tree_vs_optimal", "basic_vs_tree"])
    items = _e1_e2_items("E1", ks, ms, seed, n, interval, warmup)
    values = dict(zip((i.key for i in items), _map_items(executor, items)))
    for k in ks:
        for m in ms:
            tree = values[("E1", "tree", k, m)]
            basic = values[("E1", "basic", k, m)]
            optimal = optimal_inter_cluster_cost(k)
            result.add_row(
                clusters=k, hosts_per_cluster=m, optimal=optimal,
                tree=tree["inter_cluster_per_msg"],
                basic=basic["inter_cluster_per_msg"],
                tree_vs_optimal=(tree["inter_cluster_per_msg"] / optimal
                                 if optimal else float("nan")),
                basic_vs_tree=(basic["inter_cluster_per_msg"]
                               / tree["inter_cluster_per_msg"]
                               if tree["inter_cluster_per_msg"] else float("nan")))
    result.note("paper: tree needs k-1 (optimal); basic needs >= k-1, "
                "growing with hosts per cluster")
    return result


def _e2_claims(v: Judge) -> None:
    v.each("§5 ¶4: up to 12 hosts, tree_mean < 3 x basic_mean + 0.05",
           lambda r: r["tree_mean"] < 3 * r["basic_mean"] + 0.05,
           "tree_mean", "basic_mean",
           rows=[r for r in v.rows
                 if r["clusters"] * r["hosts_per_cluster"] <= 12])
    v.each("§5 ¶4: at the last point tree_mean < 2 x basic_mean",
           lambda r: r["tree_mean"] < 2 * r["basic_mean"],
           "tree_mean", "basic_mean", rows=v.rows[-1:])
    v.each("§5 ¶4: on 2 x 2 both mean delays < 1 s",
           lambda r: max(r["tree_mean"], r["basic_mean"]) < 1.0,
           "tree_mean", "basic_mean",
           rows=v.where(clusters=2, hosts_per_cluster=2))


@register("E2", _e2_claims)
def run_e2_delay(seed: int = 1, ks: Sequence[int] = (2, 4, 6),
                 ms: Sequence[int] = (2, 4), n: int = 20,
                 interval: float = 2.0, warmup: int = 5,
                 executor: Optional[Executor] = None) -> ExperimentResult:
    """E2: delivery delay, tree vs basic (expected comparable)."""
    result = ExperimentResult(
        "E2", "Delivery delay (failure-free)",
        ["clusters", "hosts_per_cluster", "tree_mean", "basic_mean",
         "tree_p99", "basic_p99"])
    items = _e1_e2_items("E2", ks, ms, seed, n, interval, warmup)
    values = dict(zip((i.key for i in items), _map_items(executor, items)))
    for k in ks:
        for m in ms:
            tree = values[("E2", "tree", k, m)]
            basic = values[("E2", "basic", k, m)]
            result.add_row(clusters=k, hosts_per_cluster=m,
                           tree_mean=tree["delay_mean"],
                           basic_mean=basic["delay_mean"],
                           tree_p99=tree["delay_p99"],
                           basic_p99=basic["delay_p99"])
    result.note("paper: delay comparable; basic rides shortest paths, tree "
                "pays extra hops but avoids per-copy serialization at the source")
    return result


# ----------------------------------------------------------------------
# E3 — recovery locality under message loss
# ----------------------------------------------------------------------


def _e3_claims(v: Judge) -> None:
    v.each("§5 ¶5: everyone gets everything", lambda r: r["delivered"] == 1.0,
           "delivered")
    v.each("§5 ¶5: basic always redelivers from the source",
           lambda r: r["from_source_fraction"] == 1.0, "from_source_fraction",
           rows=v.where(protocol="basic"))
    v.each("§5 ¶5: the tree redelivers locally: local > 0.3, from source "
           "< 0.8", lambda r: r["local_fraction"] > 0.3
           and r["from_source_fraction"] < 0.8,
           "local_fraction", "from_source_fraction",
           rows=v.where(protocol="tree"))


@register("E3", _e3_claims)
def run_e3_recovery(seed: int = 2, losses: Sequence[float] = (0.02, 0.05, 0.1, 0.2),
                    k: int = 3, m: int = 3, n: int = 30,
                    interval: float = 1.0) -> ExperimentResult:
    """E3: who redelivers lost messages, and at what cost."""
    result = ExperimentResult(
        "E3", "Recovery under loss: delivery and redelivery locality",
        ["loss", "protocol", "delivered", "recoveries",
         "local_fraction", "from_source_fraction", "delay_mean"])
    for loss in losses:
        for protocol in ("tree", "basic"):
            sim = Simulator(seed=seed)
            built = wan_of_lans(
                sim, clusters=k, hosts_per_cluster=m, backbone="line",
                cheap=cheap_spec(loss_prob=loss),
                expensive=expensive_spec(loss_prob=loss))
            system = deploy(protocol, built)
            system.broadcast_stream(n, interval=interval, start_at=2.0)
            system.run_until_delivered(n, timeout=600.0)
            records = system.delivery_records()
            locality = recovery_locality(records, built.network, system.source_id)
            delays = system_delay_stats(records, system.source_id)
            result.add_row(
                loss=loss, protocol=protocol,
                delivered=delivery_fraction(records, n, system.source_id),
                recoveries=locality.total_recoveries,
                local_fraction=locality.local_fraction,
                from_source_fraction=locality.source_fraction,
                delay_mean=delays.mean)
    result.note("paper: tree redelivers from cluster neighbors / parent "
                "cluster; basic always redelivers from the source")
    return result


# ----------------------------------------------------------------------
# E4 — behavior during and after a partition
# ----------------------------------------------------------------------


def _e4_claims(v: Judge) -> None:
    v.each("§5 ¶6: both complete after the repair",
           lambda r: r["delivered_all"], "delivered_all")
    sends = {r["protocol"]: r["sends_toward_partitioned_per_s"]
             for r in v.rows}
    v.claim("§5 ¶6: basic keeps sending into the partition, > 2 x the tree",
            sends["basic"] > 2 * sends["tree"], **sends)


@register("E4", _e4_claims)
def run_e4_partition(seed: int = 3, k: int = 3, m: int = 2,
                     partition: Tuple[float, float] = (10.0, 40.0),
                     n: int = 30, interval: float = 1.0) -> ExperimentResult:
    """E4: wasted traffic during a partition; completion after repair."""
    result = ExperimentResult(
        "E4", "Mid-stream partition of one cluster",
        ["protocol", "sends_toward_partitioned_per_s", "delivered_all",
         "completion_after_heal_s"])
    start, end = partition
    for protocol in ("tree", "basic"):
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                            backbone="line")
        isolated = set(str(h) for h in built.clusters[-1])
        midstream_partition(built, cluster_index=k - 1, start=start, end=end)
        system = deploy(protocol, built)
        system.broadcast_stream(n, interval=interval, start_at=2.0)
        ok = system.run_until_delivered(n, timeout=600.0)
        completion = time_to_full_delivery(system.delivery_records(), n,
                                           system.source_id)
        sends = [r for r in sim.trace.records(kind="net.host_send",
                                              since=start)
                 if r.time < end and r["dst"] in isolated
                 and r.source not in isolated]
        result.add_row(
            protocol=protocol,
            sends_toward_partitioned_per_s=len(sends) / (end - start),
            delivered_all=ok,
            completion_after_heal_s=(completion - end if ok else float("nan")))
    result.note("paper: basic wastefully keeps unicasting into the "
                "partition; the tree side only probes, and both complete "
                "after the repair")
    return result


# ----------------------------------------------------------------------
# E5 — source-server congestion
# ----------------------------------------------------------------------


def _e5_point(protocol: str, k: int, m: int, seed: int, n: int,
              interval: float) -> Dict[str, Any]:
    """One E5 grid point: build, stream, report congestion."""
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                        backbone="star")
    system = deploy(protocol, built)
    system.broadcast_stream(n, interval=interval, start_at=2.0)
    system.run_until_delivered(n, timeout=600.0)
    report = congestion_report(sim, built.network, system.source_id)
    return dict(hosts=k * m, protocol=protocol,
                source_access_tx_per_msg=report.source_access_tx / n,
                concentration=report.concentration,
                source_peak_queue=report.source_peak_queue)


def _e5_claims(v: Judge) -> None:
    sides = dict(basic=dict(protocol="basic"), tree=dict(protocol="tree"))
    v.each("§5 ¶7: basic's source-link concentration > 3 x the tree's",
           lambda r: r["basic"] > 3 * r["tree"], "basic", "tree",
           rows=v.versus("hosts", "concentration", **sides))
    v.each("§5 ¶7: basic sends more per message through the source link",
           lambda r: r["basic"] > r["tree"], "basic", "tree",
           rows=v.versus("hosts", "source_access_tx_per_msg", **sides))
    basic = [r["concentration"] for r in
             sorted(v.where(protocol="basic"), key=lambda r: r["hosts"])]
    v.claim("§5 ¶7: basic's concentration at the largest N > 2 x the "
            "smallest", basic[-1] > 2 * basic[0], basic=basic)


@register("E5", _e5_claims)
def run_e5_congestion(seed: int = 4, k: int = 4,
                      ms: Sequence[int] = (2, 4, 8), n: int = 20,
                      interval: float = 1.0,
                      executor: Optional[Executor] = None) -> ExperimentResult:
    """E5: load concentration on the source's access link."""
    result = ExperimentResult(
        "E5", "Source access-link load (congestion)",
        ["hosts", "protocol", "source_access_tx_per_msg", "concentration",
         "source_peak_queue"])
    items = [
        WorkItem(key=("E5", protocol, m), fn=_e5_point,
                 kwargs=dict(protocol=protocol, k=k, m=m, seed=seed, n=n,
                             interval=interval))
        for m in ms for protocol in ("tree", "basic")
    ]
    for row in _map_items(executor, items):
        result.add_row(**row)
    result.note("paper: basic funnels one copy per destination through the "
                "source's server; the tree distributes dissemination")
    return result


# ----------------------------------------------------------------------
# E6 — control traffic independent of the data stream, and tunable
# ----------------------------------------------------------------------


def _e6_claims(v: Judge) -> None:
    tree, basic = ([r["control_sent"] for r in sorted(
        v.where(protocol=p), key=lambda r: r["data_messages"])]
        for p in ("tree", "basic"))
    v.claim("§5 ¶8: tree control is independent of the data count: within "
            "10 % of the shortest stream's", all(
                abs(c - tree[0]) < 0.1 * tree[0] for c in tree), tree=tree)
    v.claim("§5 ¶8: basic's acks start at 0 and grow with the stream",
            basic[0] == 0 and all(a < b for a, b in zip(basic, basic[1:])),
            basic=basic)


@register("E6", _e6_claims)
def run_e6_control(seed: int = 5, k: int = 3, m: int = 3,
                   stream_sizes: Sequence[int] = (0, 50, 200),
                   horizon: float = 120.0) -> ExperimentResult:
    """E6: control messages over a fixed horizon vs stream length."""
    result = ExperimentResult(
        "E6", "Control traffic vs number of data messages (fixed horizon)",
        ["data_messages", "protocol", "control_sent", "control_per_s",
         "data_sent"])
    for n in stream_sizes:
        for protocol in ("tree", "basic"):
            sim = Simulator(seed=seed)
            built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                                backbone="line")
            system = deploy(protocol, built)
            if n:
                system.broadcast_stream(
                    n, interval=(horizon * 0.7) / n, start_at=2.0)
            sim.run(until=horizon)
            report = traffic_report(sim)
            result.add_row(data_messages=n, protocol=protocol,
                           control_sent=report.control_sent,
                           control_per_s=report.control_sent / horizon,
                           data_sent=report.data_sent)
    result.note("paper: tree control traffic is independent of the number "
                "of data messages; basic's acks grow linearly with it")
    return result


def _e6b_claims(v: Judge) -> None:
    control = [r["control_sent"] for r in
               sorted(v.rows, key=lambda r: r["scale_factor"])]
    v.claim("§5 ¶8, §6: tunable: each faster setting sends > 1.5 x the next",
            all(a > 1.5 * b for a, b in zip(control, control[1:])),
            control_sent=control)


@register("E6b", _e6b_claims)
def run_e6_tuning(seed: int = 5, k: int = 3, m: int = 3,
                  factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                  horizon: float = 120.0) -> ExperimentResult:
    """E6b: the same control traffic under exchange-period scaling."""
    result = ExperimentResult(
        "E6b", "Control traffic vs exchange-period scale factor (no data)",
        ["scale_factor", "control_sent", "control_per_s"])
    for factor in factors:
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                            backbone="line")
        config = ProtocolConfig.for_scale(
            k * m, data_size_bits=SWEEP_DATA_BITS).scaled(factor)
        system = BroadcastSystem(built, config=config).start()
        sim.run(until=horizon)
        report = traffic_report(sim)
        result.add_row(scale_factor=factor, control_sent=report.control_sent,
                       control_per_s=report.control_sent / horizon)
    result.note("paper: exchange frequencies 'can be adjusted as desired'")
    return result


# ----------------------------------------------------------------------
# E7 — reliability vs cost under brief connectivity windows
# ----------------------------------------------------------------------


def _e7_claims(v: Judge) -> None:
    rows = sorted(v.rows, key=lambda r: r["scale_factor"])
    control = [r["control_sent"] for r in rows]
    v.claim("§6 ¶2: control cost falls at every slower setting",
            all(a > b for a, b in zip(control, control[1:])),
            control_sent=control)
    fast, slow = rows[0]["delivered_fraction"], rows[-1]["delivered_fraction"]
    v.claim("§6 ¶2: the fastest delivers more than the slowest, by > 0.3",
            fast >= slow and fast - slow > 0.3, fastest=fast, slowest=slow)


@register("E7", _e7_claims)
def run_e7_tradeoff(seed: int = 6,
                    factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
                    window: WindowSpec = WindowSpec(period=30.0, width=4.0,
                                                    first_open=20.0),
                    horizon: float = 150.0, n: int = 10,
                    trials: int = 5) -> ExperimentResult:
    """E7: exploiting brief windows costs control traffic (Section 6).

    Averaged over ``trials`` seeds: a single run's outcome depends on
    how the protocol's (jittered) exchange phases happen to align with
    the connectivity windows.
    """
    from ..analysis.stats import summarize

    result = ExperimentResult(
        "E7", "Reliability vs cost under brief connectivity windows",
        ["scale_factor", "delivered_fraction", "delivered_ci95",
         "control_sent", "expensive_control"])
    for factor in factors:
        fractions = []
        control_acc = expensive_acc = 0.0
        for trial in range(trials):
            sim = Simulator(seed=seed + trial)
            built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                                backbone="line")
            BriefWindowSchedule(sim, built, built.backbone, window,
                                until=horizon)
            config = ProtocolConfig(data_size_bits=SWEEP_DATA_BITS).scaled(factor)
            system = BroadcastSystem(built, config=config).start()
            # The stream happens while the trunk is down.
            system.broadcast_stream(n, interval=0.5, start_at=5.0)
            sim.run(until=horizon)
            records = system.delivery_records()
            cut_hosts = [h for h in built.hosts if str(h).startswith("h1")]
            fractions.append(delivery_fraction(
                {h: records[h] for h in cut_hosts}, n))
            control_acc += traffic_report(sim).control_sent
            expensive_acc += sim.metrics.counter(
                "net.h2h.recv.expensive.kind.control").value
        summary = summarize(fractions)
        result.add_row(scale_factor=factor,
                       delivered_fraction=summary.mean,
                       delivered_ci95=summary.ci95_half_width,
                       control_sent=control_acc / trials,
                       expensive_control=expensive_acc / trials)
    result.note("paper Section 6: more frequent exchange exploits brief "
                "windows better, at higher (control) cost")
    return result


# ----------------------------------------------------------------------
# E8 — Figure 3.1: host-level broadcast vs the multicast lower bound
# ----------------------------------------------------------------------


def _e8_claims(v: Judge) -> None:
    cost = {r["scheme"].split()[0]: r["link_traversals_per_msg"]
            for r in v.rows}
    v.claim("§3, Fig 3.1: server multicast crosses each of 6 links once",
            cost["server"] == 6.0, server=cost["server"])
    v.claim("§3, Fig 3.1: host-level schemes cross s1-s4 twice: basic in "
            "[7.5, 8.5], tree in [7.5, 9] and above the bound",
            7.5 <= cost["basic"] <= 8.5 and 7.5 <= cost["tree"] <= 9.0
            and cost["tree"] > cost["server"], **cost)


@register("E8", _e8_claims)
def run_e8_fig31(seed: int = 7, n: int = 20, interval: float = 1.0,
                 warmup: int = 5) -> ExperimentResult:
    """E8: link traversals per message on the Figure 3.1 diamond."""
    result = ExperimentResult(
        "E8", "Figure 3.1: link traversals per data message",
        ["scheme", "link_traversals_per_msg"])
    # Server multicast lower bound: every link exactly once.
    sim0 = Simulator(seed=seed)
    built0 = figure_3_1(sim0)
    lower_bound = len(built0.network.links)
    result.add_row(scheme="server multicast (lower bound)",
                   link_traversals_per_msg=float(lower_bound))
    for protocol in ("tree", "basic"):
        sim = Simulator(seed=seed)
        built = figure_3_1(sim)
        # Both protocols run their default (full-size) data messages.
        if protocol == "tree":
            system = BroadcastSystem(built, config=ProtocolConfig()).start()
        else:
            system = deploy("basic", built,
                            data_size_bits=BasicConfig.data_size_bits)
        _, _, snapshot, _ = _run_stream(system, n, interval, warmup,
                                        timeout=300.0)
        # Count only data-message traversals (control excluded to match
        # the figure's argument about a single broadcast message).
        data_tx = snapshot.delta(sim)["net.link_tx.kind.data"]
        result.add_row(scheme=protocol, link_traversals_per_msg=data_tx / n)
    result.note("paper Section 3: without programmable servers no protocol "
                "reaches the in-network lower bound (6 here); host-level "
                "schemes traverse s1-s4 twice (8)")
    return result


# ----------------------------------------------------------------------
# E9 — Figure 4.1: non-neighbor gap filling under source isolation
# ----------------------------------------------------------------------


def _e9_claims(v: Judge) -> None:
    v.key = ("host",)
    other = {"i": "j", "j": "i"}
    v.each("§4.4, Fig 4.1: i starts with {1, 3} and j with {2, 3}",
           lambda r: r["before"] == {"i": "[1, 3]", "j": "[2, 3]"}[r["host"]],
           "before")
    v.each("§4.4, Fig 4.1: both end with {1, 2, 3} without re-attaching",
           lambda r: r["after"] == "[1, 2, 3]" and r["reattached"] is False,
           "after", "reattached")
    v.each("§4.4, Fig 4.1: each is gap-filled by the other, a non-neighbor",
           lambda r: r["gap_supplier"] == other[r["host"]], "gap_supplier")


@register("E9", _e9_claims)
def run_e9_fig41(seed: int = 8) -> ExperimentResult:
    """E9: i={1,3}, j={2,3}, source isolated; both must converge."""
    result = ExperimentResult(
        "E9", "Figure 4.1: non-neighbor gap filling with the source isolated",
        ["host", "before", "after", "gap_supplier", "reattached"])
    sim = Simulator(seed=seed)
    built = figure_4_1(sim)
    config = ProtocolConfig(gapfill_nonneighbor_period=5.0,
                            info_inter_period=3.0,
                            parent_timeout_inter=10_000.0)
    system = BroadcastSystem(built, source=HostId("s"), config=config).start()
    s = system.source
    host_i = system.hosts[HostId("i")]
    host_j = system.hosts[HostId("j")]

    def seed_state() -> None:
        # Source has generated 1..3; i saw 1,3; j saw 2,3; both are
        # children of s in the parent graph (the Figure 4.1 state).
        for _ in range(3):
            s.broadcast()
        for host in (host_i, host_j):
            host.parent = s.me
            host._arm_parent_timer()
            s.children.add(host.me)
            s._child_since[host.me] = sim.now
        host_i._on_data(s.store[1], s.me)
        host_i._on_data(s.store[3], s.me)
        host_j._on_data(s.store[2], s.me)
        host_j._on_data(s.store[3], s.me)

    sim.schedule_at(0.5, seed_state)

    def isolate_source() -> None:
        built.network.set_link_state("ss", "si", up=False)
        built.network.set_link_state("ss", "sj", up=False)
        built.network.set_link_state("s", "ss", up=False)

    sim.schedule_at(1.0, isolate_source)
    before = {}
    sim.schedule_at(1.1, lambda: before.update(
        {"i": sorted(host_i.info), "j": sorted(host_j.info)}))
    sim.run(until=60.0)
    for name, host in (("i", host_i), ("j", host_j)):
        missing = [seq for seq in (1, 2, 3) if seq not in before.get(name, [])]
        supplier = None
        for seq in missing:
            record = host.deliveries.get(seq)
            if record is not None:
                supplier = str(record.supplier)
        result.add_row(host=name, before=str(before.get(name)),
                       after=str(sorted(host.info)),
                       gap_supplier=supplier or "-",
                       reattached=host.parent != s.me)
    result.note("paper Section 4.4: neither INFO set precedes the other, so "
                "no re-parenting happens; only non-neighbor gap filling can "
                "reconcile i and j while s is unreachable")
    return result


# ----------------------------------------------------------------------
# E10 — ablations: cluster knowledge modes and the delay optimization
# ----------------------------------------------------------------------


def _e10_claims(v: Judge) -> None:
    v.each("§6 ¶3: every cluster-knowledge mode delivers",
           lambda r: r["delivered"] == 1.0, "delivered")
    dynamic, static, singleton = (v.one(variant=name)["inter_cluster_per_msg"]
                                  for name in ("dynamic clusters (paper)",
                                               "static clusters",
                                               "no cluster info (singletons)"))
    v.claim("§6 ¶3: no cluster info costs > 1.5 x dynamic; static < 2 x",
            singleton > 1.5 * dynamic and static < 2 * dynamic,
            dynamic=dynamic, static=static, singleton=singleton)


@register("E10", _e10_claims)
def run_e10_ablation(seed: int = 9, k: int = 3, m: int = 3, n: int = 30,
                     interval: float = 1.0, churn: bool = True) -> ExperimentResult:
    """E10: dynamic vs static vs no cluster knowledge; II.3 on/off."""
    result = ExperimentResult(
        "E10", "Ablations under backbone churn",
        ["variant", "delivered", "inter_cluster_per_msg", "delay_mean"])
    variants = [
        ("dynamic clusters (paper)", {}),
        ("static clusters", {"cluster_mode": ClusterMode.STATIC}),
        ("no cluster info (singletons)", {"cluster_mode": ClusterMode.SINGLETON}),
        ("no delay optimization (II.3 off)",
         {"enable_delay_optimization": False}),
    ]
    for label, overrides in variants:
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                            backbone="ring")
        flapper = None
        if churn:
            flapper = LinkFlapper(sim, built.network, built.backbone,
                                  mean_up=25.0, mean_down=4.0).start()
        system = deploy("tree", built, **overrides)
        system.broadcast_stream(n, interval=interval, start_at=2.0)
        system.run_until_delivered(n, timeout=400.0)
        if flapper:
            flapper.stop()
        records = system.delivery_records()
        cost = cost_report(sim, n)
        delays = system_delay_stats(records, system.source_id)
        result.add_row(variant=label,
                       delivered=delivery_fraction(records, n, system.source_id),
                       inter_cluster_per_msg=cost.inter_cluster_data_per_msg,
                       delay_mean=delays.mean)
    result.note("paper Section 6: static cluster knowledge works 'with less "
                "satisfying performance'; no knowledge at all still works")
    return result


# ----------------------------------------------------------------------
# E11 — Figure 3.2: the parent graph induces a cluster tree
# ----------------------------------------------------------------------


def _e11_claims(v: Judge) -> None:
    v.each("§4.1, §4.3, Fig 3.2: the quiescent parent graph induces a "
           "cluster tree, one leader per cluster",
           lambda r: r["violations"] == 0, "violations")


@register("E11", _e11_claims)
def run_e11_fig32(seed: int = 10, n: int = 10) -> ExperimentResult:
    """E11: quiescent structure checks on the Figure 3.2 topology."""
    result = ExperimentResult(
        "E11", "Figure 3.2: quiescent host parent graph induces a cluster tree",
        ["check", "violations"])
    sim = Simulator(seed=seed)
    built = figure_3_2(sim)
    system = deploy("tree", built)
    system.broadcast_stream(n, interval=1.0, start_at=2.0)
    system.run_until_delivered(n, timeout=300.0)
    quiesced = run_to_quiescence(system, stable_window=15.0, timeout=200.0)
    result.add_row(check="reached quiescence", violations=0 if quiesced else 1)
    violations = check_all(system, quiescent=True)
    result.add_row(check="all invariants", violations=len(violations))
    for violation in violations:
        result.note(violation)
    leaders = true_leaders(system)
    result.add_row(check="one leader per cluster",
                   violations=sum(1 for ls in leaders.values() if len(ls) != 1))
    return result


# ----------------------------------------------------------------------
# E12 — comparison against anti-entropy epidemic broadcast
# ----------------------------------------------------------------------


def _e12_claims(v: Judge) -> None:
    v.each("§5 vs [Deme87]: everyone delivers", lambda r: r["delivered"] == 1.0,
           "delivered")
    cost, delay = ({r["protocol"]: r[c] for r in v.rows}
                   for c in ("inter_cluster_per_msg", "delay_mean"))
    v.claim("§5 cost vs [Deme87]: the tree is cheapest across clusters",
            cost["tree"] < min(cost["basic"], cost["epidemic"]), **cost)
    v.claim("§5 delay vs [Deme87]: the tree beats cost-blind gossip",
            delay["tree"] < delay["epidemic"], **delay)


@register("E12", _e12_claims)
def run_e12_epidemic(seed: int = 11, k: int = 3, m: int = 3, n: int = 20,
                     interval: float = 2.0, warmup: int = 5) -> ExperimentResult:
    """E12: tree vs basic vs epidemic on cost and delay."""
    result = ExperimentResult(
        "E12", "Tree vs basic vs anti-entropy epidemic",
        ["protocol", "delivered", "inter_cluster_per_msg", "delay_mean",
         "delay_p99"])
    for protocol in ("tree", "basic", "epidemic"):
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                            backbone="line")
        system = deploy(protocol, built)
        _, _, snapshot, _ = _run_stream(system, n, interval, warmup,
                                        timeout=600.0)
        cost = cost_report(sim, n, since=snapshot)
        records = system.delivery_records()
        delays = system_delay_stats(records, system.source_id, since_seq=warmup)
        result.add_row(protocol=protocol,
                       delivered=delivery_fraction(records, warmup + n,
                                                   system.source_id),
                       inter_cluster_per_msg=cost.inter_cluster_data_per_msg,
                       delay_mean=delays.mean, delay_p99=delays.p99)
    result.note("epidemic gossip picks partners uniformly at random and so "
                "pays heavily in inter-cluster traffic; the cluster tree "
                "respects link costs")
    return result


# ----------------------------------------------------------------------
# E13 — Section 6 optimization: control-message piggybacking
# ----------------------------------------------------------------------


def _e13_claims(v: Judge) -> None:
    v.each("§6 ¶4: every run delivers", lambda r: r["delivered"], "delivered")
    packets = {r["sources"]: r for r in v.versus(
        "sources", "control_packets", plain=dict(piggyback=False),
        bundled=dict(piggyback=True))}
    v.each("§6 ¶4: with 2-3 sources piggybacking saves control packets",
           lambda r: r["bundled"] < r["plain"], "bundled", "plain",
           rows=[packets[2], packets[3]])
    v.each("§6 ¶4: ... because it bundles", lambda r: r["bundles"] > 0,
           "bundles", rows=[v.one(sources=s, piggyback=True) for s in (2, 3)])
    v.each("§6 ¶4: the saving exceeds 10 % at 3 sources",
           lambda r: r["bundled"] < 0.9 * r["plain"], "bundled", "plain",
           rows=[packets[3]])


@register("E13", _e13_claims)
def run_e13_piggyback(seed: int = 12, k: int = 2, m: int = 3,
                      n_per_source: int = 5,
                      n_sources: Sequence[int] = (1, 2, 3)) -> ExperimentResult:
    """E13: piggybacking's packet/bit savings grow with concurrency."""
    from ..core import MultiSourceBroadcastSystem

    result = ExperimentResult(
        "E13", "Control piggybacking (Section 6 optimization)",
        ["sources", "piggyback", "control_packets", "bundles",
         "delivered"])
    for count in n_sources:
        for piggy in (False, True):
            sim = Simulator(seed=seed)
            built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                                backbone="line")
            sources = built.hosts[:count]
            config = ProtocolConfig.for_scale(
                k * m, enable_piggybacking=piggy,
                data_size_bits=SWEEP_DATA_BITS)
            system = MultiSourceBroadcastSystem(built, sources=sources,
                                                config=config).start()
            for idx, src in enumerate(sources):
                system.broadcast_stream(src, n_per_source, interval=1.0,
                                        start_at=2.0 + 0.3 * idx)
            ok = system.run_until_delivered(
                {s: n_per_source for s in sources}, timeout=400.0)
            result.add_row(
                sources=count, piggyback=piggy,
                control_packets=sim.metrics.counter(
                    "net.h2h.sent.kind.control").value,
                bundles=sim.metrics.counter("piggyback.bundles").value,
                delivered=ok)
    result.note("paper Section 6: 'control messages that are dispatched by "
                "the same host at about the same time can be piggybacked in "
                "one packet' — the win grows with protocol concurrency")
    return result


# ----------------------------------------------------------------------
# E14 — Section 2 extension: multiple-source broadcast
# ----------------------------------------------------------------------


def _e14_claims(v: Judge) -> None:
    v.each("§2 ¶4: every run delivers", lambda r: r["delivered"], "delivered")
    one, most = (min(v.rows, key=lambda r: r["sources"]),
                 max(v.rows, key=lambda r: r["sources"]))
    v.claim("§2 ¶4: control scales with the instances: most sources > 2 x "
            "one", most["control_per_s"] > 2 * one["control_per_s"],
            one=one["control_per_s"], most=most["control_per_s"])
    data = "inter_cluster_data_per_msg"
    v.claim("§2 ¶4: data cost per message does not: most < 2 x one",
            most[data] < 2 * one[data], one=one[data], most=most[data])


@register("E14", _e14_claims)
def run_e14_multisource(seed: int = 13, k: int = 2, m: int = 3,
                        n: int = 10) -> ExperimentResult:
    """E14: running several identical single-source protocols."""
    from ..core import MultiSourceBroadcastSystem

    result = ExperimentResult(
        "E14", "Multiple sources via parallel single-source instances",
        ["sources", "delivered", "control_per_s",
         "inter_cluster_data_per_msg", "delay_mean"])
    for count in (1, 2, 3):
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                            backbone="line")
        sources = built.hosts[:count]
        config = ProtocolConfig.for_scale(k * m,
                                          data_size_bits=SWEEP_DATA_BITS)
        system = MultiSourceBroadcastSystem(built, sources=sources,
                                            config=config).start()
        for idx, src in enumerate(sources):
            system.broadcast_stream(src, n, interval=1.0,
                                    start_at=2.0 + 0.5 * idx)
        ok = system.run_until_delivered({s: n for s in sources}, timeout=400.0)
        horizon = sim.now
        total_msgs = count * n
        delays: List[float] = []
        for src in sources:
            records = system.instances[src].delivery_records()
            for host_id, recs in records.items():
                if host_id != src:
                    delays.extend(r.delay for r in recs)
        stats = delay_stats(delays)
        result.add_row(
            sources=count, delivered=ok,
            control_per_s=sim.metrics.counter(
                "net.h2h.sent.kind.control").value / horizon,
            inter_cluster_data_per_msg=sim.metrics.counter(
                "net.h2h.recv.expensive.kind.data").value / total_msgs,
            delay_mean=stats.mean)
    result.note("paper Section 2: 'a multiple-source broadcast can be "
                "performed reliably by running several identical "
                "single-source protocols'; control cost scales with the "
                "instance count, per-message data cost does not")
    return result


# ----------------------------------------------------------------------
# E15 — delay-adaptive re-parenting under changing load (Section 3)
# ----------------------------------------------------------------------


def _e15_claims(v: Judge) -> None:
    v.each("§3 ¶5: both deliver", lambda r: r["delivered"], "delivered")
    on, off = v.one(delay_optimization=True), v.one(delay_optimization=False)
    v.claim("§3 ¶5: with II.3 the leader leaves the loaded path, without "
            "it stays", on["leader_migrated"] and not off["leader_migrated"],
            on=on["leader_migrated"], off=off["leader_migrated"])
    delay = "phase2_delay_mean"
    v.claim("§3 ¶5: II.3 cuts post-shift delay below 0.6 x",
            on[delay] < 0.6 * off[delay], on=on[delay], off=off[delay])


@register("E15", _e15_claims)
def run_e15_load_adaptation(seed: int = 5, shift_at: float = 40.0,
                            n_phase1: int = 30, n_phase2: int = 40,
                            interval: float = 1.0) -> ExperimentResult:
    """E15: case II option 3 migrates leaders away from loaded paths."""
    from ..scenarios import apply_load_shift, load_shift_topology

    result = ExperimentResult(
        "E15", "Delay adaptation to changing load (II.3 on/off)",
        ["delay_optimization", "phase2_delay_mean", "phase2_delay_p99",
         "leader_migrated", "delivered"])
    for enabled in (True, False):
        sim = Simulator(seed=seed)
        built = load_shift_topology(sim)
        config = dataclasses.replace(
            ProtocolConfig.for_scale(len(built.hosts)),
            enable_delay_optimization=enabled)
        system = BroadcastSystem(built, source=HostId("src"),
                                 config=config).start()
        shift = apply_load_shift(sim, built, shift_at=shift_at)
        system.broadcast_stream(n_phase1, interval=interval, start_at=5.0)
        sim.run(until=shift_at)
        c_leader_parent_before = {
            str(h): str(system.hosts[h].parent)
            for h in built.clusters[-1]}
        system.broadcast_stream(n_phase2, interval=interval,
                                start_at=shift_at + 1.0)
        ok = system.run_until_delivered(n_phase1 + n_phase2, timeout=600.0)
        shift.generator_phase2.stop()
        c_leader_parent_after = {
            str(h): str(system.hosts[h].parent)
            for h in built.clusters[-1]}
        delays = system_delay_stats(system.delivery_records(),
                                    system.source_id,
                                    since_seq=n_phase1 + 5)
        result.add_row(
            delay_optimization=enabled,
            phase2_delay_mean=delays.mean,
            phase2_delay_p99=delays.p99,
            leader_migrated=c_leader_parent_before != c_leader_parent_after,
            delivered=ok)
    result.note("paper Section 3: 'due to changing message traffic, some "
                "other cluster can become a more desirable parent' — II.3 "
                "is the mechanism that exploits it")
    return result


# ----------------------------------------------------------------------
# E16 — timestamp-based cost inference vs clock skew (Section 2)
# ----------------------------------------------------------------------


def _e16_claims(v: Judge) -> None:
    v.each("§2 ¶7: delivery survives any skew", lambda r: r["delivered"],
           "delivered")
    rows = sorted(v.rows, key=lambda r: r["max_offset_s"])
    v.each("§2 ¶7: inference is exact at the two smallest offsets",
           lambda r: r["cluster_accuracy"] == 1.0, "cluster_accuracy",
           rows=rows[:2])
    v.claim("§2 ¶7: ... and at the largest is > 0.2 worse than at none",
            rows[-1]["cluster_accuracy"] < rows[0]["cluster_accuracy"] - 0.2,
            accuracy=[rows[0]["cluster_accuracy"],
                      rows[-1]["cluster_accuracy"]])


@register("E16", _e16_claims)
def run_e16_clock_skew(seed: int = 14, k: int = 2, m: int = 3, n: int = 15,
                       offsets: Sequence[float] = (0.0, 0.001, 0.01, 0.1, 0.5),
                       ) -> ExperimentResult:
    """E16: how far clocks can drift before transit inference breaks."""
    from ..core import CostBitMode
    from ..net import ClockModel

    result = ExperimentResult(
        "E16", "Host-level cost inference vs clock skew (TIMESTAMP mode)",
        ["max_offset_s", "cluster_accuracy", "delivered",
         "inter_cluster_per_msg"])
    for max_offset in offsets:
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                            backbone="line")
        if max_offset:
            built.network.use_clocks(
                ClockModel(sim).randomize(built.hosts, max_offset=max_offset))
        system = deploy("tree", built, cost_bit_mode=CostBitMode.TIMESTAMP)
        system.broadcast_stream(n, interval=1.0, start_at=2.0)
        ok = system.run_until_delivered(n, timeout=400.0)
        sim.run(until=sim.now + 15.0)
        # Cluster-view accuracy against ground truth, over ordered pairs
        # where the host has actually heard from the peer.
        truth = {}
        for cluster in built.network.true_clusters():
            for a in cluster:
                for b in built.hosts:
                    truth[(a, b)] = b in cluster
        checked = correct = 0
        for host_id in built.hosts:
            believed = system.hosts[host_id].cluster.members()
            heard = system.hosts[host_id].maps.known_hosts()
            for other in built.hosts:
                if other == host_id or other not in heard:
                    continue
                checked += 1
                if (other in believed) == truth[(host_id, other)]:
                    correct += 1
        cost = cost_report(sim, n)
        result.add_row(
            max_offset_s=max_offset,
            cluster_accuracy=(correct / checked) if checked else float("nan"),
            delivered=ok,
            inter_cluster_per_msg=cost.inter_cluster_data_per_msg)
    result.note("paper Section 2 suggests inferring link class from message "
                "transit times; this works while clock offsets stay below "
                "the cheap/expensive transit gap and degrades beyond it — "
                "delivery is unaffected either way (CLUSTER sets are "
                "advisory)")
    return result


# ----------------------------------------------------------------------
# E17 — design-choice ablations (implementation mechanisms, DESIGN.md §4)
# ----------------------------------------------------------------------


def _e17_claims(v: Judge) -> None:
    v.each("§4.4 (DESIGN.md §4): every variant catches up",
           lambda r: r["delivered_fraction"] == 1.0, "delivered_fraction")
    waste = ("duplicates", "gapfills", "completion_s")
    full, loose, tiny = ([v.one(variant=name)[c] for c in waste] for name in (
        "full protocol", "no gap-fill suppression", "tiny inter batch (1)"))
    v.claim("§4.4 (DESIGN.md §4): without gap-fill suppression every waste "
            "grows", all(a > b for a, b in zip(loose, full)),
            unsuppressed=loose, full=full)
    v.claim("§4.4 (DESIGN.md §4): a one-message batch > 2 x catch-up time",
            tiny[2] > 2 * full[2], tiny=tiny[2], full=full[2])


@register("E17", _e17_claims)
def run_e17_design_ablation(seed: int = 4, k: int = 4, m: int = 4,
                            n: int = 25, interval: float = 1.0,
                            partition: Tuple[float, float] = (5.0, 35.0),
                            horizon: float = 400.0) -> ExperimentResult:
    """E17: what each implementation mechanism buys under mass catch-up.

    The stress regime where the mechanisms were originally needed: two
    of four clusters partitioned mid-stream, then healed — eight hosts
    simultaneously catching up on ~30 full-size data messages through
    56 kbit/s trunks.
    """
    from ..net import PartitionScheduler, host_group

    variants = [
        ("full protocol", {}),
        ("no gap-fill suppression", {"gapfill_suppression": 1e-3}),
        ("tiny inter batch (1)", {"gapfill_batch_limit_inter": 1}),
        ("no child reconcile", {"enable_child_reconcile": False}),
        ("no parent refresh", {"enable_parent_refresh": False}),
    ]
    result = ExperimentResult(
        "E17", "Implementation-mechanism ablations (mass catch-up regime)",
        ["variant", "delivered_fraction", "completion_s", "gapfills",
         "duplicates"])
    for label, overrides in variants:
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m,
                            backbone="line")
        scheduler = PartitionScheduler(sim, built.network)
        cut_hosts = [h for cluster in built.clusters[k // 2:] for h in cluster]
        group = host_group(built.network, cut_hosts) + [
            f"s{i}" for i in range(k // 2, k)]
        scheduler.isolate(group, partition[0], partition[1])
        config = dataclasses.replace(ProtocolConfig.for_scale(k * m),
                                     **overrides)
        system = BroadcastSystem(built, config=config).start()
        system.broadcast_stream(n, interval=interval, start_at=2.0)
        system.run_until_delivered(n, timeout=horizon)
        records = system.delivery_records()
        completion = time_to_full_delivery(records, n, system.source_id)
        result.add_row(
            variant=label,
            delivered_fraction=delivery_fraction(records, n, system.source_id),
            completion_s=completion,
            gapfills=sim.metrics.counter("proto.gapfill.sent").value,
            duplicates=sim.metrics.counter(
                "proto.data.discard.duplicate").value)
    result.note("suppression and batching measurably cut waste and catch-up "
                "time; the reconcile/refresh repairs are defense in depth "
                "for lost-ack races (their original trigger was removed by "
                "the ack-first handshake + frontier rule; see DESIGN.md §4)")
    return result


# ----------------------------------------------------------------------
# E18 — relative reliability (the paper's Section 1 definition)
# ----------------------------------------------------------------------


def _e18_claims(v: Judge) -> None:
    rows = sorted(v.rows, key=lambda r: r["scale_factor"])
    rel = [r["relative_reliability"] for r in rows]
    control = [rows[0]["control_sent"], rows[-1]["control_sent"]]
    v.claim("§1 ¶5: the fastest uses every opportunity; the slowest misses "
            "some (< 0.8) at < 1/4 of its control cost", rel[0] == 1.0
            and rel[-1] < 0.8 and control[1] < control[0] / 4,
            relative_reliability=rel, control_sent=control)
    v.claim("§1 ¶5: relative reliability falls with the period (within 0.05)",
            all(a >= b - 0.05 for a, b in zip(rel, rel[1:])),
            relative_reliability=rel)


@register("E18", _e18_claims)
def run_e18_relative_reliability(
        seed: int = 16,
        factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
        window: WindowSpec = WindowSpec(period=40.0, width=10.0,
                                        first_open=20.0),
        horizon: float = 140.0, n: int = 10, trials: int = 5,
        required_window: float = 6.0) -> ExperimentResult:
    """E18: score protocols by opportunities *used*, not messages sent.

    The network offers 10-second connectivity windows.  A (host, seq)
    pair becomes *obligated* once the host has spent >= 6 s connected to
    a holder of that message; relative reliability is the fraction of
    obligations met.  Slow exchange settings miss windows they were
    given — lower relative reliability, not just lower throughput.
    """
    from ..analysis.stats import summarize
    from ..verify import OpportunityAuditor

    result = ExperimentResult(
        "E18", "Relative reliability (Section 1) vs exchange-period scale",
        ["scale_factor", "relative_reliability", "rel_ci95",
         "absolute_delivery", "control_sent"])
    for factor in factors:
        relatives, absolutes, controls = [], [], []
        for trial in range(trials):
            sim = Simulator(seed=seed + trial)
            built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                                backbone="line")
            BriefWindowSchedule(sim, built, built.backbone, window,
                                until=horizon)
            config = ProtocolConfig(data_size_bits=SWEEP_DATA_BITS).scaled(factor)
            system = BroadcastSystem(built, config=config).start()
            auditor = OpportunityAuditor(
                system, sample_period=1.0,
                required_window=required_window).start()
            system.broadcast_stream(n, interval=0.5, start_at=5.0)
            sim.run(until=horizon)
            auditor.stop()
            report = auditor.report()
            relatives.append(report.relative_reliability)
            absolutes.append(report.absolute_delivery)
            controls.append(traffic_report(sim).control_sent)
        rel = summarize(relatives)
        result.add_row(scale_factor=factor,
                       relative_reliability=rel.mean,
                       rel_ci95=rel.ci95_half_width,
                       absolute_delivery=sum(absolutes) / trials,
                       control_sent=sum(controls) / trials)
    result.note("paper Section 1: reliability is 'the degree to which [the "
                "protocol] is capable of utilizing communication "
                "opportunities presented by the dynamically changing "
                "network' — this table measures exactly that")
    return result


# ----------------------------------------------------------------------
# E19 — cost optimality over multi-server clusters
# ----------------------------------------------------------------------


def _e19_claims(v: Judge) -> None:
    v.key = ("clusters", "servers_per_cluster", "hosts_per_server")
    v.each("§2 (clusters), §5: over multi-server clusters every shape "
           "delivers with tree <= 1.4 x (k-1) + 0.3",
           lambda r: r["delivered"] and r["tree"] <= 1.4 * r["optimal"] + 0.3,
           "delivered", "tree", "optimal")


@register("E19", _e19_claims)
def run_e19_hierarchical(seed: int = 17,
                         shapes: Sequence[Tuple[int, int, int]] = (
                             (2, 2, 2), (3, 2, 2), (3, 3, 1), (4, 2, 1)),
                         n: int = 15, interval: float = 2.0,
                         warmup: int = 5) -> ExperimentResult:
    """E19: the k−1 optimum holds when clusters are multi-server LANs.

    :func:`repro.net.hierarchical_wan` builds clusters that are rings of
    several servers, so intra-cluster paths span multiple cheap hops.
    Cost-bit semantics and the cluster tree must be unaffected: the
    steady-state inter-cluster cost stays at (clusters − 1).
    """
    from ..net import hierarchical_wan

    result = ExperimentResult(
        "E19", "Cost over hierarchical (multi-server) clusters",
        ["clusters", "servers_per_cluster", "hosts_per_server", "hosts",
         "optimal", "tree", "delivered"])
    for clusters, servers, hosts_per in shapes:
        sim = Simulator(seed=seed)
        built = hierarchical_wan(sim, clusters=clusters,
                                 servers_per_cluster=servers,
                                 hosts_per_server=hosts_per,
                                 backbone="line")
        total_hosts = clusters * servers * hosts_per
        system = deploy("tree", built)
        ok, _, snapshot, _ = _run_stream(system, n, interval, warmup,
                                         timeout=600.0)
        cost = cost_report(sim, n, since=snapshot)
        result.add_row(clusters=clusters, servers_per_cluster=servers,
                       hosts_per_server=hosts_per, hosts=total_hosts,
                       optimal=optimal_inter_cluster_cost(clusters),
                       tree=cost.inter_cluster_data_per_msg,
                       delivered=ok)
    result.note("multi-hop cheap paths keep the cost bit clear, so the "
                "cluster tree and its k-1 optimum are topology-shape "
                "independent")
    return result


# ----------------------------------------------------------------------
# E20 — reliability and recovery latency under host churn
# ----------------------------------------------------------------------


def _e20_protocol(protocol: str, seed: int, clusters: int,
                  hosts_per_cluster: int, n: int, interval: float,
                  heal_by: float, mean_up: float, mean_down: float,
                  crash_stable_lag: int,
                  horizon: float) -> List[Dict[str, Any]]:
    """One E20 protocol run; returns the 'all' row plus per-host rows."""
    from ..chaos import ChaosPlan, ChaosSpec, HostChurnSpec
    from ..verify import InvariantMonitor

    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster,
                        backbone="line")
    system = deploy(protocol, built, crash_stable_lag=crash_stable_lag)
    monitor = None
    if protocol == "tree":
        monitor = InvariantMonitor(system, sample_period=1.0,
                                   stable_window=20.0).start()
    churned = tuple(str(h) for h in built.hosts
                    if h != system.source_id)
    ChaosPlan(sim, system, ChaosSpec(
        heal_by=heal_by,
        host_churn=(HostChurnSpec(churned, mean_up=mean_up,
                                  mean_down=mean_down),))).start()
    system.broadcast_stream(n, interval=interval, start_at=2.0)
    sim.run(until=heal_by + 1.0)  # let the full churn window play out
    system.run_until_delivered(n, timeout=horizon)
    stable: Any
    if monitor is not None:
        monitor.stop()
        stable = len(monitor.report().stable_violations)
    else:
        stable = "-"  # tree-structure invariants do not apply

    recoveries: Dict[str, List[float]] = {}
    for record in sim.trace.records(kind="host.recovery_delivery"):
        recoveries.setdefault(record.source, []).append(
            record.fields["elapsed"])
    crash_counts: Dict[str, int] = {}
    for record in sim.trace.records(kind="host.crash"):
        crash_counts[record.source] = crash_counts.get(record.source, 0) + 1

    all_times = [t for times in recoveries.values() for t in times]
    rows: List[Dict[str, Any]] = [dict(
        protocol=protocol, scope="all",
        delivered=delivery_fraction(system.delivery_records(), n,
                                    system.source_id),
        crashes=sum(crash_counts.values()),
        recovery_mean_s=(sum(all_times) / len(all_times)
                         if all_times else float("nan")),
        recovery_max_s=max(all_times) if all_times else float("nan"),
        stable_violations=stable)]
    for host in churned:
        times = recoveries.get(host, [])
        delivered = sum(1 for seq in range(1, n + 1)
                        if seq in system.hosts[HostId(host)].deliveries)
        rows.append(dict(
            protocol=protocol, scope=host, delivered=delivered / n,
            crashes=crash_counts.get(host, 0),
            recovery_mean_s=(sum(times) / len(times)
                             if times else float("nan")),
            recovery_max_s=max(times) if times else float("nan"),
            stable_violations="-"))
    return rows


def _e20_claims(v: Judge) -> None:
    tree, basic = (v.one(protocol=p, scope="all") for p in ("tree", "basic"))
    v.claim("§2, §4.3: under churn (crashes > 0) the tree delivers >= basic "
            "with 0 stable violations and measured recovery",
            tree["crashes"] > 0 and tree["delivered"] >= basic["delivered"]
            and tree["stable_violations"] == 0 and tree["recovery_mean_s"] > 0,
            crashes=tree["crashes"], tree=tree["delivered"],
            basic=basic["delivered"], stable=tree["stable_violations"],
            recovery_mean_s=tree["recovery_mean_s"])
    v.each("§2: per-host recovery reported, mean <= max",
           lambda r: r["recovery_mean_s"] <= r["recovery_max_s"] + 1e-9,
           "recovery_mean_s", "recovery_max_s",
           rows=[r for r in v.where(protocol="tree") if r["scope"] != "all"
                 and not math.isnan(r["recovery_mean_s"])])


@register("E20", _e20_claims)
def run_e20_host_churn(seed: int = 18, clusters: int = 3,
                       hosts_per_cluster: int = 2, n: int = 20,
                       interval: float = 1.0, heal_by: float = 60.0,
                       mean_up: float = 25.0, mean_down: float = 5.0,
                       crash_stable_lag: int = 2,
                       horizon: float = 400.0,
                       executor: Optional[Executor] = None) -> ExperimentResult:
    """E20: host crash/recovery churn — tree vs the basic algorithm.

    Every non-source host randomly crashes (losing volatile state beyond
    its stable prefix) and recovers while the source streams ``n``
    messages; all churn heals by ``heal_by``.  The decisive asymmetry:
    a message a basic-algorithm receiver *acknowledged* and then lost in
    a crash is gone for good — the source discarded the unacked entry
    and never retransmits — while a recovering tree host re-attaches and
    gap-fills everything above its stable prefix.  Recovery time is
    measured crash → first post-recovery delivery.
    """
    result = ExperimentResult(
        "E20", "Reliability and recovery latency under host churn",
        ["protocol", "scope", "delivered", "crashes",
         "recovery_mean_s", "recovery_max_s", "stable_violations"])
    items = [
        WorkItem(key=("E20", protocol), fn=_e20_protocol,
                 kwargs=dict(protocol=protocol, seed=seed, clusters=clusters,
                             hosts_per_cluster=hosts_per_cluster, n=n,
                             interval=interval, heal_by=heal_by,
                             mean_up=mean_up, mean_down=mean_down,
                             crash_stable_lag=crash_stable_lag,
                             horizon=horizon))
        for protocol in ("tree", "basic")
    ]
    for rows in _map_items(executor, items):
        for row in rows:
            result.add_row(**row)
    result.note("recovery_*_s is crash -> first post-recovery delivery; a "
                "basic receiver's acked-then-lost messages are never "
                "retransmitted, so the tree's delivered fraction is >= "
                "basic's under identical, seed-matched churn")
    return result


#: E21 operating points: (label, trunk loss, corrupt, delay_prob, delay,
#: replay_prob).  Ordered mildest -> harshest; the last two are the
#: "harshest points" the acceptance criterion names.
E21_POINTS: Tuple[Tuple[str, float, float, float, float, float], ...] = (
    ("clean", 0.00, 0.00, 0.0, 0.0, 0.00),
    ("loss", 0.08, 0.00, 0.0, 0.0, 0.00),
    ("corrupt", 0.00, 0.10, 0.0, 0.0, 0.05),
    ("skew", 0.00, 0.00, 0.3, 0.8, 0.00),
    ("loss+corrupt", 0.10, 0.08, 0.0, 0.0, 0.05),
    ("harsh", 0.15, 0.10, 0.3, 0.8, 0.05),
)


def _e21_point(point: Sequence, mode: str, seed: int, clusters: int,
               hosts_per_cluster: int, n: int, interval: float,
               heal_by: float, measure_at: float,
               horizon: float) -> Dict[str, Any]:
    """One E21 grid point: one operating point under one control plane."""
    from ..chaos import ChaosPlan, ChaosSpec, HostOutageSpec, PacketFaultSpec
    from ..verify import InvariantMonitor

    label, loss, corrupt, delay_prob, delay, replay = point
    sim = Simulator(seed=seed)
    built = wan_of_lans(
        sim, clusters=clusters, hosts_per_cluster=hosts_per_cluster,
        backbone="line", expensive=expensive_spec(loss_prob=loss))
    system = deploy("tree", built, crash_stable_lag=1,
                    adaptive=(mode == "adaptive"))
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=20.0).start()
    # Two mid-stream outages give every point a recovery probe; ends
    # stay well before heal_by so recovery happens *under* the packet
    # faults, where the control planes differ.
    victims = [str(h) for h in built.hosts if h != system.source_id]
    faults: Tuple[PacketFaultSpec, ...] = ()
    if corrupt or delay_prob or replay:
        faults = (PacketFaultSpec(
            start=2.0, end=heal_by, corrupt_prob=corrupt,
            delay_prob=delay_prob, delay=delay,
            replay_prob=replay, replay_lag=2.0),)
    ChaosPlan(sim, system, ChaosSpec(
        heal_by=heal_by,
        host_outages=(HostOutageSpec(victims[1], 10.0, 14.0),
                      HostOutageSpec(victims[-1], 18.0, 22.0)),
        packet_faults=faults)).start()
    system.broadcast_stream(n, interval=interval, start_at=2.0)
    sim.run(until=measure_at)
    delivered = delivery_fraction(system.delivery_records(), n,
                                  system.source_id)
    system.run_until_delivered(n, timeout=horizon)
    monitor.stop()
    times = monitor.report().recovery_times()
    metrics = sim.metrics
    return dict(
        point=label, mode=mode, delivered=delivered,
        recovery_mean_s=(sum(times) / len(times)
                         if times else float("nan")),
        control_msgs=metrics.counter("net.h2h.sent.kind.control").value,
        corrupt_dropped=metrics.counter(
            "proto.wire.corrupt_dropped").value,
        dup_suppressed=metrics.counter(
            "proto.wire.dup_suppressed").value,
        attach_timeouts=metrics.counter("proto.attach.timeouts").value)


def _e21_items(seed: int, clusters: int, hosts_per_cluster: int, n: int,
               interval: float, heal_by: float, measure_at: float,
               horizon: float,
               points: Optional[Sequence] = None) -> List[WorkItem]:
    """The seed-matched (point, mode) grid E21 and E22 both fan out."""
    return [
        WorkItem(key=("E21", point[0], mode), fn=_e21_point,
                 kwargs=dict(point=tuple(point), mode=mode, seed=seed,
                             clusters=clusters,
                             hosts_per_cluster=hosts_per_cluster, n=n,
                             interval=interval, heal_by=heal_by,
                             measure_at=measure_at, horizon=horizon))
        for point in (points if points is not None else E21_POINTS)
        for mode in ("fixed", "adaptive")
    ]


def _e21_claims(v: Judge) -> None:
    sides = dict(adaptive=dict(mode="adaptive"), fixed=dict(mode="fixed"))
    v.each("§§4.2, 6: adaptive never delivers less than fixed",
           lambda r: r["adaptive"] >= r["fixed"], "adaptive", "fixed",
           rows=v.versus("point", "delivered", **sides))
    v.each("§§4.2, 6: adaptive recovery is measured at every point",
           lambda r: not math.isnan(r["recovery_mean_s"]), "recovery_mean_s",
           rows=v.where(mode="adaptive"))
    harshest = {point[0] for point in E21_POINTS[-2:]}
    v.each("§§4.2, 6: at the two harshest points adaptive recovers faster",
           lambda r: r["adaptive"] < r["fixed"], "adaptive", "fixed",
           rows=[r for r in v.versus("point", "recovery_mean_s", **sides)
                 if r["point"] in harshest])
    v.each("§§4.2, 6: the harsh point drops corrupt and replayed packets",
           lambda r: r["corrupt_dropped"] > 0 and r["dup_suppressed"] > 0,
           "corrupt_dropped", "dup_suppressed",
           rows=v.where(point="harsh", mode="adaptive"))


@register("E21", _e21_claims)
def run_e21_adversarial_timing(seed: int = 21, clusters: int = 3,
                               hosts_per_cluster: int = 2, n: int = 30,
                               interval: float = 1.0, heal_by: float = 40.0,
                               measure_at: float = 60.0,
                               horizon: float = 600.0,
                               points: Optional[Sequence] = None,
                               executor: Optional[Executor] = None,
                               ) -> ExperimentResult:
    """E21: adversarial packet timing — fixed vs adaptive control plane.

    A loss x corruption x delay-skew sweep: trunks drop packets, a
    :class:`~repro.chaos.PacketChaos` injector corrupts, delays, and
    replays wire messages at every host, and two scheduled host outages
    provide a recovery-time probe.  Each operating point runs the
    *identical seed* under the fixed-timeout config and under
    ``adaptive=True`` (RTT-estimated deadlines, backoff with jitter,
    congestion-aware gap filling), so the only difference is the
    control plane.  ``delivered`` is the system-wide delivered fraction
    at ``measure_at`` (before unlimited catch-up time); recovery is
    crash -> first post-recovery delivery via the InvariantMonitor.
    """
    result = ExperimentResult(
        "E21", "Adversarial packet timing: fixed vs adaptive control plane",
        ["point", "mode", "delivered", "recovery_mean_s", "control_msgs",
         "corrupt_dropped", "dup_suppressed", "attach_timeouts"])
    items = _e21_items(seed, clusters, hosts_per_cluster, n, interval,
                       heal_by, measure_at, horizon, points)
    for row in _map_items(executor, items):
        result.add_row(**row)
    result.note("seed-matched pairs: each point runs the identical seed, "
                "topology, chaos schedule, and workload under both control "
                "planes; delivered is the fraction at measure_at, recovery "
                "is crash -> first post-recovery delivery")
    return result


# ----------------------------------------------------------------------
# E22 — execution engine: wall-clock speedup and determinism parity
# ----------------------------------------------------------------------


def _e22_claims(v: Judge) -> None:
    v.each("§5 harness: every worker count reproduces the serial rows",
           lambda r: r["rows_match_serial"] is True, "rows_match_serial")


@register("E22", _e22_claims)
def run_e22_parallel_speedup(seed: int = 21,
                             jobs_list: Sequence[int] = (1, 2, 4),
                             clusters: int = 3, hosts_per_cluster: int = 2,
                             n: int = 30, interval: float = 1.0,
                             heal_by: float = 40.0, measure_at: float = 60.0,
                             horizon: float = 600.0,
                             points: Optional[Sequence] = None,
                             ) -> ExperimentResult:
    """E22: engine speedup + serial/parallel parity on the E21 grid.

    Runs the identical E21 work-item grid under ``jobs=1`` (the serial
    reference) and each requested worker count, comparing wall-clock
    time *and* asserting row-for-row equality against the serial rows.
    ``speedup`` is serial wall / parallel wall; ``rows_match_serial``
    is the determinism-parity bit the acceptance gate checks.  Unlike
    every other E-series table, the wall columns are hardware-dependent
    — only the parity column is deterministic.
    """
    from ..exec import make_executor

    result = ExperimentResult(
        "E22", "Execution engine: speedup and determinism parity (E21 grid)",
        ["jobs", "grid_points", "wall_s", "speedup", "rows_match_serial"])
    items = _e21_items(seed, clusters, hosts_per_cluster, n, interval,
                       heal_by, measure_at, horizon, points)
    serial_rows: Optional[List[Dict[str, Any]]] = None
    serial_wall = float("nan")
    speedups = []
    for jobs in jobs_list:
        executor = make_executor(jobs)
        start = time.perf_counter()
        rows = _map_items(executor, items)
        wall = time.perf_counter() - start
        if serial_rows is None:
            # First entry is the reference; jobs_list conventionally
            # starts at 1 so the reference *is* the serial path.
            serial_rows, serial_wall = rows, wall
        # repr() is float-exact and nan-safe, unlike ==.
        result.add_row(jobs=jobs, grid_points=len(items), wall_s=wall,
                       speedup=serial_wall / wall,
                       rows_match_serial=(repr(rows) == repr(serial_rows)))
        speedups.append(f"{serial_wall / wall:.2f}x at jobs={jobs}")
    result.note(f"host has {os.cpu_count()} CPU core(s); serial wall "
                f"{1000 * serial_wall / max(len(items), 1):.0f} ms per grid "
                f"point; speedup {', '.join(speedups)}; parity must hold "
                "everywhere")
    return result


# ----------------------------------------------------------------------
# E23 — chaos fuzzing: campaign verdicts and minimal-repro shrinking
# ----------------------------------------------------------------------


def _e23_claims(v: Judge) -> None:
    tree, basic = v.one(protocol="tree"), v.one(protocol="basic")
    v.claim("§2: the tree delivers eventually on every healed fuzz trial",
            tree["clean"] == tree["trials"] and tree["stable_violation"] == 0,
            clean=tree["clean"], trials=tree["trials"],
            stable_violation=tree["stable_violation"])
    v.claim("§2: basic's acked-then-lost messages surface, shrunk to <= 1/4 "
            "of their faults, the smallest to one event",
            basic["no_eventual_delivery"] > 0
            and basic["shrink_ratio_mean"] <= 0.25
            and basic["min_repro_events"] == 1,
            **{c: basic[c] for c in ("no_eventual_delivery",
                                     "shrink_ratio_mean", "min_repro_events")})


@register("E23", _e23_claims)
def run_e23_fuzz_campaign(seed: int = 7, trials: int = 10,
                          protocols: Sequence[str] = ("tree", "basic"),
                          max_shrink_evals: int = 120,
                          executor: Optional[Executor] = None
                          ) -> ExperimentResult:
    """E23: seed-deterministic chaos fuzzing — tree vs the basic algorithm.

    Runs the same derived-seed fuzz campaign (random topology, workload,
    and composed fault schedule per trial; every fault heals by the
    trial's horizon) against both protocols.  The paper's protocol must
    come out clean on every trial — eventual delivery after healing is
    its core claim — while the basic algorithm's acked-then-lost
    messages under host crashes surface as ``no_eventual_delivery``
    verdicts.  Each failure is delta-debugged to a minimal fault
    schedule; ``shrink_ratio_mean`` is shrunk/original fault-event
    count and ``min_repro_events`` the smallest repro found.
    """
    from ..fuzz import FuzzOptions, run_campaign

    result = ExperimentResult(
        "E23", "Chaos fuzzing: campaign verdicts and minimal repros",
        ["protocol", "trials", "clean", "stable_violation",
         "no_eventual_delivery", "shrink_ratio_mean", "min_repro_events"])
    for protocol in protocols:
        summary = run_campaign(
            trials=trials, base_seed=seed,
            options=FuzzOptions(protocol=protocol),
            executor=executor, max_shrink_evals=max_shrink_evals)
        counts = summary.counts()
        ratios = summary.shrink_ratios()
        result.add_row(
            protocol=protocol, trials=trials, clean=summary.clean,
            stable_violation=counts.get("stable_violation", 0),
            no_eventual_delivery=counts.get("no_eventual_delivery", 0),
            shrink_ratio_mean=(sum(ratios) / len(ratios)
                               if ratios else float("nan")),
            min_repro_events=(summary.min_repro_events()
                              if summary.min_repro_events() is not None
                              else "-"))
    result.note("per-trial seeds are SHA-256-derived from the base seed, "
                "so campaigns are reproducible and serial == parallel; "
                "failures replay via `python -m repro fuzz replay`")
    return result


def _e24_placements(seed: int, clusters: int, hosts_per_cluster: int
                    ) -> Tuple[List[str], List[str]]:
    """Seed-matched adversary slots: (interior hosts, leaf hosts).

    Derived from the tree the paper's protocol actually forms under
    this seed with no faults: *interior* hosts are non-source hosts
    that serve as somebody's parent (they forward data, so their
    misbehavior sits on a live branch), *leaves* forward nothing.  The
    same slots are reused for every protocol, so the sweep compares
    protocols under identical adversary placement.
    """
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster,
                        backbone="line")
    system = deploy("tree", built)
    run_to_quiescence(system)
    parents = {str(p) for p in system.parent_edges().values()
               if p is not None}
    source = str(system.source_id)
    hosts = sorted(str(h) for h in built.hosts if str(h) != source)
    interior = [h for h in hosts if h in parents]
    leaves = [h for h in hosts if h not in parents]
    return interior, leaves


def _e24_slots(placement: str, k: int, interior: List[str],
               leaves: List[str]) -> Tuple[str, ...]:
    """The first ``k`` adversary hosts for a placement, deterministically
    (filled from the other pool when one runs short)."""
    pool = (interior + leaves) if placement == "interior" else (
        leaves + interior)
    return tuple(sorted(pool[:k]))


def _e24_point(protocol: str, seed: int, clusters: int,
               hosts_per_cluster: int, n: int, interval: float,
               persona: str, placement: str,
               adversary_hosts: Tuple[str, ...],
               start_at: float, horizon: float) -> Dict[str, Any]:
    """One E24 grid point: one protocol under one adversary deployment."""
    from ..chaos import AdversarySpec, ChaosPlan, ChaosSpec
    from ..verify import (InvariantMonitor, classify_containment,
                          classify_spans, worst_status)

    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster,
                        backbone="line")
    system = deploy(protocol, built)
    monitor = None
    if protocol == "tree":
        monitor = InvariantMonitor(system, sample_period=1.0,
                                   stable_window=20.0).start()
    if adversary_hosts:
        ChaosPlan(sim, system, ChaosSpec(
            heal_by=start_at + 1.0,
            adversaries=tuple(AdversarySpec(host=h, persona=persona,
                                            start=start_at)
                              for h in adversary_hosts))).start()
    correct = [h for h in built.hosts if str(h) not in set(adversary_hosts)]
    system.broadcast_stream(n, interval=interval, start_at=2.0)
    correct_ok = system.run_until_delivered(
        n, timeout=horizon, hosts=correct if adversary_hosts else None)

    containment: Any = "-"
    contained = broken = 0
    if monitor is not None:
        # settle one stable window so end-of-run streaks are judged
        sim.run(until=sim.now + 21.0)
        monitor.stop()
        results = (classify_spans(monitor.report().spans, adversary_hosts)
                   + classify_containment(system, adversary_hosts))
        containment = worst_status(results)
        adv = set(adversary_hosts)
        for result in results:
            for hosts in result.violations:
                if any(h in adv for h in hosts):
                    contained += 1
                else:
                    broken += 1

    delivered_pairs = sum(
        1 for host in correct for seq in range(1, n + 1)
        if seq in system.hosts[host].deliveries)
    return dict(
        protocol=protocol, k=len(adversary_hosts),
        persona=persona if adversary_hosts else "-",
        placement=placement if adversary_hosts else "-",
        adversaries=",".join(adversary_hosts) or "-",
        correct_delivered=delivered_pairs / (len(correct) * n),
        correct_ok=correct_ok, containment=containment,
        contained=contained if monitor is not None else "-",
        broken=broken if monitor is not None else "-")


def _e24_claims(v: Judge) -> None:
    v.key = ("protocol", "k", "persona", "placement")
    v.each("§2 fault model: with no adversary everyone delivers",
           lambda r: r["correct_delivered"] == 1.0 and r["correct_ok"],
           "correct_delivered", "correct_ok", rows=v.where(k=0))
    v.each("§2 fault model: an interior data black hole starves its correct "
           "subtree while every structural invariant holds",
           lambda r: not r["correct_ok"] and r["correct_delivered"] < 1.0
           and r["containment"] == "holds_globally" and r["broken"] == 0,
           "correct_delivered", "correct_ok", "containment", "broken",
           rows=v.where(protocol="tree", k=1, persona="selective_forward",
                        placement="interior"))
    v.each("§2 fault model: an adversary at a leaf hurts nobody",
           lambda r: r["correct_ok"], "correct_ok",
           rows=v.where(placement="leaf"))
    v.each("§2 fault model: basic and epidemic shrug off every persona",
           lambda r: r["correct_ok"], "correct_ok",
           rows=[r for r in v.rows if r["protocol"] != "tree"])


@register("E24", _e24_claims)
def run_e24_adversary_containment(
        seed: int = 24, clusters: int = 3, hosts_per_cluster: int = 2,
        n: int = 12, interval: float = 1.0, ks: Sequence[int] = (0, 1, 2),
        personas: Optional[Sequence[str]] = None,
        start_at: float = 4.0, horizon: float = 120.0,
        executor: Optional[Executor] = None) -> ExperimentResult:
    """E24: invariant containment under k misbehaving hosts.

    Seed-matched sweep of tree vs basic vs epidemic under ``k`` in
    ``ks`` adversarial hosts running each persona
    (:data:`repro.chaos.PERSONAS`), placed either *interior* (hosts the
    fault-free tree uses as parents — their lies sit on a live
    forwarding branch) or at *leaves* (structurally harmless seats).
    Personas activate at ``start_at`` and never heal; correctness is
    measured over the correct hosts only.  ``containment`` classifies
    every observed §4.3 invariant violation (tree only): damage that
    stopped at the adversary set reads ``holds_correct_only``,
    violations among correct hosts read ``broken``.  The headline
    asymmetry: placement, not count, decides the outcome — in the
    default two-host-cluster topology the cluster leader is a cut
    vertex, so an interior data black hole starves its correct subtree
    (``correct_ok`` False with every structural invariant still
    ``holds_globally``: the damage is purely data-plane), while the
    same persona at a leaf — or any persona against the source-direct
    basic algorithm or the redundant epidemic baseline — hurts nobody
    but itself.
    """
    from ..chaos import PERSONAS

    chosen = tuple(personas) if personas is not None else PERSONAS
    interior, leaves = _e24_placements(seed, clusters, hosts_per_cluster)
    result = ExperimentResult(
        "E24", "Adversarial hosts: correct-host delivery and containment",
        ["protocol", "k", "persona", "placement", "adversaries",
         "correct_delivered", "correct_ok", "containment", "contained",
         "broken"])
    items = []
    for protocol in PROTOCOLS:
        for k in ks:
            if k == 0:
                grid: List[Tuple[str, str]] = [("-", "-")]
            else:
                grid = [(persona, placement) for persona in chosen
                        for placement in ("interior", "leaf")]
            for persona, placement in grid:
                hosts = (_e24_slots(placement, k, interior, leaves)
                         if k else ())
                items.append(WorkItem(
                    key=("E24", protocol, k, persona, placement),
                    fn=_e24_point,
                    kwargs=dict(protocol=protocol, seed=seed,
                                clusters=clusters,
                                hosts_per_cluster=hosts_per_cluster,
                                n=n, interval=interval, persona=persona,
                                placement=placement, adversary_hosts=hosts,
                                start_at=start_at, horizon=horizon)))
    for row in _map_items(executor, items):
        result.add_row(**row)
    result.note("adversary slots are derived from the fault-free tree "
                f"(interior: {','.join(interior) or '-'}; leaves: "
                f"{','.join(leaves) or '-'}) and shared across protocols; "
                "personas never heal, so verdicts cover correct hosts only "
                "and 'containment' is worst-case over all monitored "
                "invariants (tree protocol only)")
    return result


#: E25 utilization fractions of the measured capacity, mild -> overload
E25_UTILIZATIONS: Tuple[float, ...] = (0.4, 1.5, 3.0)

#: protocols swept by E25; "tree+shed" is the tree protocol with bounded
#: resources, load shedding, and admission control switched on
E25_PROTOCOLS: Tuple[str, ...] = ("tree", "tree+shed", "basic", "epidemic")


def _e25_resources(capacity: float) -> ResourceConfig:
    """The bounded-resource policy E25 gives the shedding tree.

    Admission is anchored at the measured capacity: the token bucket
    passes what the slowest pipeline stage can actually service and
    rejects the overload at the source, before it ever costs a trunk
    transmission.  Store/fill-table/outbound bounds catch what admission
    lets through in bursts.
    """
    return ResourceConfig(store_limit=64, fill_table_limit=512,
                          outbound_queue_limit=32,
                          admission_rate=capacity, admission_burst=8)


def _e25_capacity(protocol: str, seed: int, clusters: int,
                  hosts_per_cluster: int, probe_n: int) -> float:
    """Closed-loop capacity probe for one (unshed) protocol family."""
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster, backbone="line")
    return measure_capacity(deploy(protocol, built), n=probe_n)


def _e25_point(protocol: str, shape: str, utilization: float,
               capacity: float, seed: int, clusters: int,
               hosts_per_cluster: int, duration: float, drain: float,
               churn: bool, slo: Tuple[Optional[float], Optional[float],
                                       Optional[float]]) -> Dict[str, Any]:
    """One E25 grid point: one protocol under one sustained load window."""
    from ..chaos import ChaosPlan, ChaosSpec, HostChurnSpec
    from ..verify import OverloadMonitor

    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster, backbone="line")
    if protocol == "tree+shed":
        system = deploy("tree", built, resources=_e25_resources(capacity))
    else:
        system = deploy(protocol, built)
    monitor = OverloadMonitor(sim, built.network, system=system).start()

    start_at = 5.0  # let the tree attach before the load window opens
    if churn:
        churned = tuple(str(h) for h in built.hosts
                        if h != system.source_id)
        ChaosPlan(sim, system, ChaosSpec(
            heal_by=start_at + duration,
            host_churn=(HostChurnSpec(churned, mean_up=25.0,
                                      mean_down=5.0),))).start()
    counting = CountingSource(system.source)
    offered = schedule_open_loop(sim, counting, shape,
                                 rate=utilization * capacity,
                                 duration=duration, start_at=start_at)
    sim.run(until=start_at + duration)
    monitor.note_load_end()

    admitted = counting.admitted
    delivered_ok = system.run_until_delivered(admitted, timeout=drain)
    if delivered_ok:
        sim.run(until=sim.now + 10.0)  # let in-flight control traffic land
    monitor.stop()
    report = monitor.report(delivered_ok)

    stats = delivery_latency_stats(system.delivery_records(),
                                   system.source_id, upto_seq=admitted)
    slo_ok, failures = SloSpec(*slo).evaluate(stats)
    shed = int(sum(sim.metrics.counter(f"proto.shed.{buffer}").value
                   for buffer in ("store", "fill_table", "outbound")))
    rejected = int(
        sim.metrics.counter("proto.source.admission_rejected").value)
    pressure = link_pressure(built.network.links.values())
    worst = pressure[0] if pressure else None
    return dict(
        protocol=protocol, shape=shape, util=utilization,
        churn="yes" if churn else "-",
        offered=offered, admitted=admitted, delivered_ok=delivered_ok,
        p50_s=stats.p50, p99_s=stats.p99, p999_s=stats.p999,
        slo="pass" if slo_ok else "; ".join(failures),
        verdict=report.verdict, peak_queue=report.peak_queue,
        peak_store=report.peak_store, shed=shed, rejected=rejected,
        worst_link=(f"{worst['link']}:{worst['overflows']}" if worst
                    and worst["overflows"] else "-"))


def _e25_claims(v: Judge) -> None:
    v.key = ("protocol", "shape", "util", "churn")
    v.each("§5 ¶7 past saturation: at 3 x capacity the unbounded tree "
           "collapses on drop-tail overflow",
           lambda r: r["verdict"] == "collapsed" and not r["delivered_ok"]
           and r["slo"] != "pass" and r["worst_link"] != "-",
           "verdict", "delivered_ok", "slo", "worst_link",
           rows=v.where(protocol="tree", shape="poisson", util=3.0))
    v.each("§5 ¶7 past saturation: shedding and admission bring it back",
           lambda r: r["verdict"] == "degraded_recovering" and r["delivered_ok"]
           and 0 < r["rejected"] and r["admitted"] < r["offered"]
           and r["shed"] > 0, "verdict", "delivered_ok", "rejected",
           "admitted", "offered", "shed",
           rows=v.where(protocol="tree+shed", shape="poisson", util=3.0,
                        churn="-"))
    mild = [v.one(protocol=p, shape="poisson", util=0.4)
            for p in ("tree", "tree+shed")]
    v.each("§5 ¶7: at 0.4 x shedding changes nothing: stable, same p999",
           lambda r: r["verdict"] == "stable"
           and r["p999_s"] == mild[0]["p999_s"], "verdict", "p999_s",
           rows=mild)
    v.each("§5 ¶7: overload with host churn still recovers with shedding",
           lambda r: r["verdict"] in ("degraded_recovering", "stable")
           and r["delivered_ok"], "verdict", "delivered_ok",
           rows=v.where(churn="yes"))


@register("E25", _e25_claims)
def run_e25_saturation(
        seed: int = 25, clusters: int = 3, hosts_per_cluster: int = 2,
        duration: float = 30.0,
        utilizations: Sequence[float] = E25_UTILIZATIONS,
        shapes: Sequence[str] = ("poisson", "bursty"),
        protocols: Sequence[str] = E25_PROTOCOLS,
        drain: float = 60.0,
        slo: Tuple[Optional[float], Optional[float],
                   Optional[float]] = (10.0, 60.0, 120.0),
        probe_n: int = 60,
        executor: Optional[Executor] = None) -> ExperimentResult:
    """E25: saturation sweep — overload, shedding, graceful degradation.

    Phase one probes each protocol family's closed-loop capacity; phase
    two offers sustained open-loop load at ``utilizations`` fractions of
    that capacity for ``duration`` seconds, in each arrival ``shape``,
    then gives the system ``drain`` seconds to deliver everything it
    admitted.  :class:`~repro.verify.OverloadMonitor` classifies every
    run ``stable`` / ``degraded_recovering`` / ``collapsed``; delivery
    latency of the admitted window is scored against the p50/p99/p999
    ``slo`` gates.  The headline contrast: past saturation the unbounded
    tree ``collapsed`` (drop-tail trunk losses leave recovery to
    rate-limited gap fills that never catch up), while ``tree+shed`` —
    identical protocol, bounded buffers plus capacity-anchored admission
    — rejects the excess at the source and comes back
    (``degraded_recovering``).  One extra point composes overload with
    E20-style host churn on the shedding tree (the epidemic baseline
    has no crash model), churn healing when the load window closes.
    """
    probes = [WorkItem(key=("E25", "capacity", protocol), fn=_e25_capacity,
                       kwargs=dict(protocol=protocol, seed=seed,
                                   clusters=clusters,
                                   hosts_per_cluster=hosts_per_cluster,
                                   probe_n=probe_n))
              for protocol in PROTOCOLS]
    capacity = dict(zip(PROTOCOLS, _map_items(executor, probes)))
    capacity["tree+shed"] = capacity["tree"]  # same protocol family

    result = ExperimentResult(
        "E25", "Saturation: overload verdicts and tail-latency SLOs",
        ["protocol", "shape", "util", "churn", "offered", "admitted",
         "delivered_ok", "p50_s", "p99_s", "p999_s", "slo", "verdict",
         "peak_queue", "peak_store", "shed", "rejected", "worst_link"])
    items = []
    for protocol in protocols:
        for shape in shapes:
            for utilization in utilizations:
                items.append(WorkItem(
                    key=("E25", protocol, shape, utilization),
                    fn=_e25_point,
                    kwargs=dict(protocol=protocol, shape=shape,
                                utilization=utilization,
                                capacity=capacity[protocol], seed=seed,
                                clusters=clusters,
                                hosts_per_cluster=hosts_per_cluster,
                                duration=duration, drain=drain,
                                churn=False, slo=slo)))
    if "tree+shed" in protocols:
        items.append(WorkItem(
            key=("E25", "tree+shed", shapes[0], max(utilizations), "churn"),
            fn=_e25_point,
            kwargs=dict(protocol="tree+shed", shape=shapes[0],
                        utilization=max(utilizations),
                        capacity=capacity["tree+shed"], seed=seed,
                        clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster,
                        duration=duration, drain=3 * drain, churn=True,
                        slo=slo)))
    for row in _map_items(executor, items):
        result.add_row(**row)
    result.note("capacities (msg/s): " + ", ".join(
        f"{p}={capacity[p]:.2f}" for p in PROTOCOLS) +
        "; util is the offered fraction of the protocol's own capacity; "
        "latency percentiles cover the admitted window only; the churn "
        "row composes overload with E20-style host crash/recovery "
        "healing at load end")
    return result
