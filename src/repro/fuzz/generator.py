"""Random trial generation: one seed → one fully declarative trial.

A :class:`TrialSpec` is everything a fuzz trial needs to run — protocol
choice and knobs, topology parameters, workload, a randomized
:class:`~repro.chaos.plan.ChaosSpec`, and the delivery horizon — and
nothing else: no live objects, no callbacks, no ambient state.  That
makes a trial (a) picklable, so campaigns fan out over
:mod:`repro.exec` workers, (b) JSON-serializable, so a failing trial
becomes a self-contained repro artifact (:mod:`repro.fuzz.artifact`),
and (c) byte-identically replayable, because the simulation it
describes is a pure function of the spec.

:func:`generate_trial` derives every choice from one ``random.Random``
seeded with the trial seed (never global randomness, never the
simulator's RNG), so generation is deterministic across processes and
interpreter runs.  Fault targets are drawn by *name*; the generator
builds a scratch copy of the topology first to learn which hosts,
servers, and links exist — topology construction is itself
deterministic per seed, so the scratch copy and the replayed trial
always agree.

All injected faults respect the :class:`ChaosSpec` heal-by guarantee by
construction: every window ends before the horizon, so a trial that
never delivers its stream *after* healing is a genuine liveness
failure, not an artifact of a still-broken network.  Adversarial host
personas (``FuzzOptions.max_adversaries > 0``) are the deliberate
exception — a Byzantine host stays Byzantine through the heal — so
trials with adversaries take their delivery verdict over the *correct*
hosts only (:mod:`repro.fuzz.properties`).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import List, Tuple

from ..chaos import (
    PERSONAS,
    AdversarySpec,
    ChaosSpec,
    HostChurnSpec,
    HostOutageSpec,
    LinkChurnSpec,
    LinkOutageSpec,
    PartitionSpec,
    PartitionWindowSpec,
    PacketFaultSpec,
    ServerOutageSpec,
)
from ..net import BuiltTopology, wan_of_lans
from ..scenarios.partitions import WindowSpec
from ..sim import Simulator

@dataclass(frozen=True)
class TopologySpec:
    """A ``wan_of_lans`` instance, by its parameters."""

    clusters: int
    hosts_per_cluster: int
    backbone: str = "line"


@dataclass(frozen=True)
class WorkloadSpec:
    """The broadcast stream the source generates."""

    n: int
    interval: float
    start_at: float = 2.0


@dataclass(frozen=True)
class FuzzOptions:
    """Campaign-level knobs bounding the space trials are drawn from."""

    #: protocol under test: ``"tree"`` (the paper's) or ``"basic"``
    protocol: str = "tree"
    #: probability a tree trial runs the adaptive control plane
    adaptive_frac: float = 0.5
    max_clusters: int = 3
    max_hosts_per_cluster: int = 2
    min_fault_events: int = 6
    max_fault_events: int = 14
    #: eventual-delivery deadline, measured from t=0 (well past heal-by)
    horizon: float = 300.0
    #: up to this many adversarial host personas per trial (0, the
    #: default, draws nothing and generates byte-identically to builds
    #: without the adversary model; adversary draws always come *after*
    #: every other draw, so enabling them never perturbs the rest of a
    #: trial)
    max_adversaries: int = 0
    #: personas adversaries are drawn from
    personas: Tuple[str, ...] = PERSONAS

    def __post_init__(self) -> None:
        if self.protocol not in ("tree", "basic"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not 0.0 <= self.adaptive_frac <= 1.0:
            raise ValueError("adaptive_frac must be a probability")
        if self.max_clusters < 2 or self.max_hosts_per_cluster < 1:
            raise ValueError("need at least 2 clusters and 1 host each")
        if not 1 <= self.min_fault_events <= self.max_fault_events:
            raise ValueError("need 1 <= min_fault_events <= max_fault_events")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.max_adversaries < 0:
            raise ValueError("max_adversaries must be >= 0")
        for persona in self.personas:
            if persona not in PERSONAS:
                raise ValueError(f"unknown persona {persona!r}")


@dataclass(frozen=True)
class TrialSpec:
    """One complete, self-contained fuzz trial."""

    seed: int
    protocol: str
    adaptive: bool
    crash_stable_lag: int
    topology: TopologySpec
    workload: WorkloadSpec
    chaos: ChaosSpec
    horizon: float
    stable_window: float = 20.0


def build_topology(spec: TrialSpec) -> Tuple[Simulator, BuiltTopology]:
    """Construct the trial's simulator and topology (deterministic)."""
    sim = Simulator(seed=spec.seed)
    built = wan_of_lans(
        sim,
        clusters=spec.topology.clusters,
        hosts_per_cluster=spec.topology.hosts_per_cluster,
        backbone=spec.topology.backbone,
    )
    return sim, built


@dataclass
class _Names:
    """What exists in a topology: the generator's and shrinker's map."""

    source: str
    victims: List[str] = field(default_factory=list)  #: non-source hosts
    servers: List[str] = field(default_factory=list)
    links: List[Tuple[str, str]] = field(default_factory=list)
    #: per-cluster node groups (server + its hosts), for partitions
    groups: List[Tuple[str, ...]] = field(default_factory=list)


def topology_names(topology: TopologySpec, seed: int) -> _Names:
    """Learn the node/link names a (topology, seed) pair will produce."""
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=topology.clusters,
                        hosts_per_cluster=topology.hosts_per_cluster,
                        backbone=topology.backbone)
    source = str(built.source)
    names = _Names(source=source)
    names.victims = [str(h) for h in built.hosts if str(h) != source]
    names.servers = sorted({f"s{c}" for c in range(topology.clusters)})
    names.links = [(a, b) for a, b in built.backbone]
    for host in built.hosts:
        server = built.network.server_of(host)
        if server is not None:
            names.links.append((str(host), server))
    for index, cluster in enumerate(built.clusters):
        names.groups.append(tuple(sorted(
            [f"s{index}"] + [str(h) for h in cluster])))
    return names


def _window(rng: random.Random, heal_by: float) -> Tuple[float, float]:
    """A fault window [start, end) ending comfortably before heal_by."""
    start = round(rng.uniform(1.0, heal_by * 0.6), 3)
    duration = round(rng.uniform(1.0, min(10.0, heal_by - start - 0.5)), 3)
    return start, start + duration


def _split_groups(rng: random.Random,
                  groups: List[Tuple[str, ...]]) -> Tuple[Tuple[str, ...], ...]:
    """Split cluster groups into two sides, both non-empty."""
    cut = rng.randint(1, len(groups) - 1)
    shuffled = list(range(len(groups)))
    rng.shuffle(shuffled)
    side_a = sorted(shuffled[:cut])
    side_b = sorted(shuffled[cut:])
    flatten = lambda idxs: tuple(
        name for i in idxs for name in groups[i])
    return (flatten(side_a), flatten(side_b))


#: event kinds and their draw weights; order matters for determinism
_EVENT_KINDS: Tuple[Tuple[str, float], ...] = (
    ("host_outage", 0.30),
    ("link_outage", 0.20),
    ("server_outage", 0.10),
    ("partition", 0.10),
    ("window_partition", 0.05),
    ("packet_fault", 0.15),
    ("host_churn", 0.05),
    ("link_churn", 0.05),
)


def generate_trial(trial_seed: int,
                   options: FuzzOptions = FuzzOptions()) -> TrialSpec:
    """Draw one :class:`TrialSpec` from ``trial_seed`` (pure function)."""
    rng = random.Random(trial_seed)
    clusters = rng.randint(2, options.max_clusters)
    backbone = rng.choice(("line", "ring", "star", "tree"))
    topology = TopologySpec(
        clusters=clusters,
        hosts_per_cluster=rng.randint(1, options.max_hosts_per_cluster),
        backbone=backbone,
    )
    names = topology_names(topology, trial_seed)
    workload = WorkloadSpec(n=rng.randint(5, 12),
                            interval=rng.choice((0.5, 1.0, 2.0)))
    heal_by = round(rng.uniform(25.0, 40.0), 3)

    host_outages: List[HostOutageSpec] = []
    link_outages: List[LinkOutageSpec] = []
    server_outages: List[ServerOutageSpec] = []
    partitions: List[PartitionSpec] = []
    window_partitions: List[PartitionWindowSpec] = []
    packet_faults: List[PacketFaultSpec] = []
    host_churn: List[HostChurnSpec] = []
    link_churn: List[LinkChurnSpec] = []

    kinds = [kind for kind, _ in _EVENT_KINDS]
    weights = [weight for _, weight in _EVENT_KINDS]
    count = rng.randint(options.min_fault_events, options.max_fault_events)
    for _ in range(count):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "host_outage":
            start, end = _window(rng, heal_by)
            host_outages.append(HostOutageSpec(
                rng.choice(names.victims), start, end))
        elif kind == "link_outage":
            start, end = _window(rng, heal_by)
            a, b = rng.choice(names.links)
            link_outages.append(LinkOutageSpec(a, b, start, end))
        elif kind == "server_outage":
            start, end = _window(rng, heal_by)
            server_outages.append(ServerOutageSpec(
                rng.choice(names.servers), start, end))
        elif kind == "partition":
            start, end = _window(rng, heal_by)
            partitions.append(PartitionSpec(
                _split_groups(rng, names.groups), start, end))
        elif kind == "window_partition":
            first_open = round(rng.uniform(2.0, 6.0), 3)
            window = WindowSpec(period=round(rng.uniform(6.0, 10.0), 3),
                                width=round(rng.uniform(1.5, 3.0), 3),
                                first_open=first_open)
            until = round(heal_by - rng.uniform(1.0, 3.0), 3)
            window_partitions.append(PartitionWindowSpec(
                _split_groups(rng, names.groups), window, until))
        elif kind == "packet_fault":
            start, end = _window(rng, heal_by)
            flavor = rng.choice(("corrupt", "duplicate", "delay", "replay"))
            packet_faults.append(PacketFaultSpec(
                dst=rng.choice(["*"] + names.victims),
                start=start, end=end,
                corrupt_prob=(round(rng.uniform(0.05, 0.25), 3)
                              if flavor == "corrupt" else 0.0),
                dup_prob=(round(rng.uniform(0.05, 0.25), 3)
                          if flavor == "duplicate" else 0.0),
                delay_prob=(round(rng.uniform(0.1, 0.4), 3)
                            if flavor == "delay" else 0.0),
                delay=round(rng.uniform(0.2, 1.0), 3),
                replay_prob=(round(rng.uniform(0.02, 0.12), 3)
                             if flavor == "replay" else 0.0),
            ))
        elif kind == "host_churn":
            sample = rng.sample(names.victims,
                                rng.randint(1, len(names.victims)))
            host_churn.append(HostChurnSpec(
                tuple(sorted(sample)),
                mean_up=round(rng.uniform(6.0, 15.0), 3),
                mean_down=round(rng.uniform(1.0, 4.0), 3)))
        else:  # link_churn
            sample = rng.sample(names.links, rng.randint(1, len(names.links)))
            link_churn.append(LinkChurnSpec(
                tuple(sorted(sample)),
                mean_up=round(rng.uniform(6.0, 15.0), 3),
                mean_down=round(rng.uniform(1.0, 4.0), 3)))

    chaos = ChaosSpec(
        heal_by=heal_by,
        host_outages=tuple(host_outages),
        link_outages=tuple(link_outages),
        server_outages=tuple(server_outages),
        partitions=tuple(partitions),
        window_partitions=tuple(window_partitions),
        host_churn=tuple(host_churn),
        link_churn=tuple(link_churn),
        packet_faults=tuple(packet_faults),
    )
    adaptive = (options.protocol == "tree"
                and rng.random() < options.adaptive_frac)
    crash_stable_lag = rng.randint(0, 2)
    # Adversary draws come LAST, gated on the option: with the default
    # max_adversaries=0 this branch consumes no randomness, so existing
    # campaigns generate byte-identical trials.
    if options.max_adversaries > 0:
        k = rng.randint(0, min(options.max_adversaries, len(names.victims)))
        adversaries = []
        for host in sorted(rng.sample(names.victims, k)):
            adversaries.append(AdversarySpec(
                host=host,
                persona=rng.choice(options.personas),
                start=round(rng.uniform(0.0, heal_by * 0.5), 3),
                lie_ahead=rng.randint(1, 5),
                drop_frac=round(rng.uniform(0.5, 1.0), 3),
                replay_interval=round(rng.uniform(2.0, 8.0), 3)))
        if adversaries:
            chaos = dataclasses.replace(chaos,
                                        adversaries=tuple(adversaries))
    return TrialSpec(
        seed=trial_seed,
        protocol=options.protocol,
        adaptive=adaptive,
        crash_stable_lag=crash_stable_lag,
        topology=topology,
        workload=workload,
        chaos=chaos,
        horizon=options.horizon,
    )
