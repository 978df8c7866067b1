"""ChaosPlan: one declarative, seeded spec composing every injector.

A :class:`ChaosSpec` names the faults to inject — host crashes, host
churn, link outages, link churn, server outages, partitions (one-shot
windows or periodic brief-connectivity schedules), packet faults —
plus a ``heal_by`` horizon.  :class:`ChaosPlan` turns the spec into live
injectors and **guarantees** that by ``heal_by`` every injected fault
has been repaired: scheduled outages are validated to end before the
horizon at construction time, and churners are stopped and force-healed
when it arrives.  After ``heal_by`` the network is whole and every host
is up, so a test can assert the paper's reliability claim ("eventually
deliver all messages to all destinations") without racing the fault
injection itself.

Determinism: all randomness (the churners') flows from the simulator's
seeded RNG streams, so a (seed, spec) pair replays the identical fault
sequence.

One orchestrator serves every :class:`~repro.io.interfaces.Deployment`.
Host outages, host churn and packet faults need only the
:class:`~repro.io.interfaces.Runtime` contract and a port surface, so
they install the same way in-sim and over real UDP sockets; link and
server outages, partitions, link churn and adversaries act on the
simulated network and are rejected by name on a deployment without
one.  Over a wall clock the heal timer fires when the event loop gets
to it, so :func:`~repro.chaos.nemesis.wait_healed` awaits it with a
wall deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..io.interfaces import Runtime, TimerHandle, as_runtime
from ..net import (
    FailureSchedule,
    HostId,
    LinkFlapper,
    PartitionScheduler,
    ServerOutageSchedule,
    cut_links_between,
)
from ..scenarios.partitions import BriefWindowSchedule, WindowSpec
from .adversary import AdversaryHarness, AdversarySpec
from .hosts import HostCrashSchedule, HostFlapper
from .packets import PacketChaos, PacketFaultSpec

_INF = float("inf")

#: spec legs that act on a simulated network
_SIM_ONLY = ("link_outages", "server_outages", "partitions",
             "window_partitions", "link_churn", "adversaries")


@dataclass(frozen=True)
class HostOutageSpec:
    """Host ``host`` is crashed during [start, end)."""

    host: str
    start: float
    end: float


@dataclass(frozen=True)
class LinkOutageSpec:
    """Link (a, b) is down during [start, end); windows may overlap."""

    a: str
    b: str
    start: float
    end: float


@dataclass(frozen=True)
class ServerOutageSpec:
    """Server ``server`` is down during [start, end)."""

    server: str
    start: float
    end: float


@dataclass(frozen=True)
class PartitionSpec:
    """The network splits into ``groups`` (node names) during [start, end)."""

    groups: Tuple[Tuple[str, ...], ...]
    start: float
    end: float


@dataclass(frozen=True)
class PartitionWindowSpec:
    """``groups`` stay partitioned until ``until``, except during brief
    periodic connectivity windows (the Section 6 trade-off scenario,
    :class:`~repro.scenarios.partitions.BriefWindowSchedule`, as a
    composable chaos fault).  The partition must end before the plan's
    heal-by horizon."""

    groups: Tuple[Tuple[str, ...], ...]
    window: WindowSpec
    until: float

    def __post_init__(self) -> None:
        if len(self.groups) < 2:
            raise ValueError(f"{self}: need at least two groups")
        if self.until <= self.window.first_open:
            raise ValueError(
                f"{self}: until must be after the first window opens")


@dataclass(frozen=True)
class HostChurnSpec:
    """Exponential up/down churn over ``hosts`` until the heal horizon."""

    hosts: Tuple[str, ...]
    mean_up: float = 30.0
    mean_down: float = 5.0


@dataclass(frozen=True)
class LinkChurnSpec:
    """Exponential up/down churn over ``links`` until the heal horizon."""

    links: Tuple[Tuple[str, str], ...]
    mean_up: float = 30.0
    mean_down: float = 5.0


@dataclass(frozen=True)
class ChaosSpec:
    """Everything a chaos run injects, plus the guaranteed heal horizon."""

    heal_by: float
    host_outages: Tuple[HostOutageSpec, ...] = ()
    link_outages: Tuple[LinkOutageSpec, ...] = ()
    server_outages: Tuple[ServerOutageSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    #: long-lived partitions relieved only by brief periodic windows;
    #: each must end (and its links be repaired) before ``heal_by``
    window_partitions: Tuple[PartitionWindowSpec, ...] = ()
    host_churn: Tuple[HostChurnSpec, ...] = ()
    link_churn: Tuple[LinkChurnSpec, ...] = ()
    #: packet-level faults (drop/corrupt/duplicate/delay/replay); a
    #: finite rule window must end at or before ``heal_by``, an open
    #: ``end`` (the default, +inf) is clamped to it, and the injector
    #: is stopped — pending injections cancelled — when the horizon
    #: arrives
    packet_faults: Tuple[PacketFaultSpec, ...] = ()
    #: adversarial (Byzantine-ish) host personas.  Deliberately EXEMPT
    #: from the heal-by validation: a misbehaving host is not a fault
    #: the network heals, so the heal-by guarantee covers benign faults
    #: only and reliability verdicts under adversaries are taken over
    #: the correct hosts (see :mod:`repro.chaos.adversary`)
    adversaries: Tuple[AdversarySpec, ...] = ()

    def __post_init__(self) -> None:
        if self.heal_by <= 0:
            raise ValueError("heal_by must be positive")
        for outage in (*self.host_outages, *self.link_outages,
                       *self.server_outages, *self.partitions):
            if outage.end <= outage.start:
                raise ValueError(f"{outage}: end must be after start")
            if outage.end > self.heal_by:
                raise ValueError(
                    f"{outage}: ends after the heal_by horizon {self.heal_by}")
        for windowed in self.window_partitions:
            if windowed.until >= self.heal_by:
                raise ValueError(
                    f"{windowed}: must end before the heal_by horizon "
                    f"{self.heal_by}")
        for churn in (*self.host_churn, *self.link_churn):
            if churn.mean_up <= 0 or churn.mean_down <= 0:
                raise ValueError(f"{churn}: means must be positive")
        for fault in self.packet_faults:
            if fault.start >= self.heal_by:
                raise ValueError(
                    f"{fault}: starts at or after the heal_by horizon "
                    f"{self.heal_by}")
            if fault.end != _INF and fault.end > self.heal_by:
                raise ValueError(
                    f"{fault}: packet-fault window ends at {fault.end}, "
                    f"after the heal_by horizon {self.heal_by} "
                    f"(use the default end=inf to run until the heal)")


class ChaosPlan:
    """Live orchestration of a :class:`ChaosSpec` against one deployment.

    ``runtime`` is the deployment's clock: over UDP pass
    ``system.runtime``; a bare ``Simulator`` is coerced.
    """

    def __init__(self, runtime, system, spec: ChaosSpec) -> None:
        self.runtime: Runtime = as_runtime(runtime)
        self.system = system
        self.spec = spec
        #: the simulated network, or None on a real-socket deployment
        self.network = getattr(system, "network", None)
        self.healed = False
        self._heal_timer: Optional[TimerHandle] = None
        self._host_schedule: Optional[HostCrashSchedule] = None
        self._host_flappers: List[HostFlapper] = []
        self._link_flappers: List[LinkFlapper] = []
        self._packet_chaos: List[PacketChaos] = []
        #: links any churner may leave down at the horizon
        self._churned_links: List[Tuple[str, str]] = []

    def _check(self) -> None:
        """Reject legs this deployment cannot run, and unknown hosts."""
        spec = self.spec
        if self.network is None:
            for kind in _SIM_ONLY:
                if getattr(spec, kind):
                    raise ValueError(
                        f"ChaosSpec.{kind} needs a simulated network; "
                        f"{type(self.system).__name__} has none")
        named = (
            ("host_outages", [o.host for o in spec.host_outages]),
            ("host_churn", [h for c in spec.host_churn for h in c.hosts]),
            ("packet_faults", [h for f in spec.packet_faults
                               for h in (f.src, f.dst) if h != "*"]),
            ("adversaries", [a.host for a in spec.adversaries]),
        )
        for leg, names in named:
            for name in names:
                if name not in self.system.hosts:
                    raise ValueError(f"ChaosSpec.{leg} names {name!r}, "
                                     f"which is not a deployment host")

    def start(self) -> "ChaosPlan":
        """Install every injector and schedule the heal; returns self.

        Over UDP, call with the event loop running and the sockets open.
        """
        self._check()
        spec, runtime, system = self.spec, self.runtime, self.system
        if spec.host_outages:
            self._host_schedule = HostCrashSchedule(
                runtime, system, on_crash=self._on_host_crash)
            for outage in spec.host_outages:
                self._host_schedule.outage(outage.start, outage.end,
                                           HostId(outage.host))
        network = self.network
        if spec.link_outages:
            links = FailureSchedule(system.sim, network)
            for outage in spec.link_outages:
                links.outage(outage.start, outage.end, outage.a, outage.b)
        if spec.server_outages:
            servers = ServerOutageSchedule(system.sim, network)
            for outage in spec.server_outages:
                servers.outage(outage.start, outage.end, outage.server)
        for outage in spec.partitions:
            PartitionScheduler(system.sim, network).partition(
                [list(group) for group in outage.groups],
                outage.start, outage.end)
        for windowed in spec.window_partitions:
            cut = set()
            for i, group_a in enumerate(windowed.groups):
                for group_b in windowed.groups[i + 1:]:
                    cut.update(cut_links_between(network, group_a, group_b))
            BriefWindowSchedule(system.sim, network, sorted(cut),
                                windowed.window, windowed.until)
        for idx, churn in enumerate(spec.host_churn):
            self._host_flappers.append(HostFlapper(
                runtime, system, hosts=[HostId(h) for h in churn.hosts],
                mean_up=churn.mean_up, mean_down=churn.mean_down,
                rng_stream=f"chaos.hosts.{idx}",
                on_crash=self._on_host_crash).start())
        for idx, churn in enumerate(spec.link_churn):
            self._link_flappers.append(LinkFlapper(
                system.sim, network, churn.links,
                mean_up=churn.mean_up, mean_down=churn.mean_down,
                rng_stream=f"chaos.links.{idx}").start())
            self._churned_links.extend(churn.links)
        if spec.packet_faults:
            clamped = tuple(replace(f, end=min(f.end, spec.heal_by))
                            for f in spec.packet_faults)
            ports = network if network is not None else system.transports
            self._packet_chaos.append(PacketChaos(
                runtime, ports, clamped, rng_stream="chaos.packets").start())
        if spec.adversaries:
            # Installed after PacketChaos so persona taps chain over the
            # packet-fault taps (the persona delegates what it does not
            # consume); NOT stopped at heal — Byzantine hosts persist.
            AdversaryHarness(system.sim, system, spec.adversaries,
                             rng_stream="chaos.adversary").start()
        self._heal_timer = runtime.start_timer(spec.heal_by - runtime.now(),
                                               self._heal)
        runtime.trace("chaos.start", "plan", heal_by=spec.heal_by)
        return self

    def adversary_hosts(self) -> frozenset:
        """Names of hosts the spec makes misbehave at any point."""
        return frozenset(spec.host for spec in self.spec.adversaries)

    def _on_host_crash(self, host: HostId) -> None:
        """A plan-managed host crashed: chaos-made packets already in
        flight toward it must die with it, like every other pending
        injection a stopped injector cancels."""
        for chaos in self._packet_chaos:
            chaos.cancel_pending_for(host)

    def _heal(self) -> None:
        """The heal-by guarantee: stop churners, repair everything.

        Afterwards no host is down, also when a wall-clock outage ending
        at ``heal_by`` has not yet recovered its host.  Adversary
        personas are deliberately *not* healed: they are not faults,
        and their windows are allowed to outlive the horizon (see
        :class:`~repro.chaos.adversary.AdversarySpec`)."""
        self._heal_timer = None
        if self._host_schedule is not None:
            self._host_schedule.stop()
        for flapper in self._host_flappers:
            flapper.heal()
        for flapper in self._link_flappers:
            flapper.stop()
        for chaos in self._packet_chaos:
            chaos.stop()
        for a, b in self._churned_links:
            self.network.set_link_state(a, b, up=True)
        for host in self.system.crashed_hosts():
            self.system.recover_host(host)
        self.healed = True
        self.runtime.trace("chaos.healed", "plan")

    def stop(self) -> None:
        """Heal now if the horizon has not come yet; idempotent."""
        if self._heal_timer is not None:
            self.runtime.cancel_timer(self._heal_timer)
        if not self.healed:
            self._heal()
