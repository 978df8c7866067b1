"""Chaos orchestration: composable fault injection with a heal horizon.

The network layer (:mod:`repro.net.failures`) injects *network* faults
— link outages, link churn, server crashes, partitions.  This package
adds the failure model's third leg, **host** crashes (a crashed host
loses volatile state and must re-attach and catch up on recovery), and
a :class:`ChaosPlan` orchestrator that composes all injector kinds from
one declarative, seed-deterministic spec with a guaranteed heal-by
horizon — after which every injected fault is provably repaired, so
tests can assert the paper's eventual-delivery claim.

The host and packet injectors are backend-agnostic (sans-IO): they
speak only the :class:`~repro.io.interfaces.Runtime` contract and the
uniform transport tap surface, so the same :class:`ChaosPlan` also runs
a seeded spec over real UDP sockets (``ChaosPlan(system.runtime,
system, spec)``); :func:`~repro.chaos.nemesis.wait_healed` awaits its
heal under a wall-clock deadline.

:mod:`repro.chaos.adversary` goes past faults entirely: adversarial
(Byzantine-ish) host personas that keep misbehaving *through* the heal
horizon, against which the delivery claim is asserted over correct
hosts only (see :mod:`repro.verify.containment`).
"""

from .adversary import PERSONAS, AdversaryHarness, AdversarySpec
from .hosts import HostCrashSchedule, HostFlapper
from .nemesis import wait_healed
from .packets import PacketChaos, PacketFaultSpec
from .plan import (
    ChaosPlan,
    ChaosSpec,
    HostChurnSpec,
    HostOutageSpec,
    LinkChurnSpec,
    LinkOutageSpec,
    PartitionSpec,
    PartitionWindowSpec,
    ServerOutageSpec,
)

__all__ = [
    "AdversaryHarness",
    "AdversarySpec",
    "ChaosPlan",
    "ChaosSpec",
    "PERSONAS",
    "HostChurnSpec",
    "HostCrashSchedule",
    "HostFlapper",
    "HostOutageSpec",
    "LinkChurnSpec",
    "LinkOutageSpec",
    "PacketChaos",
    "PacketFaultSpec",
    "PartitionSpec",
    "PartitionWindowSpec",
    "ServerOutageSpec",
    "wait_healed",
]
