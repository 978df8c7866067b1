"""The one Deployment surface, checked on all four system classes.

Tree, basic and epidemic in-sim; tree over localhost UDP.  Nothing here
advances time: the source delivers its own broadcast at issue time,
which is enough to tell "every host" from "the given hosts".
"""

import asyncio

import pytest

from repro.baseline import BasicBroadcastSystem, EpidemicBroadcastSystem
from repro.core import BroadcastSystem
from repro.io import Deployment, UdpBroadcastSystem, cluster_names
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator

SIM_SYSTEMS = {"tree": BroadcastSystem, "basic": BasicBroadcastSystem,
               "epidemic": EpidemicBroadcastSystem}
KINDS = [*SIM_SYSTEMS, "udp"]


def with_system(kind, check, **kwargs):
    """Build the ``kind`` deployment, bring it up, run ``check(system)``."""
    if kind != "udp":
        built = wan_of_lans(Simulator(seed=0), clusters=2, hosts_per_cluster=2)
        return check(SIM_SYSTEMS[kind](built, **kwargs))

    async def main():
        system = UdpBroadcastSystem(cluster_names(2, 2), time_scale=0.05,
                                    **kwargs)
        await system.open()
        try:
            return check(system)
        finally:
            system.close()
    return asyncio.run(main())


@pytest.mark.parametrize("kind", KINDS)
def test_lifecycle(kind):
    def check(system):
        assert isinstance(system, Deployment)
        assert system.start() is system
        system.stop()
        system.stop()
        assert system.source is system.hosts[system.source_id]
    with_system(kind, check)


@pytest.mark.parametrize("kind", KINDS)
def test_unknown_source_is_rejected_at_construction(kind):
    source = "nope" if kind == "udp" else HostId("nope")
    with pytest.raises(ValueError, match="nope"):
        with_system(kind, lambda system: None, source=source)


@pytest.mark.parametrize("kind", KINDS)
def test_broadcast_stream_rejects_bad_arguments(kind):
    def check(system):
        with pytest.raises(ValueError):
            system.broadcast_stream(-1, interval=1.0)
        with pytest.raises(ValueError):
            system.broadcast_stream(3, interval=0.0)
        system.broadcast_stream(0, interval=1.0)
    with_system(kind, check)


@pytest.mark.parametrize("kind", KINDS)
def test_all_delivered_and_delivery_records(kind):
    def check(system):
        assert system.all_delivered(0)
        assert system.source.broadcast("x") == 1
        assert system.all_delivered(1, hosts=[system.source_id])
        assert system.all_delivered(1, hosts=[])
        assert not system.all_delivered(1)
        records = system.delivery_records()
        assert list(records) == list(system.hosts)
        assert [r.seq for r in records[system.source_id]] == [1]
        assert all(not records[h] for h in records if h != system.source_id)
    with_system(kind, check)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "epidemic"])
def test_crash_and_recover(kind):
    def check(system):
        victim = next(h for h in system.hosts if h != system.source_id)
        assert system.crashed_hosts() == []
        system.crash_host(victim)
        system.crash_host(victim)
        assert system.crashed_hosts() == [victim]
        system.recover_host(victim)
        system.recover_host(victim)
        assert system.crashed_hosts() == []
    with_system(kind, check)


def test_epidemic_has_no_crash_model():
    def check(system):
        with pytest.raises(NotImplementedError):
            system.crash_host(system.source_id)
        assert system.crashed_hosts() == []
    with_system("epidemic", check)
