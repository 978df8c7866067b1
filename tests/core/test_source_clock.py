"""A broadcast reads the clock once.

Over UDP every ``runtime.now()`` is a fresh wall-clock reading, so a
source that read it separately for the message and for its own delivery
record would stamp them differently: the record would disagree with
the ``created_at`` every other host measures its delay from, and the
source's own delay would be above 0.  The runtime here advances on
every read, so any second read shows.
"""

import itertools

import pytest

from repro.baseline import BasicBroadcastSystem, EpidemicBroadcastSystem
from repro.core import BroadcastSystem
from repro.net import wan_of_lans
from repro.sim import Simulator


def ticking_system(system_cls):
    sim = Simulator(seed=0)
    built = wan_of_lans(sim, clusters=1, hosts_per_cluster=3,
                        convergence_delay=0.0)
    system = system_cls(built)
    ticks = itertools.count(1.0, 0.25)
    system.runtime.now = lambda: next(ticks)  # every read moves the clock
    return system


@pytest.mark.parametrize("system_cls", [
    BroadcastSystem, BasicBroadcastSystem, EpidemicBroadcastSystem])
def test_the_source_record_carries_the_message_creation_time(system_cls):
    system = ticking_system(system_cls)
    source = system.source
    seq = source.broadcast("x")
    record = source.deliveries.get(seq)
    assert record.created_at == source.store[seq].created_at
    assert record.delivered_at == record.created_at
    assert record.delay == 0.0
