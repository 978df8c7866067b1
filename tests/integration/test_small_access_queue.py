"""Eventual delivery when a control burst outgrows the access queue.

``BroadcastHost._info_inter_tick`` sends one INFO to every participant
outside its cluster view at one instant, in sorted host order.  When
that burst is longer than the host's access-link queue, the same tail
destinations overflow on every tick, so a loss becomes starvation: on
a 3 x 4 mesh with ``queue_limit=7`` host ``h2.3`` never hears a cluster
mate and never delivers.  One slot more and everyone delivers.  The
first test records the defect until the host paces its fan-out; the
second keeps the working neighbour of that shape green.
"""

import pytest

from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import cheap_spec, wan_of_lans
from repro.sim import Simulator

MESSAGES = 10


def undelivered_hosts(queue_limit):
    sim = Simulator(seed=1)
    built = wan_of_lans(sim, clusters=3, hosts_per_cluster=4,
                        backbone="mesh", cheap=cheap_spec(queue_limit=queue_limit))
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(12)).start()
    system.broadcast_stream(MESSAGES, interval=1.0, start_at=1.0)
    system.run_until_delivered(MESSAGES, timeout=120.0)
    return sorted(str(h) for h, host in system.hosts.items()
                  if not host.deliveries.has_all(MESSAGES))


@pytest.mark.xfail(strict=True, reason=(
    "the inter-cluster INFO burst (one packet per outside participant, "
    "same instant, same sorted order) overflows a 7-packet access queue "
    "at the same tail every period, so h2.3 is orphaned"))
def test_every_host_delivers_when_the_info_burst_outgrows_the_queue():
    assert undelivered_hosts(queue_limit=7) == []


def test_every_host_delivers_with_one_more_queue_slot():
    assert undelivered_hosts(queue_limit=8) == []
