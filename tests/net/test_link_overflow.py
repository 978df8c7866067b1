"""Tests for per-link, per-direction overflow accounting.

Drop-tail overflow was previously visible only as an aggregate count;
these tests pin the per-link counters, per-direction peaks, the
``link_pressure`` summary, and — the protocol-level consequence — that
a trunk saturated into drop-tail by cross traffic loses DATA packets
yet every message still arrives once the pressure lifts, via gap fill.
"""

import pytest

from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import (
    CrossTrafficGenerator,
    CrossTrafficSpec,
    HostId,
    Network,
    RawPayload,
    cheap_spec,
    expensive_spec,
    link_pressure,
    wan_of_lans,
)
from repro.sim import Simulator


def build_link_pair(queue_limit=4):
    sim = Simulator(seed=3)
    network = Network(sim)
    network.add_server("a")
    network.add_server("b")
    link = network.connect("a", "b", expensive_spec(queue_limit=queue_limit))
    x, y = HostId("x"), HostId("y")
    network.add_host(x, "a")
    network.add_host(y, "b")
    network.use_global_routing(convergence_delay=0.0)
    return sim, network, link


def flood(sim, network, count, size_bits=8_000):
    port = network.host_port(HostId("x"))
    for _ in range(count):
        port.send(HostId("y"), RawPayload(size_bits=size_bits))


class TestPerDirectionAccounting:
    def test_overflow_counted_on_the_loaded_direction_only(self):
        sim, network, link = build_link_pair(queue_limit=4)
        sim.schedule_at(1.0, lambda: flood(sim, network, 20))
        sim.run(until=30.0)
        assert link.overflow_count("a") > 0
        assert link.overflow_count("b") == 0
        assert link.queue_peak("a") == 4  # pinned at the drop-tail limit
        assert link.queue_peak("b") <= 1

    def test_per_link_counter_matches_direction_sum(self):
        sim, network, link = build_link_pair(queue_limit=4)
        sim.schedule_at(1.0, lambda: flood(sim, network, 20))
        sim.run(until=30.0)
        per_link = sim.metrics.counter(
            f"net.drop.overflow.link.{link.link_id}").value
        assert per_link == link.overflow_count("a") + link.overflow_count("b")
        assert sim.metrics.counter("net.drop.overflow").value >= per_link

    def test_drop_trace_names_the_direction(self):
        sim, network, link = build_link_pair(queue_limit=4)
        sim.schedule_at(1.0, lambda: flood(sim, network, 20))
        sim.run(until=30.0)
        records = sim.trace.records(kind="link.drop_overflow")
        assert records
        assert all(r.fields["from_node"] == "a" for r in records)

    def test_overflow_counted_with_the_tracer_off(self):
        sim, network, link = build_link_pair(queue_limit=4)
        sim.trace.enabled = False
        sim.schedule_at(1.0, lambda: flood(sim, network, 20))
        sim.run(until=30.0)
        per_link = sim.metrics.counter(
            f"net.drop.overflow.link.{link.link_id}").value
        assert per_link == link.overflow_count("a") > 0
        assert sim.metrics.counter("net.drop.overflow").value >= per_link
        assert len(sim.trace) == 0

    def test_no_overflow_without_pressure(self):
        sim, network, link = build_link_pair(queue_limit=4)
        sim.schedule_at(1.0, lambda: flood(sim, network, 2))
        sim.run(until=30.0)
        assert link.overflow_count("a") == 0
        assert link.queue_peak("a") <= 2


class TestLinkPressure:
    def test_rows_sorted_worst_first(self):
        sim, network, link = build_link_pair(queue_limit=4)
        sim.schedule_at(1.0, lambda: flood(sim, network, 20))
        sim.run(until=30.0)
        rows = link_pressure([link])
        assert rows[0]["from_node"] == "a"
        assert rows[0]["overflows"] == link.overflow_count("a")
        assert rows[0]["queue_peak"] == 4
        assert rows[0]["queue_limit"] == 4

    def test_idle_directions_are_omitted(self):
        sim, network, link = build_link_pair()
        assert link_pressure([link]) == []

    def test_covers_many_links(self):
        sim = Simulator(seed=9)
        built = wan_of_lans(sim, clusters=3, hosts_per_cluster=2,
                            backbone="line")
        system = BroadcastSystem(
            built, config=ProtocolConfig(data_size_bits=4_000)).start()
        system.broadcast_stream(5, interval=0.5, start_at=2.0)
        assert system.run_until_delivered(5, timeout=60.0)
        rows = link_pressure(built.network.links.values())
        assert rows  # broadcast touched multiple links
        peaks = [(row["overflows"], row["queue_peak"]) for row in rows]
        assert peaks == sorted(peaks, reverse=True)


class TestDropTailRecovery:
    """Satellite: overflow under sustained cross-traffic, then gap fill."""

    def test_saturated_trunk_drops_data_but_gap_fill_recovers(self):
        sim = Simulator(seed=13)
        built = wan_of_lans(
            sim, clusters=2, hosts_per_cluster=1, backbone="line",
            expensive=expensive_spec(queue_limit=4))
        trunk = built.network.link("s0", "s1")
        system = BroadcastSystem(
            built, config=ProtocolConfig(data_size_bits=4_000)).start()

        # Saturate the trunk (~130% utilization) for the whole stream.
        xt = CrossTrafficGenerator(sim)
        xt.load(trunk, "s0", CrossTrafficSpec(rate=9.0, size_bits=8_000))
        sim.schedule_at(2.0, xt.start)
        sim.schedule_at(40.0, xt.stop)

        n = 10
        system.broadcast_stream(n, interval=1.0, start_at=5.0)
        sim.run(until=40.0)
        assert trunk.overflow_count("s0") > 0  # drop-tail really engaged
        assert trunk.queue_peak("s0") == 4

        # Pressure gone: every message still arrives, via gap filling.
        assert system.run_until_delivered(n, timeout=200.0)
        assert sim.metrics.counter("proto.gapfill.sent").value > 0
