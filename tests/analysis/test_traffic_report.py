"""Tests for traffic decomposition, congestion reports, and tables."""

import pytest

from repro.analysis import (
    Table,
    congestion_report,
    link_transmissions,
    traffic_report,
)
from repro.baseline import BasicBroadcastSystem
from repro.core import BroadcastSystem
from repro.net import wan_of_lans
from repro.sim import Simulator


def test_traffic_report_reads_counters():
    sim = Simulator()
    sim.metrics.counter("net.h2h.sent.kind.data").inc(10)
    sim.metrics.counter("net.h2h.sent.kind.control").inc(30)
    report = traffic_report(sim)
    assert report.data_sent == 10
    assert report.control_sent == 30
    assert report.control_fraction_sent == 0.75


def test_link_transmissions_strips_prefix():
    sim = Simulator()
    sim.metrics.counter("linktx.a<->b").inc(4)
    assert link_transmissions(sim) == {"a<->b": 4}


def test_congestion_concentration_tree_vs_basic():
    def run(system_cls):
        sim = Simulator(seed=2)
        built = wan_of_lans(sim, clusters=2, hosts_per_cluster=4,
                            backbone="line")
        system = system_cls(built).start()
        system.broadcast_stream(10, interval=1.0, start_at=2.0)
        system.run_until_delivered(10, timeout=200.0)
        return congestion_report(sim, built.network, system.source_id)

    tree = run(BroadcastSystem)
    basic = run(BasicBroadcastSystem)
    # Basic funnels everything through the source's access link.
    assert basic.concentration > tree.concentration
    assert basic.source_access_tx > tree.source_access_tx


class TestTable:
    def test_render_alignment(self):
        table = Table(["name", "value"], title="T")
        table.add_row("a", 1.5)
        table.add_row("long-name", 12345.0)
        out = table.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "12,345" in out

    def test_nan_renders_as_dash(self):
        table = Table(["x"])
        table.add_row(float("nan"))
        assert "-" in table.render().splitlines()[-1]

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table([])


def test_source_peak_queue_is_the_access_link_queue_peak():
    sim = Simulator(seed=2)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=4, backbone="line")
    system = BasicBroadcastSystem(built).start()
    system.broadcast_stream(10, interval=0.2, start_at=2.0)
    system.run_until_delivered(10, timeout=200.0)
    report = congestion_report(sim, built.network, system.source_id)
    link = built.network.access_link(system.source_id)
    assert report.source_peak_queue == link.queue_peak(str(system.source_id))
    assert report.source_peak_queue > 1  # the basic source's copies queue up

