"""Tests for ASCII rendering and JSON export utilities."""

import json

from repro.analysis import (
    metrics_snapshot,
    metrics_to_json,
    render_cluster_view,
    render_parent_graph,
    render_topology,
    trace_to_jsonl,
)
from repro.core import BroadcastSystem
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator


def converged_system(seed=1):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2, backbone="line")
    system = BroadcastSystem(built).start()
    system.broadcast_stream(5, interval=0.5, start_at=2.0)
    assert system.run_until_delivered(5, timeout=120.0)
    sim.run(until=sim.now + 15.0)
    return sim, built, system


class TestParentGraphRendering:
    def test_source_first_with_tags(self):
        _, _, system = converged_system()
        out = render_parent_graph(system)
        lines = out.splitlines()
        assert lines[0].startswith("h0.0")
        assert "source" in lines[0]
        assert "leader" in lines[0]
        # Every host appears exactly once.
        for host in system.built.hosts:
            assert sum(str(host) + " " in line or line.strip().startswith(str(host))
                       for line in lines) >= 1

    def test_indentation_reflects_depth(self):
        _, _, system = converged_system()
        parents = system.parent_edges()
        out = render_parent_graph(system)
        for line in out.splitlines():
            name = line.strip().split(" ")[0]
            if name == str(system.source_id):
                assert not line.startswith(" ")

    def test_cycle_members_listed_as_stranded(self):
        sim = Simulator(seed=0)
        built = wan_of_lans(sim, 1, 3, convergence_delay=0.0)
        system = BroadcastSystem(built)
        system.hosts[HostId("h0.1")].parent = HostId("h0.2")
        system.hosts[HostId("h0.2")].parent = HostId("h0.1")
        out = render_parent_graph(system)
        assert "stranded" in out
        assert "h0.1" in out and "h0.2" in out


class TestTopologyRendering:
    def test_sections_present(self):
        _, built, _ = converged_system()
        out = render_topology(built.network)
        assert "servers:" in out
        assert "cheap links:" in out
        assert "expensive links:" in out
        assert "s0<->s1" in out

    def test_down_links_marked(self):
        _, built, _ = converged_system()
        built.network.set_link_state("s0", "s1", up=False)
        assert "(DOWN)" in render_topology(built.network)


class TestClusterViewRendering:
    def test_truth_and_beliefs_shown(self):
        _, _, system = converged_system()
        out = render_cluster_view(system)
        assert "true clusters:" in out
        assert "believed clusters" in out
        assert "h1.1" in out


class TestExport:
    def test_trace_jsonl_round_trips(self, tmp_path):
        sim, _, system = converged_system()
        path = tmp_path / "trace.jsonl"
        count = trace_to_jsonl(sim, path, kind_prefix="host.deliver")
        assert count > 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == count
        record = json.loads(lines[0])
        assert record["kind"] == "host.deliver"
        assert "time" in record and "seq" in record

    def test_trace_jsonl_unfiltered_includes_everything(self, tmp_path):
        sim, _, _ = converged_system()
        path = tmp_path / "all.jsonl"
        count = trace_to_jsonl(sim, path)
        assert count == len(sim.trace)

    def test_metrics_snapshot_structure(self):
        sim, _, _ = converged_system()
        snapshot = metrics_snapshot(sim)
        assert snapshot["counters"]["proto.deliver"] > 0
        assert "proto.delay" in snapshot["histograms"]
        assert snapshot["histograms"]["proto.delay"]["count"] > 0

    def test_histograms_by_prefix_in_name_order(self):
        sim = Simulator(seed=0)
        sim.metrics.histogram("b.delay").observe(2.0)
        sim.metrics.histogram("a.delay").observe(1.0)
        sim.metrics.histogram("a.empty")
        everything = sim.metrics.histograms()
        assert list(everything) == ["a.delay", "a.empty", "b.delay"]
        assert everything["b.delay"] is sim.metrics.histogram("b.delay")
        assert list(sim.metrics.histograms("a.")) == ["a.delay", "a.empty"]
        # The snapshot reads them through the public call and skips
        # histograms that never saw a sample.
        assert list(metrics_snapshot(sim)["histograms"]) == ["a.delay",
                                                             "b.delay"]

    def test_metrics_to_json(self, tmp_path):
        sim, _, _ = converged_system()
        path = tmp_path / "metrics.json"
        metrics_to_json(sim, path, extra={"seed": 1, "who": HostId("h0.0")})
        data = json.loads(path.read_text())
        assert data["meta"]["seed"] == 1
        assert data["meta"]["who"] == "h0.0"
        assert "counters" in data
