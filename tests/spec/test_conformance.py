"""Conformance tests: the implementation obeys its own specification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BroadcastSystem, ProtocolConfig
from repro.io import UdpBroadcastSystem, cluster_names
from repro.net import HostId, cheap_spec, expensive_spec, wan_of_lans
from repro.scenarios import midstream_partition
from repro.sim import Simulator
from repro.spec import check_conformance, check_trace


def run_system(seed=1, k=2, m=2, n=10, loss=0.0, dup=0.0, partition=False):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=k, hosts_per_cluster=m, backbone="line",
                        cheap=cheap_spec(loss_prob=loss, dup_prob=dup),
                        expensive=expensive_spec(loss_prob=loss, dup_prob=dup))
    if partition:
        midstream_partition(built, cluster_index=k - 1, start=5.0, end=20.0)
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(k * m))
    system.start()
    system.broadcast_stream(n, interval=0.5, start_at=2.0)
    ok = system.run_until_delivered(n, timeout=500.0)
    return system, ok


def test_clean_run_conforms_and_completes():
    system, ok = run_system()
    assert ok
    report = check_conformance(system, expect_complete=True)
    assert report.ok, report.violations
    assert report.actions_checked > 20


def test_lossy_run_conforms():
    system, ok = run_system(seed=3, loss=0.1, dup=0.05)
    assert ok
    report = check_conformance(system, expect_complete=True)
    assert report.ok, report.violations


def test_partitioned_run_conforms():
    system, ok = run_system(seed=4, k=3, partition=True, n=15)
    assert ok
    report = check_conformance(system, expect_complete=True)
    assert report.ok, report.violations


def test_incomplete_run_detected():
    sim = Simulator(seed=5)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2, backbone="line")
    built.network.set_link_state("s0", "s1", up=False)  # permanent partition
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(4)).start()
    system.broadcast_stream(3, interval=0.5, start_at=2.0)
    sim.run(until=30.0)
    report = check_conformance(system, expect_complete=True)
    assert not report.ok
    assert any("never received" in v for v in report.violations)


def test_fabricated_bad_event_is_caught():
    """The checker is not a rubber stamp: a forged trace event fails."""
    system, ok = run_system()
    sim = system.sim
    victim = HostId("h1.1")
    # Forge a delivery of a message that was never broadcast.
    sim.trace.emit("host.deliver", str(victim), seq=999, sender="h0.0",
                   gapfill=False)
    report = check_conformance(system)
    assert not report.ok
    assert any("never broadcast" in v for v in report.violations)


def test_forged_new_max_from_non_parent_caught():
    system, ok = run_system()
    sim = system.sim
    # h1.1's parent is some specific host; forge a new-max delivery from
    # a non-parent (the source's own sibling h0.1 can never be everyone's
    # parent simultaneously, so pick whichever host is NOT the parent).
    victim = system.hosts[HostId("h1.1")]
    non_parent = next(h for h in system.built.hosts
                      if h not in (victim.parent, victim.me))
    sim.trace.emit("source.broadcast", "h0.0", seq=11)
    sim.trace.emit("host.deliver", "h0.1", seq=11, sender="h0.0", gapfill=False)
    sim.trace.emit("host.deliver", str(victim.me), seq=11,
                   sender=str(non_parent), gapfill=False)
    report = check_conformance(system)
    assert not report.ok


def test_conformance_reads_an_unopened_udp_deployment():
    """Hosts come from the deployment and the trace from its runtime's
    sink, so the UDP backend is checked like the simulator.  No socket
    is bound and no host runs."""
    system = UdpBroadcastSystem(cluster_names(2, 2))
    assert check_conformance(system, expect_complete=False).ok
    system.runtime.trace_sink.emit("host.deliver", "h1.1", seq=1,
                                   sender="h0.0", gapfill=False)
    report = check_conformance(system)
    assert report.actions_checked == 1
    assert any("never broadcast" in v for v in report.violations)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000),
       loss=st.floats(min_value=0.0, max_value=0.12))
def test_conformance_holds_across_random_runs(seed, loss):
    """Property: every reachable run satisfies the abstract spec."""
    system, ok = run_system(seed=seed, loss=loss, n=8)
    report = check_conformance(system, expect_complete=ok)
    assert report.ok, (seed, loss, report.violations)


def test_refinement_state_correspondence():
    """The concrete final state must equal the abstract replayed state."""
    from repro.spec import BroadcastSpec, check_refinement

    system, ok = run_system(seed=9, loss=0.05)
    assert ok
    report = check_conformance(system, expect_complete=True)
    assert report.ok, report.violations


def test_refinement_catches_state_divergence():
    from repro.spec import BroadcastSpec, check_refinement

    system, ok = run_system()
    spec = BroadcastSpec(source=system.source_id, hosts=system.built.hosts)
    # Deliberately diverge: abstract state never saw any action.
    violations = check_refinement(system, spec)
    assert violations
    assert any("diverges" in v for v in violations)
