"""Property-based chaos testing: eventual delivery under random failures.

Hypothesis generates failure schedules (random backbone/access-link
outages that all heal before a horizon) and random loss/duplication
rates; the protocol must always deliver the full stream once the
network stays connected.  This is the paper's core reliability claim
("eventually deliver all messages to all destinations") exercised over
a whole space of adversarial-but-fair runs.
"""

import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosPlan, ChaosSpec, HostChurnSpec, LinkChurnSpec
from repro.core import BroadcastSystem, ProtocolConfig
from repro.net import FailureSchedule, cheap_spec, expensive_spec, wan_of_lans
from repro.sim import Simulator
from repro.verify import InvariantMonitor

#: random outages: (backbone link index, start, duration)
outage_strategy = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=5.0, max_value=35.0),
    st.floats(min_value=1.0, max_value=10.0),
)

#: Tier-1 replays the same examples every run.  CI's non-blocking chaos
#: job sets CHAOS_MAX_EXAMPLES for a deeper sweep, and only then does
#: Hypothesis keep exploring fresh draws.
CHAOS_SETTINGS = settings(
    max_examples=int(os.environ.get("CHAOS_MAX_EXAMPLES", "12")),
    derandomize="CHAOS_MAX_EXAMPLES" not in os.environ,
    deadline=None)

HEAL_BY = 45.0
STABLE_WINDOW = 25.0


@CHAOS_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000),
       outages=st.lists(outage_strategy, max_size=4))
def test_eventual_delivery_despite_backbone_outages(seed, outages):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=3, hosts_per_cluster=2, backbone="ring")
    schedule = FailureSchedule(sim, built.network)
    for link_index, start, duration in outages:
        a, b = built.backbone[link_index % len(built.backbone)]
        # Overlapping windows on the same link compose: the schedule
        # counts down-depth, so the link is up only once every covering
        # outage has ended.
        schedule.outage(start, start + duration, a, b)
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(6)).start()
    system.broadcast_stream(10, interval=1.0, start_at=2.0)
    assert system.run_until_delivered(10, timeout=400.0), {
        "seed": seed, "outages": outages,
        "missing": {str(h): host.info.gaps() or host.info.max_seqno
                    for h, host in system.hosts.items()
                    if not host.deliveries.has_all(10)},
    }


@CHAOS_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000),
       loss=st.floats(min_value=0.0, max_value=0.15),
       dup=st.floats(min_value=0.0, max_value=0.05))
def test_eventual_delivery_under_random_loss_and_duplication(seed, loss, dup):
    sim = Simulator(seed=seed)
    built = wan_of_lans(
        sim, clusters=2, hosts_per_cluster=2, backbone="line",
        cheap=cheap_spec(loss_prob=loss, dup_prob=dup),
        expensive=expensive_spec(loss_prob=loss, dup_prob=dup))
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(4)).start()
    system.broadcast_stream(8, interval=1.0, start_at=2.0)
    assert system.run_until_delivered(8, timeout=500.0)
    # Exactly-once delivery at every host, whatever the duplication.
    for records in system.delivery_records().values():
        seqs = [r.seq for r in records]
        assert len(seqs) == len(set(seqs))


@CHAOS_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000),
       crash_at=st.floats(min_value=4.0, max_value=12.0),
       heal_after=st.floats(min_value=5.0, max_value=20.0))
def test_host_crash_model_recovers(seed, crash_at, heal_after):
    """Failing any host's access link (the paper's host-crash model) and
    repairing it later never prevents full delivery."""
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2, backbone="line")
    victim = built.hosts[seed % len(built.hosts)]
    if victim == built.source:
        victim = built.hosts[1]
    server = built.network.server_of(victim)
    schedule = FailureSchedule(sim, built.network)
    schedule.outage(crash_at, crash_at + heal_after, str(victim), server)
    system = BroadcastSystem(built, config=ProtocolConfig.for_scale(4)).start()
    system.broadcast_stream(8, interval=1.0, start_at=2.0)
    assert system.run_until_delivered(8, timeout=400.0)


@CHAOS_SETTINGS
# Both once failed on a span that was open *during* the chaos window
# (h1.0->h1.1 24.0-51.0, h2.0->h2.1 12.0-37.0); see the last assertion.
@example(seed=797, host_mean_up=13.0, host_mean_down=4.0, link_mean_up=6.0,
         link_mean_down=4.0, lag=0)
@example(seed=797, host_mean_up=13.0, host_mean_down=4.0, link_mean_up=6.0,
         link_mean_down=4.0, lag=3)
@example(seed=158, host_mean_up=15.0, host_mean_down=2.0, link_mean_up=6.0,
         link_mean_down=3.0, lag=1)
@given(seed=st.integers(min_value=0, max_value=10_000),
       host_mean_up=st.floats(min_value=6.0, max_value=20.0),
       host_mean_down=st.floats(min_value=1.0, max_value=5.0),
       link_mean_up=st.floats(min_value=6.0, max_value=20.0),
       link_mean_down=st.floats(min_value=1.0, max_value=5.0),
       lag=st.integers(min_value=0, max_value=3))
def test_combined_host_and_link_churn_heals_and_delivers(
        seed, host_mean_up, host_mean_down, link_mean_up, link_mean_down,
        lag):
    """Real host crashes (volatile state lost) plus link churn, all
    healing before the horizon: the full stream is still delivered and
    no invariant violation persists for a stable window *after the
    heal*."""
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=3, hosts_per_cluster=2, backbone="ring")
    system = BroadcastSystem(
        built,
        config=ProtocolConfig.for_scale(6, crash_stable_lag=lag)).start()
    monitor = InvariantMonitor(system, sample_period=1.0,
                               stable_window=STABLE_WINDOW).start()
    hosts = tuple(str(h) for h in built.hosts if h != system.source_id)
    spec = ChaosSpec(
        heal_by=HEAL_BY,
        host_churn=(HostChurnSpec(hosts, mean_up=host_mean_up,
                                  mean_down=host_mean_down),),
        link_churn=(LinkChurnSpec(tuple(built.backbone),
                                  mean_up=link_mean_up,
                                  mean_down=link_mean_down),),
    )
    plan = ChaosPlan(sim, system, spec).start()
    system.broadcast_stream(10, interval=1.0, start_at=2.0)
    sim.run(until=46.0)
    assert plan.healed
    assert system.crashed_hosts() == []
    assert system.run_until_delivered(10, timeout=500.0), {
        "seed": seed,
        "missing": {str(h): sorted(set(range(1, 11))
                                   - {r.seq for r in host.deliveries.records()})
                    for h, host in system.hosts.items()
                    if not host.deliveries.has_all(10)},
    }
    monitor.stop()
    # The monitor times a span from its first sighting, which may lie
    # inside the chaos window where violations are expected.  The claim
    # here is post-heal, so only the part of a span after HEAL_BY counts.
    stable_after_heal = [
        span for span in monitor.report().spans
        if span.last_seen - max(span.first_seen, HEAL_BY) >= STABLE_WINDOW]
    assert not stable_after_heal, stable_after_heal
