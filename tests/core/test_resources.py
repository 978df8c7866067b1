"""Tests for bounded host resources: limits, shedding, admission.

The load-bearing guarantee is byte-identity: with ``resources=None``
(the default) or an all-zero :class:`ResourceConfig`, delivery behavior
is exactly what it was before the resource model existed.
"""

import pytest

from repro.core import (
    BroadcastSystem,
    ProtocolConfig,
    ResourceConfig,
    ShedPolicy,
    TokenBucket,
)
from repro.core.wire import DataMsg, InfoMsg
from repro.net import HostId, Packet, wan_of_lans
from repro.sim import Simulator


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)

    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3, now=0.0)
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)

    def test_refills_with_time(self):
        bucket = TokenBucket(rate=2.0, burst=1, now=0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        assert bucket.try_take(1.0)  # 0.9s * 2/s refilled past 1 token

    def test_brake_scales_refill(self):
        bucket = TokenBucket(rate=2.0, burst=1, now=0.0)
        assert bucket.try_take(0.0)
        # 0.6s at half rate = 0.6 tokens: braked refill stays short.
        assert not bucket.try_take(0.6, brake=0.5)
        assert bucket.try_take(1.0, brake=0.5)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2, now=0.0)
        bucket.try_take(1000.0)
        assert bucket.tokens <= 2.0

    def test_reset_restores_burst(self):
        bucket = TokenBucket(rate=0.001, burst=2, now=0.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        bucket.reset(0.0)
        assert bucket.try_take(0.0)


class TestResourceConfigValidation:
    def test_defaults_disable_everything(self):
        config = ResourceConfig()
        assert not config.bounds_store
        assert not config.bounds_fill_table
        assert not config.bounds_outbound
        assert not config.admission_enabled

    @pytest.mark.parametrize("kwargs", [
        dict(store_limit=-1),
        dict(fill_table_limit=-1),
        dict(outbound_queue_limit=-1),
        dict(admission_rate=-0.1),
        dict(admission_burst=0),
        dict(congestion_brake=0.0),
        dict(congestion_brake=1.5),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ResourceConfig(**kwargs)

    def test_enabled_flags(self):
        config = ResourceConfig(store_limit=4, fill_table_limit=8,
                                outbound_queue_limit=2, admission_rate=1.0)
        assert config.bounds_store and config.bounds_fill_table
        assert config.bounds_outbound and config.admission_enabled


def build_system(resources, seed=11, clusters=2, hosts_per_cluster=2):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters,
                        hosts_per_cluster=hosts_per_cluster, backbone="line")
    config = ProtocolConfig(data_size_bits=4_000, resources=resources)
    return sim, BroadcastSystem(built, config=config).start()


class TestStoreShedding:
    def fill_store(self, policy):
        _, system = build_system(
            ResourceConfig(store_limit=3, store_policy=policy))
        host = system.hosts[HostId("h1.0")]
        for seq in range(1, 8):
            host.store[seq] = object()
        host._shed_store(host._resources)
        return sorted(host.store), system

    def test_drop_oldest_keeps_newest(self):
        kept, system = self.fill_store(ShedPolicy.DROP_OLDEST)
        assert kept == [5, 6, 7]
        assert system.sim.metrics.counter("proto.shed.store").value == 4

    def test_drop_newest_keeps_oldest(self):
        kept, _ = self.fill_store(ShedPolicy.DROP_NEWEST)
        assert kept == [1, 2, 3]

    def test_sheds_are_traced(self):
        _, system = self.fill_store(ShedPolicy.DROP_OLDEST)
        records = [r for r in system.sim.trace.records(kind="host.shed")
                   if r.fields["buffer"] == "store"]
        assert len(records) == 4
        assert records[0].fields["policy"] == "drop_oldest"

    def test_source_store_is_never_shed(self):
        _, system = build_system(ResourceConfig(store_limit=2))
        source = system.source
        for seq in range(1, 10):
            source.store[seq] = object()
        source._shed_store(source._resources)
        assert len(source.store) == 9

    def test_bounded_store_still_delivers_everything(self):
        sim, system = build_system(ResourceConfig(store_limit=4))
        n = 12
        system.broadcast_stream(n, interval=0.5, start_at=2.0)
        assert system.run_until_delivered(n, timeout=120.0)
        for host_id, host in system.hosts.items():
            if host_id != system.source_id:
                assert len(host.store) <= 4


class TestFillTableShedding:
    def test_evicts_oldest_entries_first(self):
        _, system = build_system(ResourceConfig(fill_table_limit=2))
        host = system.hosts[HostId("h1.0")]
        target_a, target_b = HostId("h0.0"), HostId("h0.1")
        host._recent_fills = {target_a: {1: 1.0, 2: 5.0}, target_b: {1: 3.0}}
        host._fill_entries = 3
        host._shed_fill_table(host._resources)
        assert host._fill_entries == 2
        assert host._recent_fills[target_a] == {2: 5.0}  # stamp 1.0 evicted
        assert host._recent_fills[target_b] == {1: 3.0}
        assert system.sim.metrics.counter("proto.shed.fill_table").value == 1

    def test_fill_table_stays_bounded_under_load(self):
        sim, system = build_system(ResourceConfig(fill_table_limit=5))
        n = 10
        system.broadcast_stream(n, interval=0.5, start_at=2.0)
        assert system.run_until_delivered(n, timeout=120.0)
        for host in system.hosts.values():
            total = sum(len(f) for f in host._recent_fills.values())
            assert total <= 5


class TestFillTableSweep:
    def test_unbounded_table_forgets_dead_entries(self):
        """Without a fill-table bound, an entry older than
        ``gapfill_suppression`` can never suppress a fill again, and the
        table sheds such entries once per window: after a stream that
        outlasts the window many times, every live entry is younger than
        two windows, and the running count matches the table."""
        sim = Simulator(seed=11)
        built = wan_of_lans(sim, clusters=3, hosts_per_cluster=3,
                            backbone="line")
        config = ProtocolConfig(data_size_bits=4_000)
        system = BroadcastSystem(built, config=config).start()
        n = 300
        system.broadcast_stream(n, interval=0.1, start_at=2.0)
        assert system.run_until_delivered(n, timeout=600.0)
        window = config.gapfill_suppression
        assert sim.now > 10 * window
        for host in system.hosts.values():
            stamps = [when for fills in host._recent_fills.values()
                      for when in fills.values()]
            assert host._fill_entries == len(stamps)
            if stamps:
                assert min(stamps) > max(stamps) - 2 * window, host.me


def stored_data():
    return DataMsg(seq=1, content="x", created_at=0.0, origin=HostId("h0.0"),
                   size_bits=4_000)


class TestOutboundShedding:
    def test_deep_queue_sheds_data_send(self):
        _, system = build_system(ResourceConfig(outbound_queue_limit=2))
        host = system.hosts[HostId("h1.0")]
        host.store[1] = stored_data()
        host.port.queue_length = lambda: 5  # saturated access link
        before = system.sim.metrics.counter("proto.shed.outbound").value
        host._send_data(HostId("h1.1"), 1, gapfill=False,
                        now=system.sim.now)
        assert system.sim.metrics.counter("proto.shed.outbound").value == before + 1
        records = [r for r in system.sim.trace.records(kind="host.shed")
                   if r.fields["buffer"] == "outbound"]
        assert records and records[-1].fields["policy"] == "drop_newest"

    def test_shallow_queue_sends_normally(self):
        _, system = build_system(ResourceConfig(outbound_queue_limit=5))
        host = system.hosts[HostId("h1.0")]
        assert host.port.queue_length() == 0
        host.store[1] = stored_data()
        host._send_data(HostId("h1.1"), 1, gapfill=False,
                        now=system.sim.now)
        assert system.sim.metrics.counter("proto.shed.outbound").value == 0
        assert system.sim.metrics.counter("proto.data.forwarded").value == 1


class TestAdmissionControl:
    def test_rejects_past_burst_and_recovers_with_time(self):
        sim, system = build_system(
            ResourceConfig(admission_rate=1.0, admission_burst=2))
        source = system.source
        sim.run(until=2.0)
        assert source.broadcast("a") == 1
        assert source.broadcast("b") == 2
        assert source.broadcast("c") == 0  # bucket empty: rejected
        rejected = sim.metrics.counter("proto.source.admission_rejected")
        assert rejected.value == 1
        sim.run(until=4.0)
        assert source.broadcast("d") == 3  # refilled

    def test_rejection_does_not_consume_seqnos(self):
        sim, system = build_system(
            ResourceConfig(admission_rate=0.01, admission_burst=1))
        source = system.source
        assert source.broadcast("a") == 1
        assert source.broadcast("b") == 0
        assert source.broadcast("c") == 0
        sim.run(until=200.0)
        assert source.broadcast("d") == 2  # seqnos stay contiguous

    def test_recover_resets_the_bucket(self):
        sim, system = build_system(
            ResourceConfig(admission_rate=0.001, admission_burst=1))
        source = system.source
        assert source.broadcast("a") == 1
        assert source.broadcast("b") == 0
        source.crash()
        source.recover()
        assert source.broadcast("c") == 2

    def test_bad_receives_brake_admission_without_adaptive(self):
        # The congestion brake reads the source's congestion signal in
        # either mode, so admission control must keep the receive path
        # feeding it with adaptive=False too.
        sim, system = build_system(
            ResourceConfig(admission_rate=1.0, admission_burst=1))
        assert not system.config.adaptive
        source = system.source
        sim.run(until=2.0)
        peer = HostId("h0.1")
        replayed = InfoMsg(sender=peer, info=system.hosts[peer].info,
                           parent=source.me)
        for _ in range(40):  # one clean receive, then duplicates
            source._on_packet(Packet(src=peer, dst=source.me,
                                     payload=replayed))
        assert sim.metrics.counter("proto.wire.dup_suppressed").value >= 39
        assert source._congested()
        assert source.broadcast("a") == 1
        assert source.broadcast("b") == 0
        rejects = sim.trace.records(kind="source.admission_reject")
        assert [r.fields["braked"] for r in rejects] == [True]


def delivery_signature(system):
    return [
        (str(host_id), r.seq, r.delivered_at, str(r.supplier))
        for host_id in sorted(system.hosts, key=str)
        for r in system.hosts[host_id].deliveries.records()
    ]


class TestByteIdentity:
    """resources=None, ResourceConfig() all-zero: same bytes out."""

    def run_one(self, resources, seed):
        sim, system = build_system(resources, seed=seed,
                                   clusters=3, hosts_per_cluster=2)
        system.broadcast_stream(8, interval=1.0, start_at=2.0)
        system.run_until_delivered(8, timeout=120.0)
        return delivery_signature(system), sim.now

    @pytest.mark.parametrize("seed", [7, 23])
    def test_disabled_config_is_byte_identical(self, seed):
        baseline = self.run_one(None, seed)
        all_zero = self.run_one(ResourceConfig(), seed)
        assert baseline == all_zero

    def test_crash_recovery_path_is_byte_identical(self):
        def run(resources):
            sim, system = build_system(resources, seed=5,
                                       clusters=3, hosts_per_cluster=2)
            victim = HostId("h1.0")
            system.broadcast_stream(8, interval=1.0, start_at=2.0)
            sim.schedule_at(4.0, lambda: system.crash_host(victim))
            sim.schedule_at(12.0, lambda: system.recover_host(victim))
            system.run_until_delivered(8, timeout=200.0)
            return delivery_signature(system), sim.now

        assert run(None) == run(ResourceConfig())
