"""Targeted tests for less-traveled host code paths."""

import pytest

from repro.core import BroadcastSystem, ProtocolConfig
from repro.core.attachment import Candidate
from repro.core.host import _PendingAttach
from repro.core.seqnoset import SeqnoSet
from repro.core.wire import (
    AttachAck,
    AttachRequest,
    DataMsg,
    DetachNotice,
    checksum_ok,
)
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator


def build(clusters=1, hosts=3, seed=0, config=None):
    sim = Simulator(seed=seed)
    built = wan_of_lans(sim, clusters=clusters, hosts_per_cluster=hosts,
                        convergence_delay=0.0)
    system = BroadcastSystem(built, config=config)
    return sim, built, system


class TestStaleAcks:
    def test_stale_ack_triggers_detach_notice(self):
        """An ack arriving after we moved on must not leave us registered
        as that host's child."""
        sim, built, system = build()
        host = system.hosts[HostId("h0.1")]
        stale_sender = system.hosts[HostId("h0.2")]
        stale_sender.children.add(host.me)
        # No pending handshake: the ack is stale by definition.
        host._on_attach_ack(
            AttachAck(parent=stale_sender.me, attempt=99,
                      parent_info=SeqnoSet([1]), parent_parent=None),
            stale_sender.me)
        assert host.parent is None  # not adopted
        sim.run(until=2.0)           # DetachNotice delivered
        assert host.me not in stale_sender.children

    def test_stale_ack_from_current_parent_keeps_child_registered(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.1")]
        parent = system.hosts[HostId("h0.0")]
        host.parent = parent.me
        parent.children.add(host.me)
        host._on_attach_ack(
            AttachAck(parent=parent.me, attempt=42,
                      parent_info=SeqnoSet([1]), parent_parent=None),
            parent.me)
        sim.run(until=2.0)
        assert host.me in parent.children  # no self-inflicted detach

    def test_stale_ack_still_updates_map(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.1")]
        other = HostId("h0.2")
        host._on_attach_ack(
            AttachAck(parent=other, attempt=7,
                      parent_info=SeqnoSet([1, 2, 3]),
                      parent_parent=HostId("h0.0")),
            other)
        assert host.maps.info_of(other).max_seqno == 3
        assert host.maps.parent_of(other) == HostId("h0.0")

    def test_mismatched_attempt_is_stale(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.1")]
        target = HostId("h0.2")
        host._pending = _PendingAttach(
            candidates=[Candidate(target, "I", 1)], index=0, attempt=5)
        host._on_attach_ack(
            AttachAck(parent=target, attempt=4,  # older attempt
                      parent_info=SeqnoSet(), parent_parent=None),
            target)
        assert host.parent is None
        assert host._pending is not None  # still waiting for attempt 5


class TestCandidateExhaustion:
    def test_all_candidates_timing_out_clears_pending(self):
        sim, built, system = build(
            config=ProtocolConfig(attach_ack_timeout=0.5,
                                  parent_timeout_intra=1000.0,
                                  parent_timeout_inter=1000.0))
        host = system.hosts[HostId("h0.1")]
        # Two candidates, both unreachable.
        built.network.set_link_state("h0.0", "s0", up=False)
        built.network.set_link_state("h0.2", "s0", up=False)
        for name, n in (("h0.0", 3), ("h0.2", 2)):
            host.maps.apply_info(HostId(name), SeqnoSet(range(1, n + 1)), None)
            host.cluster.observe(HostId(name), cost_bit=False)
        host._attachment_tick()
        assert host._pending is not None
        assert len(host._pending.candidates) == 2
        sim.run(until=5.0)
        assert host._pending is None
        assert host.parent is None
        assert sim.metrics.counter("proto.attach.timeouts").value == 2


class TestGapfillBatching:
    def test_intra_batch_limit_respected(self):
        sim, built, system = build(
            config=ProtocolConfig(gapfill_batch_limit=5,
                                  gapfill_suppression=1000.0))
        parent = system.hosts[HostId("h0.0")]
        child = HostId("h0.1")
        parent.cluster.observe(child, cost_bit=False)  # same cluster
        parent.children.add(child)
        for seq in range(1, 21):
            parent.info.add(seq)
            parent.store[seq] = DataMsg(seq=seq, content=None, created_at=0.0,
                                        origin=parent.me)
        sent = parent._fill_gaps_of(child, include_frontier=True)
        assert sent == 5
        assert sorted(parent._recent_fills[child]) == [1, 2, 3, 4, 5]
        # Suppression is per sequence number: the next action continues
        # with the next batch instead of re-sending the first one.
        assert parent._fill_gaps_of(child, include_frontier=True) == 5
        assert sorted(parent._recent_fills[child]) == list(range(1, 11))

    def test_inter_batch_limit_for_out_of_cluster_targets(self):
        sim, built, system = build(
            config=ProtocolConfig(gapfill_batch_limit=10,
                                  gapfill_batch_limit_inter=2,
                                  gapfill_suppression=1000.0))
        parent = system.hosts[HostId("h0.0")]
        child = HostId("h0.1")  # NOT observed as in-cluster
        parent.children.add(child)
        for seq in range(1, 9):
            parent.info.add(seq)
            parent.store[seq] = DataMsg(seq=seq, content=None, created_at=0.0,
                                        origin=parent.me)
        assert parent._fill_gaps_of(child, include_frontier=True) == 2

    def test_fill_survives_its_own_marks_merging_the_target_view(self):
        """Every fill marks the target's view (``note_sent``) while
        ``_fill_gaps_of`` is still walking the difference against that
        view.  Here each pair of fills merges two of the view's runs, so
        the view's run lists shrink under the loop: a difference computed
        lazily over them skips fills or raises IndexError."""
        sim, built, system = build(
            config=ProtocolConfig(gapfill_batch_limit=50,
                                  gapfill_suppression=0.0))
        parent = system.hosts[HostId("h0.0")]
        child = HostId("h0.1")
        parent.cluster.observe(child, cost_bit=False)
        parent.children.add(child)
        for seq in range(1, 13):
            parent.info.add(seq)
            parent.store[seq] = DataMsg(seq=seq, content=None, created_at=0.0,
                                        origin=parent.me)
        parent.maps.apply_info(child, SeqnoSet([1, 2, 5, 6, 9, 10]), None)
        assert parent._fill_gaps_of(child, include_frontier=True) == 6
        assert sorted(parent._recent_fills[child]) == [3, 4, 7, 8, 11, 12]
        assert parent.maps.info_of(child) == SeqnoSet.range(1, 12)

    def test_fill_skips_pruned_store_entries(self):
        sim, built, system = build(
            config=ProtocolConfig(gapfill_suppression=0.0))
        parent = system.hosts[HostId("h0.0")]
        target = HostId("h0.1")
        parent.children.add(target)
        parent.info.add_range(1, 4)
        parent.store[4] = DataMsg(seq=4, content=None, created_at=0.0,
                                  origin=parent.me)
        # 1..3 are in INFO but no longer stored (pruned elsewhere).
        assert parent._fill_gaps_of(target, include_frontier=True) == 1


class TestForwardStoredMessage:
    """``_send_data`` sends the stored payload itself when it is what the
    send would build (payloads are immutable); otherwise a fresh copy."""

    def capture_sends(self, host):
        sent = []
        host.port.send_tap = lambda dst, payload: sent.append(payload) or True
        return sent

    def test_normal_forward_sends_the_stored_object(self):
        sim, built, system = build()
        source = system.source
        sent = self.capture_sends(source)
        source.children.update({HostId("h0.1"), HostId("h0.2")})
        seq = source.broadcast("a")
        assert len(sent) == 2
        assert all(payload is source.store[seq] for payload in sent)

    def test_gapfill_flag_or_size_change_builds_a_checksummed_copy(self):
        sim, built, system = build(config=ProtocolConfig(data_size_bits=4_000))
        host = system.hosts[HostId("h0.1")]
        origin = HostId("h0.0")
        host.store[1] = DataMsg(seq=1, content="a", created_at=0.5,
                                origin=origin, size_bits=4_000)
        host.store[2] = DataMsg(seq=2, content="b", created_at=0.5,
                                origin=origin, size_bits=8_000)
        sent = self.capture_sends(host)
        host._send_data(HostId("h0.2"), 1, gapfill=True, now=sim.now)
        host._send_data(HostId("h0.2"), 2, gapfill=False, now=sim.now)
        fill, resized = sent
        assert fill is not host.store[1] and resized is not host.store[2]
        assert (fill.seq, fill.content, fill.gapfill, fill.size_bits) == \
            (1, "a", True, 4_000)
        assert (resized.seq, resized.gapfill, resized.size_bits) == \
            (2, False, 4_000)
        assert checksum_ok(fill) and checksum_ok(resized)


class TestSourceEdgeCases:
    def test_source_ignores_foreign_new_max(self):
        sim, built, system = build()
        src = system.source
        src.broadcast("a")
        foreign = DataMsg(seq=5, content="forged", created_at=0.0,
                          origin=HostId("h0.1"))
        src._on_data(foreign, HostId("h0.1"))
        assert 5 not in src.info  # source has no parent; new-max refused

    def test_source_accepts_gapfill_of_own_message_as_duplicate(self):
        sim, built, system = build()
        src = system.source
        src.broadcast("a")
        echo = DataMsg(seq=1, content="a", created_at=0.0, origin=src.me,
                       gapfill=True)
        src._on_data(echo, HostId("h0.1"))
        assert len(src.deliveries) == 1  # no duplicate delivery


class TestDetachEdgeCases:
    def test_detach_from_unknown_child_is_harmless(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.0")]
        host._on_detach(DetachNotice(child=HostId("h0.2")), HostId("h0.2"))
        assert HostId("h0.2") not in host.children

    def test_repeat_attach_request_is_idempotent(self):
        sim, built, system = build()
        host = system.hosts[HostId("h0.0")]
        child_host = system.hosts[HostId("h0.1")]
        child = child_host.me
        # The child already considers us its parent, so the acks our
        # handler sends are absorbed instead of answered with a detach.
        child_host.parent = host.me
        request = AttachRequest(child=child, child_info=SeqnoSet([1]))
        host._on_attach_request(request, child)
        first_since = host._child_since[child]
        sim.run(until=3.0)
        host._on_attach_request(request, child)
        assert host.children == {child}
        # Registration time preserved so the reconcile grace can elapse.
        assert host._child_since[child] == first_since

    def test_unsolicited_ack_is_answered_with_detach(self):
        """The behavior the previous test works around: a child that
        never asked rejects the ack and deregisters itself."""
        sim, built, system = build()
        host = system.hosts[HostId("h0.0")]
        child = HostId("h0.1")
        host._on_attach_request(
            AttachRequest(child=child, child_info=SeqnoSet([1])), child)
        assert child in host.children
        sim.run(until=3.0)  # ack delivered; child answers with a detach
        assert child not in host.children
