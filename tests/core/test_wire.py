"""Unit tests for wire message payloads."""

import zlib

from repro.core import (
    KIND_CONTROL,
    KIND_DATA,
    AttachAck,
    AttachRequest,
    DataMsg,
    DetachNotice,
    InfoMsg,
    SeqnoSet,
    checksum_ok,
)
from repro.core.wire import compute_checksum
from repro.net import HostId, Payload


def test_kinds():
    h = HostId("a")
    assert DataMsg(1, None, 0.0, h).kind == KIND_DATA
    assert InfoMsg(h, SeqnoSet(), None).kind == KIND_CONTROL
    assert AttachRequest(h, SeqnoSet()).kind == KIND_CONTROL
    assert AttachAck(h, 1, SeqnoSet(), None).kind == KIND_CONTROL
    assert DetachNotice(h).kind == KIND_CONTROL


def test_payloads_satisfy_network_protocol():
    h = HostId("a")
    for payload in [
        DataMsg(1, None, 0.0, h),
        InfoMsg(h, SeqnoSet(), None),
        AttachRequest(h, SeqnoSet()),
        AttachAck(h, 1, SeqnoSet(), None),
        DetachNotice(h),
    ]:
        assert isinstance(payload, Payload)
        assert payload.size_bits > 0


def test_info_msg_snapshots_the_set():
    """Mutating the live INFO set must not change an in-flight message."""
    live = SeqnoSet([1, 2])
    msg = InfoMsg(HostId("a"), live, None)
    live.add(99)
    assert 99 not in msg.info
    assert list(msg.info) == [1, 2]


def test_attach_request_snapshots_child_info():
    live = SeqnoSet([1])
    req = AttachRequest(HostId("c"), live)
    live.add(2)
    assert list(req.child_info) == [1]


def test_attach_ack_snapshots_parent_info():
    live = SeqnoSet([3])
    ack = AttachAck(HostId("p"), attempt=7, parent_info=live, parent_parent=HostId("g"))
    live.add(4)
    assert list(ack.parent_info) == [3]
    assert ack.attempt == 7
    assert ack.parent_parent == HostId("g")


def test_payloads_built_from_an_unchanged_set_share_one_snapshot():
    live = SeqnoSet([1, 2, 4])
    first = InfoMsg(HostId("a"), live, None, stamp=1.0)
    second = InfoMsg(HostId("a"), live, HostId("b"), stamp=2.0)
    request = AttachRequest(HostId("a"), live)
    assert second.info is first.info
    assert request.child_info is first.info
    live.add(3)
    third = InfoMsg(HostId("a"), live, None)
    assert third.info is not first.info
    assert list(first.info) == [1, 2, 4]


def test_snapshot_checksums_match_the_full_canonical():
    """Sharing a sealed canonical changes no checksum value."""
    live = SeqnoSet.range(1, 7)
    live.add(9)
    live.prune_through(3)
    msg = InfoMsg(HostId("a"), live, HostId("b"), stamp=1.5, uid=42)
    canonical = (zlib.crc32(b"info"), zlib.crc32(b"a"),
                 (3, ((4, 7), (9, 9))), zlib.crc32(b"b"),
                 1.5, -1.0, 0.0, 42)
    assert msg.checksum == compute_checksum(canonical)
    assert checksum_ok(msg)


def test_data_msg_fields():
    msg = DataMsg(seq=5, content={"x": 1}, created_at=2.5, origin=HostId("s"),
                  gapfill=True, size_bits=4_000)
    assert msg.seq == 5
    assert msg.gapfill
    assert msg.size_bits == 4_000
