"""Unit tests for wire hardening: checksums, uids, corruption helpers."""

from repro.core import (
    AttachAck,
    AttachRequest,
    DataMsg,
    DetachNotice,
    InfoMsg,
    SeqnoSet,
    checksum_ok,
    corrupted_copy,
)
from repro.core.wire import compute_checksum

from repro.net import HostId

H = HostId("h")


def _payloads():
    return [
        DataMsg(1, None, 0.0, H),
        InfoMsg(H, SeqnoSet([1, 2]), None),
        AttachRequest(H, SeqnoSet()),
        AttachAck(H, 1, SeqnoSet(), None),
        DetachNotice(H),
    ]


def test_checksum_is_computed_automatically_and_validates():
    for payload in _payloads():
        assert payload.checksum != -1
        assert checksum_ok(payload), payload


def test_checksum_is_deterministic_for_identical_fields():
    # The uid is inside the checksum (it protects the dedup key too),
    # so determinism is checked with the uid pinned.
    a = InfoMsg(H, SeqnoSet([1, 2, 5]), HostId("p"), uid=77)
    b = InfoMsg(H, SeqnoSet([1, 2, 5]), HostId("p"), uid=77)
    assert a.checksum == b.checksum


def test_checksum_covers_the_info_set():
    a = InfoMsg(H, SeqnoSet([1, 2]), None, uid=77)
    b = InfoMsg(H, SeqnoSet([1, 3]), None, uid=77)
    assert a.checksum != b.checksum


def test_corrupted_copy_fails_validation():
    for payload in _payloads():
        bad = corrupted_copy(payload)
        assert bad is not None
        assert not checksum_ok(bad), bad
        assert checksum_ok(payload)  # original untouched


def test_checksum_ok_forgives_payloads_without_checksums():
    class Legacy:
        size_bits = 10

    assert checksum_ok(Legacy())
    assert corrupted_copy(Legacy()) is None


def test_tampered_field_fails_validation():
    msg = DataMsg(3, "payload", 0.0, H)
    forged = msg._replace(seq=4)  # keeps the old checksum
    assert not checksum_ok(forged)


def test_control_uids_are_unique_per_construction():
    a = InfoMsg(H, SeqnoSet(), None)
    b = InfoMsg(H, SeqnoSet(), None)
    assert a.uid != b.uid
    assert AttachRequest(H, SeqnoSet()).uid != AttachAck(H, 1, SeqnoSet(),
                                                        None).uid


def test_packet_forks_share_the_uid():
    """A duplicated/replayed packet carries the *same* control payload,
    so its uid must match — that is what receive-side dedup keys on."""
    original = AttachAck(H, 1, SeqnoSet(), None)
    fork = original._replace()
    assert fork.uid == original.uid
    assert fork.checksum == original.checksum


def test_compute_checksum_is_stable_for_equal_canonicals():
    assert compute_checksum((1, "x")) == compute_checksum((1, "x"))
    assert compute_checksum((1, "x")) != compute_checksum((2, "x"))
