"""Unit tests for wire hardening: checksums, uids, corruption helpers."""

import pytest

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


def _changed(value):
    """Another value of the same field kind."""
    if isinstance(value, SeqnoSet):
        return SeqnoSet([9])
    if isinstance(value, bool):
        return not value
    if isinstance(value, HostId):  # before str: a host id is one
        return HostId("q")
    if isinstance(value, str):
        return value + "!"
    if value is None:  # an absent parent pointer
        return H
    return value + 1


def _tampered_cases():
    payloads = [
        DataMsg(3, "payload", 0.5, H),
        InfoMsg(H, SeqnoSet([1, 2]), None, stamp=1.0, echo_stamp=0.5),
        AttachRequest(H, SeqnoSet([1]), attempt=2),
        AttachAck(H, 1, SeqnoSet(), HostId("p")),
        DetachNotice(H),
    ]
    return [pytest.param(payload, field, id=f"{type(payload).__name__}.{field}")
            for payload in payloads for field in payload._fields
            if field != "checksum"]


@pytest.mark.parametrize("payload, field", _tampered_cases())
def test_tampered_fields_fail_validation(payload, field):
    """The checksum covers every field but ``size_bits`` (and itself)."""
    value = getattr(payload, field)
    forged = payload._replace(**{field: _changed(value)})  # keeps the checksum
    assert getattr(forged, field) != value
    assert forged.checksum == payload.checksum
    assert checksum_ok(forged) == (field == "size_bits")


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
