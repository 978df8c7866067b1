"""Unit tests for the delivery record and the delivery log."""

import copy
import pickle

import pytest

from repro.core import DeliveryLog, DeliveryRecord
from repro.net import HostId

ME = HostId("me")
SRC = HostId("src")


def rec(seq, created=0.0, delivered=1.0, gapfill=False):
    return DeliveryRecord(seq=seq, content=f"m{seq}", created_at=created,
                          delivered_at=delivered, supplier=SRC,
                          via_gapfill=gapfill)


class TestDeliveryRecord:
    """A tuple record (``TuplePayload``), built once per delivery."""

    FIELDS = (4, "m4", 1.5, 4.0, SRC, True)

    def test_keyword_and_positional_construction_agree(self):
        positional = DeliveryRecord(*self.FIELDS)
        keyword = DeliveryRecord(seq=4, content="m4", created_at=1.5,
                                 delivered_at=4.0, supplier=SRC,
                                 via_gapfill=True)
        assert positional == keyword
        assert (keyword.seq, keyword.content, keyword.created_at,
                keyword.delivered_at, keyword.supplier,
                keyword.via_gapfill) == self.FIELDS
        assert DeliveryRecord._fields == ("seq", "content", "created_at",
                                          "delivered_at", "supplier",
                                          "via_gapfill")

    def test_fields_cannot_be_assigned(self):
        record = DeliveryRecord(*self.FIELDS)
        with pytest.raises(AttributeError):
            record.seq = 5
        with pytest.raises(AttributeError):
            record.extra = 1  # no __dict__ either

    def test_equal_to_its_own_class_only(self):
        record = DeliveryRecord(*self.FIELDS)
        assert record == DeliveryRecord(*self.FIELDS)
        assert record != self.FIELDS
        assert not record == self.FIELDS
        assert record != DeliveryRecord(5, *self.FIELDS[1:])

    def test_hash_follows_equality(self):
        record = DeliveryRecord(*self.FIELDS)
        assert hash(record) == hash(DeliveryRecord(*self.FIELDS))
        assert len({record, DeliveryRecord(*self.FIELDS)}) == 1

    def test_pickle_and_copy_round_trip(self):
        record = DeliveryRecord(*self.FIELDS)
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert type(clone) is DeliveryRecord
            assert clone == record

    def test_repr_names_the_fields(self):
        assert repr(DeliveryRecord(*self.FIELDS)) == (
            "DeliveryRecord(seq=4, content='m4', created_at=1.5, "
            "delivered_at=4.0, supplier=HostId(name='src'), via_gapfill=True)")

    def test_delay_and_replace(self):
        record = DeliveryRecord(*self.FIELDS)
        assert record.delay == 2.5
        later = record._replace(delivered_at=6.0)
        assert type(later) is DeliveryRecord and later.delay == 4.5


def test_record_and_query():
    log = DeliveryLog(ME)
    log.record(rec(1))
    log.record(rec(2, delivered=3.0))
    assert len(log) == 2
    assert 1 in log
    assert 3 not in log
    assert log.get(2).delivered_at == 3.0
    assert log.get(9) is None


def test_duplicate_delivery_is_a_bug():
    log = DeliveryLog(ME)
    log.record(rec(1))
    with pytest.raises(AssertionError):
        log.record(rec(1))


def test_records_sorted_by_seq():
    log = DeliveryLog(ME)
    log.record(rec(3))
    log.record(rec(1))
    assert [r.seq for r in log.records()] == [1, 3]


def test_has_all():
    log = DeliveryLog(ME)
    for seq in (1, 2, 4):
        log.record(rec(seq))
    assert log.has_all(2)
    assert not log.has_all(3)
    assert log.has_all(0)


def test_prefix_watermark_follows_records_and_forgetting():
    """has_all / contiguous_prefix resume from a watermark instead of
    rescanning 1..n; forgetting a suffix must pull the watermark back."""
    log = DeliveryLog(ME)
    assert log.contiguous_prefix() == 0
    for seq in (2, 3, 5):
        log.record(rec(seq))
    assert log.contiguous_prefix() == 0 and not log.has_all(1)
    log.record(rec(1))
    assert log.contiguous_prefix() == 3 and log.has_all(3) and not log.has_all(4)
    log.record(rec(4))
    assert log.contiguous_prefix() == 5 and log.has_all(5)
    assert log.forget_above(2) == 3  # the crash loses 3, 4, 5
    assert log.contiguous_prefix() == 2 and log.has_all(2) and not log.has_all(3)
    for seq in (4, 3):  # delivered again after recovery, out of order
        log.record(rec(seq))
    assert log.contiguous_prefix() == 4 and log.has_all(4) and not log.has_all(5)
    assert log.forget_above(9) == 0
    assert log.contiguous_prefix() == 4  # forgetting nothing moves nothing


def test_delay_and_delays():
    log = DeliveryLog(ME)
    log.record(rec(1, created=1.0, delivered=3.5))
    assert log.get(1).delay == 2.5
    assert log.delays() == [2.5]


def test_callback_invoked():
    seen = []
    log = DeliveryLog(ME, callback=lambda owner, r: seen.append((owner, r.seq)))
    log.record(rec(7))
    assert seen == [(ME, 7)]


def test_out_of_order_count():
    log = DeliveryLog(ME)
    log.record(rec(1, delivered=1.0))
    log.record(rec(3, delivered=2.0))
    log.record(rec(2, delivered=3.0))  # late: arrives after 3
    log.record(rec(4, delivered=4.0))
    assert log.out_of_order_count() == 1


def test_out_of_order_count_in_order_is_zero():
    log = DeliveryLog(ME)
    for i in range(1, 5):
        log.record(rec(i, delivered=float(i)))
    assert log.out_of_order_count() == 0
