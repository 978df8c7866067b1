"""Unit tests for the delivery record and the delivery log."""

import copy
import pickle
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    log.record(*rec(1))
    log.record(*rec(2, delivered=3.0))
    assert len(log) == 2
    assert 1 in log
    assert 3 not in log
    assert log.get(2).delivered_at == 3.0
    assert log.get(9) is None


def test_duplicate_delivery_is_a_bug():
    log = DeliveryLog(ME)
    log.record(*rec(1))
    with pytest.raises(AssertionError):
        log.record(*rec(1))


def test_records_sorted_by_seq():
    log = DeliveryLog(ME)
    log.record(*rec(3))
    log.record(*rec(1))
    assert [r.seq for r in log.records()] == [1, 3]


def test_has_all():
    log = DeliveryLog(ME)
    for seq in (1, 2, 4):
        log.record(*rec(seq))
    assert log.has_all(2)
    assert not log.has_all(3)
    assert log.has_all(0)


def test_prefix_watermark_follows_records_and_forgetting():
    """has_all / contiguous_prefix resume from a watermark instead of
    rescanning 1..n; forgetting a suffix must pull the watermark back."""
    log = DeliveryLog(ME)
    assert log.contiguous_prefix() == 0
    for seq in (2, 3, 5):
        log.record(*rec(seq))
    assert log.contiguous_prefix() == 0 and not log.has_all(1)
    log.record(*rec(1))
    assert log.contiguous_prefix() == 3 and log.has_all(3) and not log.has_all(4)
    log.record(*rec(4))
    assert log.contiguous_prefix() == 5 and log.has_all(5)
    assert log.forget_above(2) == 3  # the crash loses 3, 4, 5
    assert log.contiguous_prefix() == 2 and log.has_all(2) and not log.has_all(3)
    for seq in (4, 3):  # delivered again after recovery, out of order
        log.record(*rec(seq))
    assert log.contiguous_prefix() == 4 and log.has_all(4) and not log.has_all(5)
    assert log.forget_above(9) == 0
    assert log.contiguous_prefix() == 4  # forgetting nothing moves nothing


def test_delay_and_delays():
    log = DeliveryLog(ME)
    log.record(*rec(1, created=1.0, delivered=3.5))
    assert log.get(1).delay == 2.5
    assert log.delays() == [2.5]


def test_callback_invoked():
    seen = []
    log = DeliveryLog(ME, callback=lambda owner, r: seen.append((owner, r.seq)))
    log.record(*rec(7))
    assert seen == [(ME, 7)]


def test_out_of_order_count():
    log = DeliveryLog(ME)
    log.record(*rec(1, delivered=1.0))
    log.record(*rec(3, delivered=2.0))
    log.record(*rec(2, delivered=3.0))  # late: arrives after 3
    log.record(*rec(4, delivered=4.0))
    assert log.out_of_order_count() == 1


def test_out_of_order_count_in_order_is_zero():
    log = DeliveryLog(ME)
    for i in range(1, 5):
        log.record(*rec(i, delivered=float(i)))
    assert log.out_of_order_count() == 0


def test_seq_below_one_is_rejected():
    log = DeliveryLog(ME)
    for seq in (0, -3):
        with pytest.raises(ValueError):
            log.record(*rec(seq))
    assert len(log) == 0 and 0 not in log


def test_iterates_seqs_in_delivery_order():
    log = DeliveryLog(ME)
    for seq in (3, 1, 2):
        log.record(*rec(seq))
    assert list(log) == [3, 1, 2] and sorted(log) == [1, 2, 3]


# -- the packed log against a dict of records ------------------------------

SEQS = st.integers(min_value=1, max_value=12)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("record"), SEQS,
              st.integers(min_value=0, max_value=6), st.booleans()),
    st.tuples(st.just("forget"), st.integers(min_value=-1, max_value=12))),
    max_size=40)


def model_out_of_order(model):
    count = max_seq = 0
    for record in sorted(model.values(), key=lambda r: (r.delivered_at, r.seq)):
        if record.seq < max_seq:
            count += 1
        max_seq = max(max_seq, record.seq)
    return count


@given(STEPS)
def test_log_matches_a_dict_of_records(steps):
    """Every read of the column-packed log equals the same read of a
    plain ``seq -> DeliveryRecord`` dict driven by the same steps."""
    seen = []
    log = DeliveryLog(ME, callback=lambda owner, r: seen.append((owner, r)))
    model = {}
    expected_calls = []
    for step in steps:
        if step[0] == "forget":
            n = step[1]
            lost = [seq for seq in model if seq > n]
            assert log.forget_above(n) == len(lost)
            for seq in lost:
                del model[seq]
        else:
            _, seq, tick, gapfill = step
            record = DeliveryRecord(seq, f"m{seq}", tick * 0.25,
                                    tick * 0.5 + 1.0, SRC, gapfill)
            if seq in model:
                with pytest.raises(AssertionError):
                    log.record(*record)
            else:
                log.record(*record)
                model[seq] = record
                expected_calls.append((ME, record))
        assert len(log) == len(model)
        assert sorted(log) == sorted(model)
        assert all((seq in log) == (seq in model) for seq in range(-1, 15))
        assert all(log.get(seq) == model.get(seq) for seq in range(0, 14))
        assert log.records() == [model[seq] for seq in sorted(model)]
        assert log.delays() == [model[seq].delay for seq in sorted(model)]
        prefix = 0
        while prefix + 1 in model:
            prefix += 1
        assert log.contiguous_prefix() == prefix
        assert all(log.has_all(n) == (n <= prefix) for n in range(0, 14))
        assert log.out_of_order_count() == model_out_of_order(model)
    assert seen == expected_calls
    assert all(type(r.via_gapfill) is bool for r in log.records())


# -- retained bytes ----------------------------------------------------------

def test_ledger_retains_at_most_64_bytes_per_record():
    """What a host keeps per delivery, beyond the content itself: every
    record is built from fresh int and float objects, as a run makes
    them, so a log that held on to them would show it here."""
    n = 20_000
    content = "shared content"
    log = DeliveryLog(ME)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            created = i * 0.125
            log.record(i + 1, content, created, created + 0.5, SRC, i % 3 == 0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == n and log.has_all(n)
    assert retained / n <= 64, f"{retained / n:.1f} B per record"
