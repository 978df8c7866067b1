"""The payload contract every message class keeps.

All ten payload classes are :class:`~repro.net.message.TuplePayload`
tuples: immutable, equal only to their own class, copied through their
constructor.
"""

import copy
import inspect
import pickle

import pytest

from repro.baseline.basic import AckMsg
from repro.baseline.epidemic import Digest
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
from repro.core.multisource import TaggedPayload
from repro.core.piggyback import ControlBundle
from repro.core.wire import forged_copy
from repro.net import HostId, RawPayload, TuplePayload

H, P = HostId("h"), HostId("p")


def _payloads():
    return [
        DataMsg(1, "x", 0.5, H),
        InfoMsg(H, SeqnoSet([1, 2]), P, stamp=1.0),
        AttachRequest(H, SeqnoSet([1]), attempt=2),
        AttachAck(P, 2, SeqnoSet([1, 2]), None),
        DetachNotice(H),
        AckMsg(1, H),
        Digest(H, SeqnoSet([3])),
        ControlBundle((DetachNotice(H), AckMsg(2, H))),
        TaggedPayload("a", DataMsg(2, "y", 0.0, H)),
        RawPayload("ping"),
    ]


def _checksummed():
    return [p for p in _payloads() if hasattr(p, "checksum")]


def test_all_ten_classes_are_tuple_payloads_without_a_dataclass_init():
    classes = {type(p) for p in _payloads()}
    assert len(classes) == 10
    for cls in classes:
        assert issubclass(cls, TuplePayload)
        assert "__dataclass_fields__" not in vars(cls)
        assert "__init__" not in vars(cls)


def test_constructor_parameters_are_the_fields_in_order():
    for payload in _payloads():
        cls = type(payload)
        params = list(inspect.signature(cls.__new__).parameters)[1:]
        assert tuple(params) == cls._fields, cls
        assert [getattr(payload, name) for name in cls._fields] == list(payload)


def test_kind_and_size_bits():
    kinds = [p.kind for p in _payloads()]
    assert kinds == ["data"] + ["control"] * 7 + ["data", "raw"]
    assert DataMsg.kind == "data" and InfoMsg.kind == "control"
    assert [p.size_bits for p in _payloads()][:7] == [8_000] + [1_000] * 6


def test_assigning_a_field_raises():
    for payload in _payloads():
        name = type(payload)._fields[0]
        with pytest.raises(AttributeError):
            setattr(payload, name, None)
        with pytest.raises(AttributeError):
            payload.extra = 1  # no instance dict either


def test_a_payload_never_equals_a_plain_tuple():
    for payload in _payloads():
        plain = tuple(payload)
        assert payload != plain and plain != payload
        assert not payload == plain and not plain == payload
        assert payload == copy.copy(payload)


def test_a_payload_never_equals_another_class_with_the_same_values():
    class OtherAck(TuplePayload):
        __slots__ = ()

        seq: int
        sender: HostId
        size_bits: int

        def __new__(cls, seq, sender, size_bits=1_000):
            return tuple.__new__(cls, (seq, sender, size_bits))

    ack = AckMsg(1, H)
    other = OtherAck(1, H)
    assert tuple(ack) == tuple(other)
    assert ack != other and other != ack
    assert not ack == other


def test_corrupted_copy_changes_only_the_checksum():
    for payload in _checksummed():
        bad = corrupted_copy(payload)
        assert type(bad) is type(payload)
        assert bad.checksum != payload.checksum
        assert tuple(bad)[:-1] == tuple(payload)[:-1]
        assert not checksum_ok(bad)
    assert corrupted_copy(AckMsg(1, H)) is None


def test_forged_copy_keeps_the_uid_unless_given_uid_zero():
    for payload in _checksummed():
        if not hasattr(payload, "uid"):
            continue
        kept = forged_copy(payload)
        assert kept.uid == payload.uid
        assert checksum_ok(kept)
        fresh = forged_copy(payload, uid=0)
        assert fresh.uid not in (0, payload.uid)
        assert checksum_ok(fresh)


def test_forged_field_gets_a_valid_checksum():
    forged = forged_copy(DataMsg(3, "x", 0.0, H), seq=4)
    assert forged.seq == 4 and checksum_ok(forged)


def test_replace_rebuilds_through_the_constructor():
    info = InfoMsg(H, SeqnoSet([1]), None, uid=5)
    moved = info._replace(parent=P)
    assert moved.parent is P and moved.uid == 5
    assert moved.checksum == info.checksum  # a given checksum is kept
    with pytest.raises(TypeError):
        info._replace(nonsense=1)


def test_pickle_and_deepcopy_round_trip():
    for payload in _payloads():
        for twin in (pickle.loads(pickle.dumps(payload)), copy.deepcopy(payload)):
            assert twin == payload and type(twin) is type(payload)
            if hasattr(payload, "checksum"):
                assert checksum_ok(twin)


def test_repr_names_every_field():
    assert repr(AckMsg(1, H)) == "AckMsg(seq=1, sender=HostId(name='h'), size_bits=1000)"
