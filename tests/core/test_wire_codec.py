"""The binary frame codec: round trips, the closed host table, and a
decoder that answers any byte string with a payload or FrameError."""

import pickle
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    AttachAck,
    AttachRequest,
    DataMsg,
    DetachNotice,
    FrozenSeqnoSet,
    InfoMsg,
    SeqnoSet,
    checksum_ok,
    corrupted_copy,
)
from repro.core.wire import (
    WIRE_VERSION,
    FrameError,
    HostTable,
    decode_frame,
    encode_frame,
)
from repro.net import HostId, RawPayload

A, B, C = HostId("h0.0"), HostId("h0.1"), HostId("h1.0")
TABLE = HostTable([C, A, B])


def _sample_payloads():
    info = SeqnoSet([1, 2, 3, 7, 9, 10])
    pruned = SeqnoSet.range(1, 40)
    pruned.prune_through(30)
    pruned.add(45)
    return [
        DataMsg(7, "msg-7", 1.25, A, size_bits=4_000),
        DataMsg(8, "ünïcode", 2.5, B, gapfill=True),
        DataMsg(9, None, 0.0, A),
        DataMsg(10, b"\x00\xff", 0.0, A),
        InfoMsg(A, info, B, stamp=3.0, echo_stamp=2.0, echo_hold=0.5),
        InfoMsg(C, SeqnoSet(), None),
        InfoMsg(B, pruned, A),
        AttachRequest(A, info, attempt=3),
        AttachAck(B, 2, pruned, None),
        AttachAck(B, 2, SeqnoSet(), C),
        DetachNotice(C),
        RawPayload(content="ping", size_bits=64),
        RawPayload(),
    ]


def _frames():
    return [encode_frame(TABLE, A, 1.5, p) for p in _sample_payloads()]


class TestRoundTrip:
    def test_every_payload_round_trips_with_its_sender_and_stamp(self):
        for payload in _sample_payloads():
            src, stamped_at, decoded = decode_frame(
                TABLE, encode_frame(TABLE, A, 1.5, payload))
            assert (src, stamped_at) == (A, 1.5)
            assert decoded == payload
            assert type(decoded) is type(payload)

    def test_checksums_and_uids_travel_verbatim(self):
        for payload in _sample_payloads():
            _, _, decoded = decode_frame(TABLE,
                                         encode_frame(TABLE, A, 0.0, payload))
            assert checksum_ok(decoded)
            assert getattr(decoded, "uid", None) == getattr(payload, "uid",
                                                             None)
            bad = corrupted_copy(payload)
            if bad is not None:  # corruption survives the wire, too
                _, _, decoded = decode_frame(TABLE,
                                             encode_frame(TABLE, A, 0.0, bad))
                assert not checksum_ok(decoded)

    def test_host_ids_decode_to_the_interned_objects(self):
        msg = InfoMsg(A, SeqnoSet([1]), B)
        src, _, decoded = decode_frame(TABLE, encode_frame(TABLE, C, 0.0, msg))
        assert src is C and decoded.sender is A and decoded.parent is B

    def test_decoded_info_set_is_the_messages_own(self):
        info = SeqnoSet([1, 2, 5])
        _, _, decoded = decode_frame(
            TABLE, encode_frame(TABLE, A, 0.0, InfoMsg(A, info, None)))
        assert decoded.info == info
        assert decoded.info.runs() == info.runs()  # floor/run split too
        # Decoded frozen: the payload's snapshot, not a copy to re-seal.
        assert isinstance(decoded.info, FrozenSeqnoSet)
        assert decoded.info.snapshot() is decoded.info
        with pytest.raises(TypeError):
            decoded.info.add(3)
        mine = decoded.info.copy()
        mine.add(3)
        assert 3 not in decoded.info and 3 not in info

    def test_frames_are_a_fraction_of_pickle(self):
        data = DataMsg(17, "msg-17", 1.0, A, size_bits=4_000)
        info = InfoMsg(A, SeqnoSet.range(1, 120), B, stamp=1.0)
        for msg, limit in ((data, 64), (info, 96)):
            frame = encode_frame(TABLE, A, 1.0, msg)
            assert len(frame) <= limit
            # Against a self-describing pickle of the message: its fields
            # by name, as the dataclass payloads pickled before they
            # became tuples.
            named = dict(zip(msg._fields, msg))
            assert 3 * len(frame) < len(pickle.dumps((str(A), 1.0, named)))


class TestHostTable:
    def test_indices_follow_name_order_whatever_the_input_order(self):
        assert HostTable([C, B, A]).hosts == (A, B, C)
        assert HostTable([A, B, C, A]).fingerprint == TABLE.fingerprint

    def test_another_table_is_a_different_fingerprint(self):
        assert HostTable([A, B]).fingerprint != TABLE.fingerprint

    def test_a_plain_name_finds_its_index(self):
        assert TABLE.index["h0.1"] == TABLE.index[B] == 1

    def test_a_frame_from_another_table_is_rejected(self):
        frame = encode_frame(HostTable([A, B]), A, 0.0, DetachNotice(A))
        with pytest.raises(FrameError, match="another host table"):
            decode_frame(TABLE, frame)

    def test_hosts_outside_the_table_cannot_be_encoded(self):
        stranger = HostId("h9.9")
        with pytest.raises(ValueError):
            encode_frame(TABLE, stranger, 0.0, DetachNotice(A))
        with pytest.raises(ValueError):
            encode_frame(TABLE, A, 0.0, InfoMsg(A, SeqnoSet(), stranger))


class TestEncodeRefuses:
    def test_content_the_wire_cannot_carry(self):
        for content in ([1, 2], 3, HostId("h0.0")):
            with pytest.raises(TypeError, match="content of type"):
                encode_frame(TABLE, A, 0.0, DataMsg(1, content, 0.0, A))

    def test_payload_types_the_wire_cannot_carry(self):
        with pytest.raises(TypeError, match="payload type object"):
            encode_frame(TABLE, A, 0.0, object())


class TestDecodeRejects:
    def test_every_truncation_of_every_frame(self):
        for frame in _frames():
            for cut in range(len(frame)):
                with pytest.raises(FrameError):
                    decode_frame(TABLE, frame[:cut])

    def test_trailing_bytes(self):
        for frame in _frames():
            with pytest.raises(FrameError):
                decode_frame(TABLE, frame + b"\x00")

    def test_another_wire_version(self):
        frame = _frames()[0]
        for version in (0, WIRE_VERSION + 1, 0x80):
            with pytest.raises(FrameError, match="wire version"):
                decode_frame(TABLE, bytes([version]) + frame[1:])

    def test_an_unknown_payload_tag(self):
        frame = _frames()[0]
        with pytest.raises(FrameError, match="unknown payload tag"):
            decode_frame(TABLE, frame[:1] + b"\xee" + frame[2:])

    def test_a_sender_index_past_the_table(self):
        frame = _frames()[0]
        with pytest.raises(FrameError):
            decode_frame(TABLE, frame[:6] + b"\x00\x03" + frame[8:])

    def test_a_non_finite_stamp(self):
        frame = _frames()[0]
        nan = struct.pack("!d", float("nan"))
        with pytest.raises(FrameError, match="non-finite"):
            decode_frame(TABLE, frame[:8] + nan + frame[16:])

    def test_a_non_positive_sequence_number(self):
        frame = encode_frame(TABLE, A, 0.0, DataMsg(1, None, 0.0, A))
        zero = struct.pack("!q", 0)
        with pytest.raises(FrameError, match="sequence number"):
            decode_frame(TABLE, frame[:16] + zero + frame[24:])

    def test_an_info_set_that_breaks_the_run_invariant(self):
        msg = InfoMsg(A, SeqnoSet([2, 3, 7]), None)
        frame = encode_frame(TABLE, A, 0.0, msg)
        overlapping = struct.pack("!qq", 2, 8)  # first run swallows 7
        with pytest.raises(FrameError):
            decode_frame(TABLE, frame[:-32] + overlapping + frame[-16:])


frame_indices = st.integers(min_value=0, max_value=len(_sample_payloads()) - 1)


@given(st.binary(max_size=200))
def test_arbitrary_bytes_decode_or_raise_frame_error(data):
    try:
        decode_frame(TABLE, data)
    except FrameError:
        pass


@given(frame_indices, st.data())
def test_bit_flipped_frames_decode_or_raise_frame_error(index, data):
    frame = bytearray(_frames()[index])
    for bit in data.draw(st.lists(
            st.integers(min_value=0, max_value=8 * len(frame) - 1),
            min_size=1, max_size=4)):
        frame[bit // 8] ^= 1 << (bit % 8)
    try:
        _, _, payload = decode_frame(TABLE, bytes(frame))
    except FrameError:
        return
    # Whatever decodes is a payload the protocol can hold.
    assert type(payload) in {type(p) for p in _sample_payloads()}


seqnos = st.integers(min_value=1, max_value=10 ** 12)


@given(st.lists(seqnos, max_size=30), st.integers(min_value=0, max_value=20),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(
           min_value=1, max_value=2 ** 63 - 1))
def test_info_round_trips(items, prune, stamp, uid):
    info = SeqnoSet(items)
    info.prune_through(min(prune, info.contiguous_prefix()))
    msg = InfoMsg(B, info, A, stamp=stamp, uid=uid)
    _, _, decoded = decode_frame(TABLE, encode_frame(TABLE, B, stamp, msg))
    assert decoded == msg and checksum_ok(decoded)


@given(seqnos, st.one_of(st.none(), st.text(), st.binary()))
def test_data_round_trips(seq, content):
    msg = DataMsg(seq, content, 1.0, C)
    _, _, decoded = decode_frame(TABLE, encode_frame(TABLE, A, 0.0, msg))
    assert decoded == msg and checksum_ok(decoded)
