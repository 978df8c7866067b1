"""Golden frames: one pinned datagram per payload type.

Round-trip tests pass for any encoder that its own decoder undoes, so
they cannot notice a byte that moved, a field that changed order or a
checksum computed over different fields.  These frames were generated
once, from fixed hosts, uids and stamps; any change to them is a change
to the wire format (bump ``WIRE_VERSION``) or to the checksum, and
breaks every peer running the previous build.
"""

import pytest

from repro.core import (
    AttachAck,
    AttachRequest,
    DataMsg,
    DetachNotice,
    InfoMsg,
    SeqnoSet,
    checksum_ok,
)
from repro.core.wire import HostTable, decode_frame, encode_frame
from repro.net import HostId, RawPayload

A, B, C = HostId("h0.0"), HostId("h0.1"), HostId("h1.0")
TABLE = HostTable([A, B, C])
SENDER, STAMP = B, 6.75


def _info() -> SeqnoSet:
    info = SeqnoSet.range(1, 12)
    info.prune_through(4)
    info.add(15)
    info.add(16)
    return info


def _payload(name: str):
    return {
        "data": lambda: DataMsg(7, "msg-7", 1.25, A, gapfill=True,
                                size_bits=4_000),
        "info": lambda: InfoMsg(B, _info(), A, stamp=3.5, echo_stamp=2.25,
                                echo_hold=0.125, uid=1001),
        "attach_req": lambda: AttachRequest(C, _info(), attempt=3, uid=1002),
        "attach_ack": lambda: AttachAck(A, 3, _info(), None, uid=1003),
        "detach": lambda: DetachNotice(C, uid=1004),
        "raw": lambda: RawPayload(content="ping", kind="probe", size_bits=64),
    }[name]()


#: name -> (checksum, frame hex)
GOLDEN = {
    "data": (274233274,
             "0101298941a60001401b00000000000000000000000000073ff400000000"
             "000000000100000fa0105877ba01000000056d73672d37"),
    "info": (123890592,
             "0102298941a60001401b00000000000000010000000003e8400c00000000"
             "000040020000000000003fc000000000000000000000000003e907626ba0"
             "000000000000000400020000000000000005000000000000000c00000000"
             "0000000f0000000000000010"),
    "attach_req": (2902166087,
                   "0103298941a60001401b00000000000000020000000000000003000003e8"
                   "00000000000003eaacfb8a47000000000000000400020000000000000005"
                   "000000000000000c000000000000000f0000000000000010"),
    "attach_ack": (133037914,
                   "0104298941a60001401b00000000000000000000000000000003ffff0000"
                   "03e800000000000003eb07edff5a00000000000000040002000000000000"
                   "0005000000000000000c000000000000000f0000000000000010"),
    "detach": (393874647,
               "0105298941a60001401b0000000000000002000003e800000000000003ec"
               "177a0cd7"),
    "raw": (None,
            "0106298941a60001401b0000000000000000004005010000000470726f62"
            "6570696e67"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_payload_encodes_to_its_golden_frame(name):
    checksum, frame = GOLDEN[name]
    payload = _payload(name)
    assert getattr(payload, "checksum", None) == checksum
    assert encode_frame(TABLE, SENDER, STAMP, payload).hex() == frame


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_golden_frame_decodes_to_the_payload(name):
    src, stamped_at, decoded = decode_frame(TABLE,
                                            bytes.fromhex(GOLDEN[name][1]))
    assert (src, stamped_at) == (SENDER, STAMP)
    assert decoded == _payload(name)
    assert type(decoded) is type(_payload(name))
    assert checksum_ok(decoded)
