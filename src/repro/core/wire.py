"""Wire formats: the protocol's message payloads.

Five message types implement the whole protocol:

* :class:`DataMsg` — a broadcast data message (possibly a gap-filling
  redelivery).  Carries the source's sequence number and generation
  time (the timestamp the paper suggests for transit-time estimation;
  we use it for delay accounting).
* :class:`InfoMsg` — the periodic INFO-set + parent-pointer exchange
  (Section 4.2).  Doubles as the liveness heartbeat, and carries the
  NTP-style ``stamp``/``echo_stamp``/``echo_hold`` triple that feeds
  the adaptive control plane's RTT estimators (:mod:`repro.core.rtt`).
* :class:`AttachRequest` / :class:`AttachAck` — the attachment
  handshake.  The request carries the child's INFO set so the new
  parent can immediately fill its gaps (Section 4.4); the ack carries
  the parent's INFO set and parent pointer for the child's MAP.
* :class:`DetachNotice` — tells an old parent that a child has left.

All payloads are :class:`~repro.net.message.TuplePayload` classes: a
tuple of fields built by one C call at the end of ``__new__``, read
through C getters, with a class-level ``kind``.  Assigning a field
raises, and ``_replace`` copies a payload through its constructor.
INFO sets are shared frozen snapshots: construction calls
``info.snapshot()``, so every payload built while a host's INFO set is
unchanged carries the same :class:`~repro.core.seqnoset.FrozenSeqnoSet`,
and a receiver may keep it without copying — its mutators raise.

Wire hardening
--------------

Every payload carries a ``checksum`` over its semantic fields — the
tuple hash of a fully *numeric* canonical (type tags and host names
pre-folded through CRC-32; an INFO set contributes its snapshot's
cached ``canonical``), which is deterministic across processes because
Python only randomizes str/bytes hashing — computed at construction.  Receivers
call :func:`checksum_ok` and drop-and-count mismatches, so a corrupted
message can garble *one* delivery but never wedge protocol state.
Control payloads additionally carry a ``uid`` unique per construction;
link-level duplicates and chaos-injected replays share the original's
``uid`` (packet forks share the payload object), which is what the
host's duplicate-control suppression keys on.  :func:`corrupted_copy`
is the injection helper chaos uses to flip a payload's checksum.

Receivers attribute control-plane drops in two dimensions: corrupt
payloads (checksum mismatch) split into ``dup_uid`` (a uid the receiver
has already accepted from that sender — a mangled retransmission) and
``forged_uid`` (a uid never seen before — bit rot on first contact, or
a fabricated message); the legacy aggregate counters keep their names.
Checksums only catch *accidents*: a misbehaving host constructs
payloads whose checksums validate perfectly, which is what
:func:`forged_copy` models for the adversary personas in
:mod:`repro.chaos.adversary`.

Frame codec
-----------

:func:`encode_frame` / :func:`decode_frame` are the real-socket wire
format: an explicit, versioned, length-checked binary encoding of the
five payloads above plus :class:`~repro.net.message.RawPayload`.  No
code is ever loaded from the wire.  Every host id in a frame — the
sender and every id inside the payload — is an index into the
deployment's closed :class:`HostTable`, so a name that arrives on the
wire never reaches :class:`~repro.net.addressing.HostId`.  Every field
travels verbatim (``uid`` and ``checksum`` included), so the receiver
validates the sender's checksum exactly as in-sim.  Anything that is
not a well-formed frame for this deployment raises :class:`FrameError`
and nothing else; the transport counts it as a drop.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from math import isfinite
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..net import HostId, RawPayload, TuplePayload
from .seqnoset import FrozenSeqnoSet, SeqnoSet

#: payload kind tags used for traffic accounting
KIND_DATA = "data"
KIND_CONTROL = "control"

#: sentinel meaning "compute the checksum at construction"
_AUTO = -1

_uids = itertools.count(1)


def _scrc(s: str) -> int:
    return zlib.crc32(s.encode("utf-8"))


#: each payload's type tag, folded once (canonicals stay fully numeric)
_CRC_DATA = _scrc("data")
_CRC_INFO = _scrc("info")
_CRC_ATTACH_REQ = _scrc("attach_req")
_CRC_ATTACH_ACK = _scrc("attach_ack")
_CRC_DETACH = _scrc("detach")


class _HostCrcs(Dict[Optional[HostId], int]):
    """Host id -> CRC-32 of its name (-1 for "no host").

    ``_HOST_CRC[host]`` is one C-level dict lookup; a host's first
    lookup fills its entry.  Host ids are interned and repeat endlessly,
    so the table stays as small as the deployment.
    """

    def __missing__(self, host: HostId) -> int:
        value = self[host] = _scrc(host.name)
        return value


_HOST_CRC = _HostCrcs({None: -1})


def _content_crc(content: object) -> int:
    """CRC-32 of a data payload's content rendering (uncached: contents
    are arbitrary application objects, unbounded in cardinality)."""
    return zlib.crc32(repr(content).encode("utf-8"))


def compute_checksum(canonical: object) -> int:
    """32-bit checksum of a canonical field tuple.

    The wire payloads build *numeric* canonicals (strings pre-folded
    through CRC-32 by :func:`_scrc`), for which Python's tuple hash is
    both C-fast and stable across processes — only str/bytes hashing is
    randomized.  This is the per-construction and per-receive hot path,
    which is why it is not a CRC over a ``repr`` rendering.
    """
    return hash(canonical) & 0xFFFFFFFF


def checksum_ok(payload: object) -> bool:
    """Validate a payload's checksum; payloads without one pass."""
    expected = getattr(payload, "checksum", None)
    return expected is None or expected == compute_checksum(
        payload._canonical())  # type: ignore[attr-defined]


def corrupted_copy(payload: object) -> Optional[object]:
    """A copy of ``payload`` whose checksum no longer validates.

    Models in-flight bit corruption at the receiver-visible level.
    Returns None for payloads without a checksum field (nothing to
    corrupt detectably — e.g. a piggyback bundle; its inner messages
    are checksummed individually).
    """
    checksum = getattr(payload, "checksum", None)
    if checksum is None:
        return None
    return payload._replace(checksum=checksum ^ 0x5A5A5A5A)  # type: ignore[attr-defined]


def forged_copy(payload: object, **overrides: object) -> object:
    """A copy of ``payload`` with fields overridden and a *valid*
    checksum recomputed over the forged contents.

    This is the adversary-persona helper (:mod:`repro.chaos.adversary`):
    wire checksums detect accidental corruption, not malice — a
    misbehaving host constructs internally consistent payloads that
    pass every receive-side validity check.  The copy keeps the
    original ``uid`` unless the caller overrides it (``uid=0`` draws a
    fresh one), so forgeries interact with duplicate-control
    suppression exactly like honest traffic.
    """
    if getattr(payload, "checksum", None) is not None:
        overrides.setdefault("checksum", _AUTO)
    return payload._replace(**overrides)  # type: ignore[attr-defined]


class DataMsg(TuplePayload):
    """One broadcast data message.

    ``gapfill`` marks redeliveries (sent to fill another host's gap);
    receivers treat any message numbered at or below their current
    maximum as gap-filling regardless of the flag — the flag exists for
    traffic accounting and traces.
    """

    __slots__ = ()

    seq: int
    content: object
    created_at: float
    origin: HostId
    gapfill: bool
    size_bits: int
    checksum: int

    kind = KIND_DATA

    def __new__(cls, seq: int, content: object, created_at: float,
                origin: HostId, gapfill: bool = False, size_bits: int = 8_000,
                checksum: int = _AUTO) -> "DataMsg":
        if checksum == _AUTO:
            checksum = compute_checksum(
                cls._canonical((seq, content, created_at, origin, gapfill)))
        return tuple.__new__(cls, (seq, content, created_at, origin, gapfill,
                                size_bits, checksum))

    def _canonical(self: Sequence[Any]) -> tuple:
        # Positional, so __new__ can run it on its arguments.
        return (_CRC_DATA, self[0], _content_crc(self[1]), self[2],
                _HOST_CRC[self[3]], self[4])


class InfoMsg(TuplePayload):
    """Periodic INFO-set and parent-pointer exchange (also a heartbeat).

    ``stamp`` is the sender's clock at send time; ``echo_stamp`` /
    ``echo_hold`` return the destination's most recent stamp together
    with how long it was held before being echoed.  The receiver of the
    echo computes ``rtt = (now - echo_stamp) - echo_hold`` entirely in
    its own clock — the skew-immune NTP arrangement — which feeds the
    per-peer estimators of :mod:`repro.core.rtt`.  A negative stamp
    means "no sample" (e.g. pre-adaptive senders).
    """

    __slots__ = ()

    sender: HostId
    info: FrozenSeqnoSet
    parent: Optional[HostId]
    size_bits: int
    stamp: float
    echo_stamp: float
    echo_hold: float
    uid: int
    checksum: int

    kind = KIND_CONTROL

    def __new__(cls, sender: HostId, info: SeqnoSet, parent: Optional[HostId],
                size_bits: int = 1_000, stamp: float = -1.0,
                echo_stamp: float = -1.0, echo_hold: float = 0.0,
                uid: int = 0, checksum: int = _AUTO) -> "InfoMsg":
        fields = (sender, info.snapshot(), parent, size_bits, stamp,
                  echo_stamp, echo_hold, uid or next(_uids))
        if checksum == _AUTO:
            checksum = compute_checksum(cls._canonical(fields))
        return tuple.__new__(cls, fields + (checksum,))

    def _canonical(self: Sequence[Any]) -> tuple:
        return (_CRC_INFO, _HOST_CRC[self[0]], self[1].canonical,
                _HOST_CRC[self[2]], self[4], self[5], self[6], self[7])


class AttachRequest(TuplePayload):
    """Child asks to be included in the candidate parent's CHILDREN set."""

    __slots__ = ()

    child: HostId
    child_info: FrozenSeqnoSet
    #: monotone per-child counter so stale acks can be recognized
    attempt: int
    size_bits: int
    uid: int
    checksum: int

    kind = KIND_CONTROL

    def __new__(cls, child: HostId, child_info: SeqnoSet, attempt: int = 0,
                size_bits: int = 1_000, uid: int = 0,
                checksum: int = _AUTO) -> "AttachRequest":
        fields = (child, child_info.snapshot(), attempt, size_bits,
                  uid or next(_uids))
        if checksum == _AUTO:
            checksum = compute_checksum(cls._canonical(fields))
        return tuple.__new__(cls, fields + (checksum,))

    def _canonical(self: Sequence[Any]) -> tuple:
        return (_CRC_ATTACH_REQ, _HOST_CRC[self[0]], self[1].canonical,
                self[2], self[4])


class AttachAck(TuplePayload):
    """Parent confirms the attachment (echoing the request's attempt)."""

    __slots__ = ()

    parent: HostId
    attempt: int
    parent_info: FrozenSeqnoSet
    parent_parent: Optional[HostId]
    size_bits: int
    uid: int
    checksum: int

    kind = KIND_CONTROL

    def __new__(cls, parent: HostId, attempt: int, parent_info: SeqnoSet,
                parent_parent: Optional[HostId], size_bits: int = 1_000,
                uid: int = 0, checksum: int = _AUTO) -> "AttachAck":
        fields = (parent, attempt, parent_info.snapshot(), parent_parent,
                  size_bits, uid or next(_uids))
        if checksum == _AUTO:
            checksum = compute_checksum(cls._canonical(fields))
        return tuple.__new__(cls, fields + (checksum,))

    def _canonical(self: Sequence[Any]) -> tuple:
        return (_CRC_ATTACH_ACK, _HOST_CRC[self[0]], self[1],
                self[2].canonical, _HOST_CRC[self[3]], self[5])


class DetachNotice(TuplePayload):
    """Child tells its former parent to forget it."""

    __slots__ = ()

    child: HostId
    size_bits: int
    uid: int
    checksum: int

    kind = KIND_CONTROL

    def __new__(cls, child: HostId, size_bits: int = 1_000, uid: int = 0,
                checksum: int = _AUTO) -> "DetachNotice":
        fields = (child, size_bits, uid or next(_uids))
        if checksum == _AUTO:
            checksum = compute_checksum(cls._canonical(fields))
        return tuple.__new__(cls, fields + (checksum,))

    def _canonical(self: Sequence[Any]) -> tuple:
        return (_CRC_DETACH, _HOST_CRC[self[0]], self[2])


# ----------------------------------------------------------------------
# Frame codec: the real-socket wire format
# ----------------------------------------------------------------------
#
# A frame is one datagram: a fixed header, then one payload.  All
# integers are big-endian; every frame's length is exactly what its
# header and counts say.
#
#   header   version u8 | payload tag u8 | host-table fingerprint u32
#            | sender index u16 | sender's send-time stamp f64
#   data     seq i64 | created_at f64 | origin u16 | gapfill u8
#            | size_bits u32 | checksum u32 | content
#   info     sender u16 | parent u16 | size_bits u32 | stamp f64
#            | echo_stamp f64 | echo_hold f64 | uid u64 | checksum u32
#            | seqnos
#   attach   child u16 | attempt i64 | size_bits u32 | uid u64
#   request  | checksum u32 | seqnos
#   attach   parent u16 | attempt i64 | parent_parent u16 | size_bits u32
#   ack      | uid u64 | checksum u32 | seqnos
#   detach   child u16 | size_bits u32 | uid u64 | checksum u32
#   raw      size_bits u32 | kind length u8 | content tag u8
#            | content length u32 | kind (UTF-8) | content bytes
#
#   content  tag u8 | length u32 | bytes (data: both in the fixed part)
#   seqnos   floor i64 | run count u16 | (lo i64, hi i64) per run
#
# Host fields are indices into the HostTable; 0xFFFF is "no host".

#: frame format version; a frame carrying any other is dropped
WIRE_VERSION = 1

#: host index meaning "no host" (a None parent pointer)
_NO_HOST = 0xFFFF

_HEADER = "!BBIHd"
_HEADER_SIZE = struct.calcsize(_HEADER)
_HEADER_S = struct.Struct(_HEADER)

_TAG_DATA, _TAG_INFO, _TAG_ATTACH_REQ, _TAG_ATTACH_ACK, _TAG_DETACH, \
    _TAG_RAW = range(1, 7)

#: content tags: the application contents a frame can carry
_C_NONE, _C_STR, _C_BYTES = range(3)

_SEQNOS_HEAD = struct.Struct("!qH")
#: per-run-count structs for the common small counts
_RUN_STRUCTS: Dict[int, struct.Struct] = {}


class FrameError(ValueError):
    """A datagram that is not a well-formed frame for this deployment."""


class HostTable:
    """A deployment's closed host table: host id ↔ frame index.

    Indices follow name order, so two ends that know the same hosts
    build the same table whatever order they learnt them in.  The
    table's CRC-32 ``fingerprint`` rides in every frame header: a frame
    built against another table is dropped instead of having its
    indices read as the wrong hosts.
    """

    __slots__ = ("hosts", "index", "fingerprint")

    def __init__(self, hosts: Iterable[HostId]) -> None:
        self.hosts: Tuple[HostId, ...] = tuple(sorted(set(hosts)))
        if len(self.hosts) >= _NO_HOST:
            raise ValueError(f"a host table holds fewer than {_NO_HOST} hosts")
        #: host id (or its plain name) -> index
        self.index: Dict[str, int] = {h: i for i, h in enumerate(self.hosts)}
        self.fingerprint = zlib.crc32("\n".join(self.hosts).encode("utf-8"))

    def optional(self, index: int) -> Optional[HostId]:
        """The host at ``index``, or None for the "no host" index."""
        return None if index == _NO_HOST else self.hosts[index]


def _optional_index(table: HostTable, host: Optional[HostId]) -> int:
    return _NO_HOST if host is None else table.index[host]


def _pack_content(content: object) -> Tuple[int, bytes]:
    kind = type(content)
    if kind is str:
        return _C_STR, content.encode("utf-8")  # type: ignore[attr-defined]
    if content is None:
        return _C_NONE, b""
    if kind is bytes:
        return _C_BYTES, content  # type: ignore[return-value]
    raise TypeError(f"no wire encoding for content of type {kind.__name__}")


def _unpack_content(tag: int, blob: bytes) -> object:
    if tag == _C_STR:
        return blob.decode("utf-8")
    if tag == _C_NONE and not blob:
        return None
    if tag == _C_BYTES:
        return bytes(blob)
    raise FrameError(f"bad content (tag {tag}, {len(blob)} bytes)")


def _runs_struct(count: int) -> struct.Struct:
    runs = _RUN_STRUCTS.get(count)
    if runs is None:
        runs = struct.Struct(f"!{2 * count}q")
        if count <= 16:  # the wire must not grow the cache without bound
            _RUN_STRUCTS[count] = runs
    return runs


def _pack_seqnos(info: SeqnoSet) -> bytes:
    floor, los, his = info.runs()
    count = len(los)
    flat = [0] * (2 * count)
    flat[0::2] = los
    flat[1::2] = his
    return _SEQNOS_HEAD.pack(floor, count) + _runs_struct(count).pack(*flat)


def _unpack_seqnos(frame: bytes, offset: int) -> FrozenSeqnoSet:
    """The set that ends the frame at ``offset``, built frozen: the
    payload adopts it as its snapshot."""
    floor, count = _SEQNOS_HEAD.unpack_from(frame, offset)
    offset += _SEQNOS_HEAD.size
    if len(frame) != offset + 16 * count:
        raise FrameError("frame length does not match its run count")
    flat = _runs_struct(count).unpack_from(frame, offset)
    return FrozenSeqnoSet.from_runs(floor, list(flat[0::2]),
                                    list(flat[1::2]))


# -- DataMsg ------------------------------------------------------------

_DATA_BODY = "qdHBIIBI"
_DATA = struct.Struct(_HEADER + _DATA_BODY)
_DATA_IN = struct.Struct("!" + _DATA_BODY)


def _encode_data(table: HostTable, head: tuple, msg: DataMsg) -> bytes:
    content = msg.content
    if type(content) is str:  # the common case, inline
        tag, blob = _C_STR, content.encode("utf-8")
    else:
        tag, blob = _pack_content(content)
    return _DATA.pack(*head, msg.seq, msg.created_at, table.index[msg.origin],
                      msg.gapfill, msg.size_bits, msg.checksum, tag,
                      len(blob)) + blob


def _decode_data(table: HostTable, frame: bytes) -> DataMsg:
    (seq, created_at, origin, gapfill, size_bits, checksum, tag,
     length) = _DATA_IN.unpack_from(frame, _HEADER_SIZE)
    start = _HEADER_SIZE + _DATA_IN.size
    if len(frame) != start + length:
        raise FrameError("frame length does not match its content length")
    if seq < 1 or not isfinite(created_at):
        raise FrameError("non-positive sequence number or non-finite time")
    blob = frame[start:]
    content = (blob.decode("utf-8") if tag == _C_STR  # the common case
               else _unpack_content(tag, blob))
    # The checksum travels verbatim: the receiver validates it.
    return DataMsg(seq, content, created_at, table.hosts[origin],
                   bool(gapfill), size_bits, checksum)


# -- InfoMsg ------------------------------------------------------------

_INFO_BODY = "HHIdddQI"
_INFO = struct.Struct(_HEADER + _INFO_BODY)
_INFO_IN = struct.Struct("!" + _INFO_BODY)


def _encode_info(table: HostTable, head: tuple, msg: InfoMsg) -> bytes:
    return _INFO.pack(*head, table.index[msg.sender],
                      _optional_index(table, msg.parent), msg.size_bits,
                      msg.stamp, msg.echo_stamp, msg.echo_hold, msg.uid,
                      msg.checksum) + _pack_seqnos(msg.info)


def _decode_info(table: HostTable, frame: bytes) -> InfoMsg:
    (sender, parent, size_bits, stamp, echo_stamp, echo_hold, uid,
     checksum) = _INFO_IN.unpack_from(frame, _HEADER_SIZE)
    if not (isfinite(stamp) and isfinite(echo_stamp) and isfinite(echo_hold)):
        raise FrameError("non-finite time field")
    return InfoMsg(table.hosts[sender],
                   _unpack_seqnos(frame, _HEADER_SIZE + _INFO_IN.size),
                   table.optional(parent), size_bits, stamp, echo_stamp,
                   echo_hold, uid, checksum)


# -- attachment and detach ------------------------------------------------

_REQ_BODY = "HqIQI"
_REQ = struct.Struct(_HEADER + _REQ_BODY)
_REQ_IN = struct.Struct("!" + _REQ_BODY)


def _encode_request(table: HostTable, head: tuple,
                    msg: AttachRequest) -> bytes:
    return _REQ.pack(*head, table.index[msg.child], msg.attempt,
                     msg.size_bits, msg.uid, msg.checksum) \
        + _pack_seqnos(msg.child_info)


def _decode_request(table: HostTable, frame: bytes) -> AttachRequest:
    child, attempt, size_bits, uid, checksum = _REQ_IN.unpack_from(
        frame, _HEADER_SIZE)
    return AttachRequest(
        table.hosts[child], _unpack_seqnos(frame, _HEADER_SIZE + _REQ_IN.size),
        attempt, size_bits, uid, checksum)


_ACK_BODY = "HqHIQI"
_ACK = struct.Struct(_HEADER + _ACK_BODY)
_ACK_IN = struct.Struct("!" + _ACK_BODY)


def _encode_ack(table: HostTable, head: tuple, msg: AttachAck) -> bytes:
    return _ACK.pack(*head, table.index[msg.parent], msg.attempt,
                     _optional_index(table, msg.parent_parent),
                     msg.size_bits, msg.uid, msg.checksum) \
        + _pack_seqnos(msg.parent_info)


def _decode_ack(table: HostTable, frame: bytes) -> AttachAck:
    (parent, attempt, parent_parent, size_bits, uid,
     checksum) = _ACK_IN.unpack_from(frame, _HEADER_SIZE)
    return AttachAck(
        table.hosts[parent], attempt,
        _unpack_seqnos(frame, _HEADER_SIZE + _ACK_IN.size),
        table.optional(parent_parent), size_bits, uid, checksum)


_DETACH_BODY = "HIQI"
_DETACH = struct.Struct(_HEADER + _DETACH_BODY)
_DETACH_IN = struct.Struct("!" + _DETACH_BODY)


def _encode_detach(table: HostTable, head: tuple,
                   msg: DetachNotice) -> bytes:
    return _DETACH.pack(*head, table.index[msg.child], msg.size_bits,
                        msg.uid, msg.checksum)


def _decode_detach(table: HostTable, frame: bytes) -> DetachNotice:
    if len(frame) != _DETACH.size:
        raise FrameError("frame length does not match a detach notice")
    child, size_bits, uid, checksum = _DETACH_IN.unpack_from(
        frame, _HEADER_SIZE)
    return DetachNotice(table.hosts[child], size_bits, uid, checksum)


# -- RawPayload (tests and low-level benchmarks) ----------------------------

_RAW_BODY = "IBBI"
_RAW = struct.Struct(_HEADER + _RAW_BODY)
_RAW_IN = struct.Struct("!" + _RAW_BODY)


def _encode_raw(table: HostTable, head: tuple, raw: RawPayload) -> bytes:
    kind = raw.kind.encode("utf-8")
    tag, blob = _pack_content(raw.content)
    return _RAW.pack(*head, raw.size_bits, len(kind), tag, len(blob)) \
        + kind + blob


def _decode_raw(table: HostTable, frame: bytes) -> RawPayload:
    size_bits, kind_length, tag, length = _RAW_IN.unpack_from(
        frame, _HEADER_SIZE)
    start = _HEADER_SIZE + _RAW_IN.size
    middle = start + kind_length
    if len(frame) != middle + length:
        raise FrameError("frame length does not match its field lengths")
    return RawPayload(content=_unpack_content(tag, frame[middle:]),
                      kind=frame[start:middle].decode("utf-8"),
                      size_bits=size_bits)


_ENCODERS: Dict[type, Tuple[int, Callable[..., bytes]]] = {
    DataMsg: (_TAG_DATA, _encode_data),
    InfoMsg: (_TAG_INFO, _encode_info),
    AttachRequest: (_TAG_ATTACH_REQ, _encode_request),
    AttachAck: (_TAG_ATTACH_ACK, _encode_ack),
    DetachNotice: (_TAG_DETACH, _encode_detach),
    RawPayload: (_TAG_RAW, _encode_raw),
}

_DECODERS: Dict[int, Callable[[HostTable, bytes], object]] = {
    _TAG_DATA: _decode_data,
    _TAG_INFO: _decode_info,
    _TAG_ATTACH_REQ: _decode_request,
    _TAG_ATTACH_ACK: _decode_ack,
    _TAG_DETACH: _decode_detach,
    _TAG_RAW: _decode_raw,
}


def encode_frame(table: HostTable, src: HostId, stamped_at: float,
                 payload: object) -> bytes:
    """The datagram that carries ``payload`` from ``src``.

    Raises ``TypeError`` for a payload (or data content) type the wire
    does not carry, and ``ValueError`` for a host outside ``table`` or a
    field out of its encoded range — a sender-side bug, never a
    property of the traffic.
    """
    entry = _ENCODERS.get(type(payload))
    if entry is None:
        raise TypeError(
            f"no wire encoding for payload type {type(payload).__name__}")
    tag, encode = entry
    try:
        head = (WIRE_VERSION, tag, table.fingerprint, table.index[src],
                stamped_at)
        return encode(table, head, payload)
    except (KeyError, struct.error) as exc:
        raise ValueError(f"cannot encode {payload!r}: {exc}") from None


def decode_frame(table: HostTable,
                 frame: bytes) -> Tuple[HostId, float, object]:
    """``(src, stamped_at, payload)`` from one datagram.

    Raises :class:`FrameError` — and nothing else — for a datagram that
    is not exactly one well-formed frame built against ``table``:
    truncated, trailing bytes, another version or table, an unknown tag
    or host index, a malformed INFO set, a non-finite time or a
    non-positive sequence number.
    """
    try:
        version, tag, fingerprint, src, stamped_at = _HEADER_S.unpack_from(
            frame)
        if version != WIRE_VERSION:
            raise FrameError(f"wire version {version}, expected "
                             f"{WIRE_VERSION}")
        if fingerprint != table.fingerprint:
            raise FrameError("frame was built against another host table")
        decode = _DECODERS.get(tag)
        if decode is None:
            raise FrameError(f"unknown payload tag {tag}")
        if not isfinite(stamped_at):
            raise FrameError("non-finite send stamp")
        return table.hosts[src], stamped_at, decode(table, frame)
    except FrameError:
        raise
    except (struct.error, ValueError, IndexError) as exc:
        # Truncation, an index past the table, bad UTF-8, a run state
        # SeqnoSet.from_runs rejects.
        raise FrameError(str(exc)) from None
